// Fault-injection subsystem (sim/faults): spec parsing, every fault kind,
// and — the property the whole framework hangs on — determinism: the same
// plan and seed must reproduce the same fault stream.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "harness/scenario_file.hpp"
#include "sim/faults.hpp"
#include "util/check.hpp"

namespace stayaway::sim {
namespace {

FaultSpec spec_of(FaultKind kind, double p = 1.0, double start = 0.0,
                  double end = std::numeric_limits<double>::infinity()) {
  FaultSpec s;
  s.kind = kind;
  s.probability = p;
  s.start_s = start;
  s.end_s = end;
  return s;
}

FaultPlan plan_of(std::vector<FaultSpec> faults, std::uint64_t seed = 7) {
  FaultPlan plan;
  plan.seed = seed;
  plan.faults = std::move(faults);
  return plan;
}

TEST(FaultKindNames, RoundTrip) {
  for (FaultKind kind :
       {FaultKind::SensorDropout, FaultKind::StuckAt, FaultKind::Spike,
        FaultKind::NonFinite, FaultKind::StaleSample, FaultKind::QosBlind,
        FaultKind::PauseFail, FaultKind::ResumeFail}) {
    EXPECT_EQ(fault_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(fault_kind_from_string("cosmic-ray"), PreconditionError);
}

TEST(FaultSpecParse, FullLine) {
  FaultSpec s =
      parse_fault_spec("spike start=10 end=20 p=0.5 mag=4 dim=2");
  EXPECT_EQ(s.kind, FaultKind::Spike);
  EXPECT_DOUBLE_EQ(s.start_s, 10.0);
  EXPECT_DOUBLE_EQ(s.end_s, 20.0);
  EXPECT_DOUBLE_EQ(s.probability, 0.5);
  EXPECT_DOUBLE_EQ(s.magnitude, 4.0);
  EXPECT_EQ(s.dimension, 2);
  EXPECT_TRUE(s.active(10.0));
  EXPECT_TRUE(s.active(19.99));
  EXPECT_FALSE(s.active(20.0));  // half-open window
  EXPECT_FALSE(s.active(9.99));
}

/// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(FaultSpecParse, ErrorsNameTheLine) {
  // Fault plans are written as scenario `fault` lines: a bad spec names
  // its scenario line exactly once.
  struct Case {
    const char* text;
    const char* needle;
  };
  for (const Case& c : {
           Case{"cosmic-ray", "unknown fault kind"},
           Case{"spike p=1.5", "p must be in [0,1]"},
           Case{"spike start=20 end=10", "end > start"},
           Case{"spike mag=-1", "mag must be finite and positive"},
           Case{"spike dim=-2", "dim must be >= 0"},
           Case{"spike dim=nan", "dim must be >= 0"},
           Case{"spike dim=1e300", "dim must be >= 0"},
           Case{"spike bogus=1", "unknown fault key"},
           Case{"spike p", "expected key=value"},
           Case{"spike p=abc", "expected a number"},
       }) {
    std::istringstream doc(std::string("seed = 1\nfault_seed = 2\nfault = ") +
                           c.text + "\n");
    try {
      harness::parse_fleet_scenario(doc);
      FAIL() << "no error for: " << c.text;
    } catch (const PreconditionError& e) {
      std::string what = e.what();
      EXPECT_NE(what.find("scenario line 3: "), std::string::npos) << what;
      EXPECT_EQ(count_of(what, "line"), 1u) << what;
      EXPECT_NE(what.find(c.needle), std::string::npos) << what;
    }
  }
}

TEST(FaultInjector, RejectsInvalidProgrammaticPlans) {
  // A plan built in code has no lines: the error names the entry.
  try {
    FaultInjector(plan_of({spec_of(FaultKind::Spike),
                           spec_of(FaultKind::Spike, /*p=*/2.0)}));
    FAIL() << "accepted p = 2";
  } catch (const PreconditionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("fault 2: p must be in [0,1]"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("line"), std::string::npos) << what;
  }
}

TEST(FaultInjector, DropoutYieldsNaN) {
  FaultInjector inj(plan_of({spec_of(FaultKind::SensorDropout)}));
  std::vector<double> v{1.0, 2.0, 3.0};
  SensorFaultReport r = inj.corrupt_sample(0.0, v);
  EXPECT_EQ(r.dropped, 3u);
  for (double x : v) EXPECT_TRUE(std::isnan(x));
  EXPECT_EQ(inj.faulted_samples(), 1u);
}

TEST(FaultInjector, NonFiniteYieldsInfinity) {
  FaultInjector inj(plan_of({spec_of(FaultKind::NonFinite)}));
  std::vector<double> v{1.0, 2.0};
  SensorFaultReport r = inj.corrupt_sample(0.0, v);
  EXPECT_EQ(r.corrupted, 2u);
  for (double x : v) EXPECT_TRUE(std::isinf(x));
}

TEST(FaultInjector, SpikeMultipliesTargetDimensionOnly) {
  FaultSpec s = spec_of(FaultKind::Spike);
  s.magnitude = 8.0;
  s.dimension = 1;
  FaultInjector inj(plan_of({s}));
  std::vector<double> v{1.0, 2.0, 3.0};
  SensorFaultReport r = inj.corrupt_sample(0.0, v);
  EXPECT_EQ(r.corrupted, 1u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 16.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(FaultInjector, StuckAtReplaysPreviousRawReading) {
  // Stuck-at replays the sensor's previous *pre-fault* value, so the
  // first (no-history) sample passes through untouched.
  FaultInjector inj(plan_of({spec_of(FaultKind::StuckAt)}));
  std::vector<double> first{1.0, 2.0};
  SensorFaultReport r0 = inj.corrupt_sample(0.0, first);
  EXPECT_FALSE(r0.any());
  std::vector<double> second{10.0, 20.0};
  SensorFaultReport r1 = inj.corrupt_sample(1.0, second);
  EXPECT_EQ(r1.corrupted, 2u);
  EXPECT_DOUBLE_EQ(second[0], 1.0);
  EXPECT_DOUBLE_EQ(second[1], 2.0);
}

TEST(FaultInjector, StaleSampleReplaysWholeVector) {
  FaultInjector inj(plan_of({spec_of(FaultKind::StaleSample)}));
  std::vector<double> first{1.0, 2.0};
  inj.corrupt_sample(0.0, first);
  std::vector<double> second{10.0, 20.0};
  SensorFaultReport r = inj.corrupt_sample(1.0, second);
  EXPECT_TRUE(r.stale);
  EXPECT_DOUBLE_EQ(second[0], 1.0);
  EXPECT_DOUBLE_EQ(second[1], 2.0);
}

TEST(FaultInjector, WindowGatesAllFaults) {
  FaultInjector inj(
      plan_of({spec_of(FaultKind::SensorDropout, 1.0, 10.0, 20.0),
               spec_of(FaultKind::QosBlind, 1.0, 10.0, 20.0),
               spec_of(FaultKind::PauseFail, 1.0, 10.0, 20.0)}));
  std::vector<double> v{1.0};
  EXPECT_FALSE(inj.corrupt_sample(5.0, v).any());
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_FALSE(inj.qos_blind(5.0));
  EXPECT_TRUE(inj.pause_delivered(5.0));
  EXPECT_TRUE(inj.corrupt_sample(15.0, v).any());
  EXPECT_TRUE(inj.qos_blind(15.0));
  EXPECT_FALSE(inj.pause_delivered(15.0));
  EXPECT_EQ(inj.dropped_commands(), 1u);
}

TEST(FaultInjector, ResumeAndPauseChannelsAreIndependent) {
  FaultInjector inj(plan_of({spec_of(FaultKind::ResumeFail)}));
  EXPECT_TRUE(inj.pause_delivered(0.0));
  EXPECT_FALSE(inj.resume_delivered(0.0));
}

TEST(FaultInjector, IdenticalPlansReproduceIdenticalStreams) {
  auto stream = [](std::uint64_t seed) {
    FaultInjector inj(plan_of(
        {spec_of(FaultKind::SensorDropout, 0.3),
         spec_of(FaultKind::QosBlind, 0.4), spec_of(FaultKind::PauseFail, 0.5)},
        seed));
    std::vector<double> out;
    for (int t = 0; t < 50; ++t) {
      std::vector<double> v{1.0, 2.0, 3.0, 4.0};
      inj.corrupt_sample(t, v);
      out.insert(out.end(), v.begin(), v.end());
      out.push_back(inj.qos_blind(t) ? 1.0 : 0.0);
      out.push_back(inj.pause_delivered(t) ? 1.0 : 0.0);
    }
    return out;
  };
  std::vector<double> a = stream(7);
  std::vector<double> b = stream(7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // NaNs (dropout) compare by bit-class, not ==.
    if (std::isnan(a[i])) {
      EXPECT_TRUE(std::isnan(b[i])) << "index " << i;
    } else {
      EXPECT_DOUBLE_EQ(a[i], b[i]) << "index " << i;
    }
  }
  // And a different seed must not reproduce the same stream.
  std::vector<double> c = stream(8);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) != std::isnan(c[i])) differs = true;
    if (!std::isnan(a[i]) && !std::isnan(c[i]) && a[i] != c[i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, EmptyPlanIsInert) {
  FaultInjector inj(plan_of({}));
  std::vector<double> v{1.0, 2.0};
  EXPECT_FALSE(inj.corrupt_sample(0.0, v).any());
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
  EXPECT_FALSE(inj.qos_blind(0.0));
  EXPECT_TRUE(inj.pause_delivered(0.0));
  EXPECT_TRUE(inj.resume_delivered(0.0));
  EXPECT_EQ(inj.faulted_samples(), 0u);
  EXPECT_EQ(inj.dropped_commands(), 0u);
}

}  // namespace
}  // namespace stayaway::sim
