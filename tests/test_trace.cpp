// Unit tests for src/trace: trace container and diurnal generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "trace/diurnal.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stayaway::trace {
namespace {

TEST(Trace, InterpolationAndClamping) {
  Trace t({0.0, 10.0, 20.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(t.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.at(0.5), 5.0);
  EXPECT_DOUBLE_EQ(t.at(1.5), 15.0);
  EXPECT_DOUBLE_EQ(t.at(99.0), 20.0);
  EXPECT_DOUBLE_EQ(t.duration(), 2.0);
}

TEST(Trace, Statistics) {
  Trace t({2.0, 4.0, 6.0}, 0.5);
  EXPECT_DOUBLE_EQ(t.min(), 2.0);
  EXPECT_DOUBLE_EQ(t.max(), 6.0);
  EXPECT_DOUBLE_EQ(t.mean(), 4.0);
}

TEST(Trace, NormalizedAt) {
  Trace t({2.0, 4.0, 6.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.normalized_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.normalized_at(1.0), 0.5);
  EXPECT_DOUBLE_EQ(t.normalized_at(2.0), 1.0);
}

TEST(Trace, NormalizedAtConstantTraceIsZero) {
  Trace t({5.0, 5.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.normalized_at(0.5), 0.0);
}

TEST(Trace, Rescale) {
  Trace t({0.0, 5.0, 10.0}, 1.0);
  Trace r = t.rescaled(100.0, 200.0);
  EXPECT_DOUBLE_EQ(r.min(), 100.0);
  EXPECT_DOUBLE_EQ(r.max(), 200.0);
  EXPECT_DOUBLE_EQ(r.at(1.0), 150.0);
}

TEST(Trace, InvalidConstruction) {
  EXPECT_THROW(Trace({}, 1.0), PreconditionError);
  EXPECT_THROW(Trace({1.0}, 0.0), PreconditionError);
}

TEST(Trace, RejectsNonFiniteSamplesAndTimes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Trace({1.0, nan, 3.0}, 1.0), PreconditionError);
  EXPECT_THROW(Trace({1.0, inf}, 1.0), PreconditionError);
  EXPECT_THROW(Trace({-inf, 1.0}, 1.0), PreconditionError);
  Trace t({0.0, 10.0, 20.0}, 1.0);
  EXPECT_THROW(t.at(nan), PreconditionError);
  EXPECT_THROW(t.at(inf), PreconditionError);
  EXPECT_THROW(t.at(-inf), PreconditionError);
  EXPECT_THROW(t.normalized_at(nan), PreconditionError);
  // Finite times far past the end clamp without an out-of-range cast.
  EXPECT_DOUBLE_EQ(t.at(1e300), 20.0);
  EXPECT_DOUBLE_EQ(t.at(-1e300), 0.0);
}

TEST(Trace, CachedExtremaMatchScan) {
  // The extrema are computed once at construction; every accessor must
  // agree bit for bit with a fresh scan of the samples, on the trace
  // itself and on each way a Trace is copied or derived.
  auto expect_matches_scan = [](const Trace& t) {
    const auto& s = t.samples();
    const double lo = *std::min_element(s.begin(), s.end());
    const double hi = *std::max_element(s.begin(), s.end());
    EXPECT_EQ(t.min(), lo);
    EXPECT_EQ(t.max(), hi);
    const double span = hi - lo;
    for (double time = -0.5; time <= t.duration() + 0.5; time += 0.37) {
      const double want = span <= 0.0 ? 0.0 : (t.at(time) - lo) / span;
      EXPECT_EQ(t.normalized_at(time), want) << "t=" << time;
    }
  };
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> samples(1 + rng.index(40));
    for (double& v : samples) v = rng.uniform(-50.0, 50.0);
    Trace t(samples, 0.5 + rng.uniform());
    expect_matches_scan(t);
    Trace copy = t;
    expect_matches_scan(copy);
    Trace moved = std::move(copy);
    expect_matches_scan(moved);
    Trace assigned({0.0}, 1.0);
    assigned = moved;
    expect_matches_scan(assigned);
    expect_matches_scan(t.rescaled(-3.0, 7.0));
    expect_matches_scan(t.rescaled(2.0, 2.0));
  }
}

TEST(Diurnal, HasDailyCycle) {
  DiurnalSpec spec;
  spec.days = 2.0;
  spec.noise_fraction = 0.0;
  spec.weekly_amplitude = 0.0;
  Trace t = generate_diurnal(spec);
  // Peak hour minus trough should be roughly 2 * daily amplitude.
  double swing = (t.max() - t.min()) / spec.base;
  EXPECT_GT(swing, spec.daily_amplitude);
  // 24h periodicity: value at t and t+24h nearly equal.
  EXPECT_NEAR(t.at(10.0 * 3600.0), t.at(34.0 * 3600.0), 0.05 * spec.base);
}

TEST(Diurnal, PeakNearConfiguredHour) {
  DiurnalSpec spec;
  spec.days = 1.0;
  spec.noise_fraction = 0.0;
  spec.second_harmonic = 0.0;
  spec.weekly_amplitude = 0.0;
  spec.peak_hour = 20.0;
  Trace t = generate_diurnal(spec);
  std::size_t argmax = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.samples()[i] > t.samples()[argmax]) argmax = i;
  }
  double peak_hour = static_cast<double>(argmax) * spec.sample_interval_s / 3600.0;
  EXPECT_NEAR(peak_hour, 20.0, 1.5);
}

TEST(Diurnal, NeverBelowFloor) {
  DiurnalSpec spec;
  spec.daily_amplitude = 0.9;
  spec.noise_fraction = 0.3;
  Trace t = generate_diurnal(spec);
  EXPECT_GE(t.min(), 0.05 * spec.base - 1e-9);
}

TEST(Diurnal, DeterministicPerSeed) {
  DiurnalSpec spec;
  Trace a = generate_diurnal(spec);
  Trace b = generate_diurnal(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples()[i], b.samples()[i]);
  }
  spec.seed = 99;
  Trace c = generate_diurnal(spec);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.samples()[i] != c.samples()[i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Diurnal, SampleCountMatchesSpec) {
  DiurnalSpec spec;
  spec.days = 4.0;
  spec.sample_interval_s = 3600.0;
  Trace t = generate_diurnal(spec);
  EXPECT_EQ(t.size(), 97u);  // 4 * 24 + 1
}

TEST(Diurnal, InvalidSpecRejected) {
  DiurnalSpec spec;
  spec.base = 0.0;
  EXPECT_THROW(generate_diurnal(spec), PreconditionError);
}

TEST(Diurnal, SampleCountIsCheckedBeforeTheCast) {
  // An infinite or astronomically long trace fails its precondition
  // instead of reaching an undefined double -> size_t cast.
  for (double days : {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    DiurnalSpec spec;
    spec.days = days;
    EXPECT_THROW(generate_diurnal(spec), PreconditionError) << days;
  }
}

}  // namespace
}  // namespace stayaway::trace
