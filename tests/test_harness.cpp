// Unit tests for the experiment harness: scenario catalogue, experiment
// runner bookkeeping, gained-utilization math, report rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/rig.hpp"
#include "harness/scenarios.hpp"
#include "obs/events.hpp"
#include "obs/observer.hpp"
#include "sim/faults.hpp"
#include "util/check.hpp"

namespace stayaway::harness {
namespace {

ExperimentSpec short_spec() {
  ExperimentSpec spec;
  spec.sensitive = SensitiveKind::VlcStream;
  spec.batch = BatchKind::CpuBomb;
  spec.policy = PolicyKind::NoPrevention;
  spec.duration_s = 40.0;
  spec.batch_start_s = 5.0;
  return spec;
}

TEST(Scenarios, SensitiveFactoriesProduceProbes) {
  for (auto kind : {SensitiveKind::VlcStream, SensitiveKind::WebserviceCpu,
                    SensitiveKind::WebserviceMem, SensitiveKind::WebserviceMix,
                    SensitiveKind::VlcTranscode}) {
    SensitiveSetup setup = make_sensitive(kind, std::nullopt, 60.0, 1);
    ASSERT_NE(setup.app, nullptr) << to_string(kind);
    ASSERT_NE(setup.probe, nullptr) << to_string(kind);
    EXPECT_GT(setup.probe->qos_threshold(), 0.0);
  }
}

TEST(Scenarios, BatchFactoriesMatchTable1) {
  EXPECT_TRUE(make_batch(BatchKind::None).empty());
  EXPECT_EQ(make_batch(BatchKind::CpuBomb).size(), 1u);
  auto batch1 = make_batch(BatchKind::Batch1);
  ASSERT_EQ(batch1.size(), 2u);
  EXPECT_EQ(batch1[0]->name(), "twitter-analysis");
  EXPECT_EQ(batch1[1]->name(), "soplex");
  auto batch2 = make_batch(BatchKind::Batch2);
  ASSERT_EQ(batch2.size(), 2u);
  EXPECT_EQ(batch2[0]->name(), "twitter-analysis");
  EXPECT_EQ(batch2[1]->name(), "membomb");
}

TEST(Scenarios, PaperHostMatchesTestbedShape) {
  sim::HostSpec spec = paper_host();
  EXPECT_DOUBLE_EQ(spec.cpu_cores, 4.0);  // 4-core i5
  EXPECT_GT(spec.memory_mb, 0.0);
  EXPECT_GT(spec.swap_penalty, 0.0);
}

TEST(Scenarios, CompressedDiurnalSpansExperiment) {
  trace::Trace t = compressed_diurnal(120.0, 2.0, 3);
  EXPECT_NEAR(t.duration(), 120.0, 1.0);
  EXPECT_GT(t.max(), t.min());
}

TEST(Experiment, SeriesAlignedAndComplete) {
  ExperimentResult r = run_experiment(short_spec());
  EXPECT_EQ(r.time.size(), 40u);
  EXPECT_EQ(r.qos.size(), r.time.size());
  EXPECT_EQ(r.violated.size(), r.time.size());
  EXPECT_EQ(r.utilization.size(), r.time.size());
  EXPECT_EQ(r.batch_running.size(), r.time.size());
  EXPECT_TRUE(r.offered_tps.empty());  // not a webservice run
}

TEST(Experiment, WebserviceRunsCarryTpsSeries) {
  ExperimentSpec spec = short_spec();
  spec.sensitive = SensitiveKind::WebserviceCpu;
  ExperimentResult r = run_experiment(spec);
  EXPECT_EQ(r.offered_tps.size(), r.time.size());
  EXPECT_EQ(r.completed_tps.size(), r.time.size());
  EXPECT_GT(r.offered_tps.back(), 0.0);
}

TEST(Experiment, NoPreventionSuffersCpuBombViolations) {
  ExperimentResult r = run_experiment(short_spec());
  EXPECT_GT(r.violation_fraction, 0.5);
  EXPECT_LT(r.avg_qos, 1.1);
}

TEST(Experiment, StayAwayCutsViolations) {
  ExperimentSpec spec = short_spec();
  spec.duration_s = 120.0;
  ExperimentResult base = run_experiment(spec);
  spec.policy = PolicyKind::StayAway;
  ExperimentResult sa = run_experiment(spec);
  EXPECT_LT(sa.violation_fraction, base.violation_fraction / 2.0);
  EXPECT_GT(sa.pauses, 0u);
  EXPECT_FALSE(sa.stayaway_records.empty());
  EXPECT_TRUE(sa.exported_template.has_value());
}

TEST(Experiment, IsolatedRunHasNoBatch) {
  ExperimentResult iso = run_isolated(short_spec());
  EXPECT_DOUBLE_EQ(iso.batch_cpu_work, 0.0);
  for (int b : iso.batch_running) EXPECT_EQ(b, 0);
  EXPECT_EQ(iso.violation_periods, 0u);  // VLC alone never violates
}

TEST(Experiment, GainedUtilizationNonNegativeAndBounded) {
  ExperimentSpec spec = short_spec();
  ExperimentResult co = run_experiment(spec);
  ExperimentResult iso = run_isolated(spec);
  auto gained = gained_utilization(co, iso);
  ASSERT_EQ(gained.size(), co.utilization.size());
  for (double g : gained) {
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 1.0);
  }
  EXPECT_GT(series_mean(gained), 0.05);  // the bomb consumes leftover CPU
}

TEST(Experiment, MismatchedSeriesRejected) {
  ExperimentSpec spec = short_spec();
  ExperimentResult a = run_experiment(spec);
  spec.duration_s = 20.0;
  ExperimentResult b = run_experiment(spec);
  EXPECT_THROW(gained_utilization(a, b), PreconditionError);
}

TEST(Experiment, DeterministicForSameSeed) {
  ExperimentSpec spec = short_spec();
  spec.policy = PolicyKind::StayAway;
  ExperimentResult a = run_experiment(spec);
  ExperimentResult b = run_experiment(spec);
  ASSERT_EQ(a.qos.size(), b.qos.size());
  for (std::size_t i = 0; i < a.qos.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.qos[i], b.qos[i]);
  }
  EXPECT_EQ(a.pauses, b.pauses);
}

TEST(Experiment, SeedChangesTrajectories) {
  ExperimentSpec spec = short_spec();
  spec.policy = PolicyKind::StayAway;
  ExperimentResult a = run_experiment(spec);
  spec.seed = 12345;
  ExperimentResult b = run_experiment(spec);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.qos.size(); ++i) {
    if (a.qos[i] != b.qos[i]) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Experiment, ReactiveAndStaticPoliciesRun) {
  ExperimentSpec spec = short_spec();
  spec.policy = PolicyKind::Reactive;
  ExperimentResult reactive = run_experiment(spec);
  EXPECT_LT(reactive.violation_fraction, 0.9);

  spec.policy = PolicyKind::StaticThreshold;
  ExperimentResult st = run_experiment(spec);
  EXPECT_LE(st.violation_fraction, 1.0);
}

TEST(Experiment, InvalidSpecsRejected) {
  ExperimentSpec spec = short_spec();
  spec.duration_s = 0.0;
  EXPECT_THROW(run_experiment(spec), PreconditionError);
  spec = short_spec();
  spec.period_s = 0.01;  // below tick
  EXPECT_THROW(run_experiment(spec), PreconditionError);
}

TEST(Experiment, NonFiniteRunLengthRejected) {
  // An infinite duration used to run forever and an infinite period ran
  // zero periods and reported an all-zero result.
  const double bad[] = {std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()};
  for (double value : bad) {
    ExperimentSpec spec = short_spec();
    spec.duration_s = value;
    EXPECT_THROW(build_host_rig(spec), PreconditionError) << value;
    spec = short_spec();
    spec.period_s = value;
    EXPECT_THROW(build_host_rig(spec), PreconditionError) << value;
    spec = short_spec();
    spec.tick_s = value;
    EXPECT_THROW(build_host_rig(spec), PreconditionError) << value;
  }
}

TEST(Experiment, ResumeDecisionCountsTheVmItReleased) {
  // Regression: with flaky actuation an abandoned resume splices the VM
  // back into the throttled set mid-period. A decision log built from a
  // snapshot taken before the period reported the Resume at t=68 s as
  // releasing nothing, although it released the bomb.
  ExperimentSpec spec = short_spec();
  spec.policy = PolicyKind::StayAway;
  spec.duration_s = 120.0;
  sim::FaultPlan plan;
  plan.seed = 5;
  auto fault = [](sim::FaultKind kind, double start, double end, double p) {
    sim::FaultSpec f;
    f.kind = kind;
    f.start_s = start;
    f.end_s = end;
    f.probability = p;
    return f;
  };
  plan.faults.push_back(fault(sim::FaultKind::PauseFail, 0.0, 120.0, 0.7));
  plan.faults.push_back(fault(sim::FaultKind::ResumeFail, 0.0, 120.0, 0.7));
  plan.faults.push_back(fault(sim::FaultKind::QosBlind, 40.0, 55.0, 1.0));
  spec.faults = plan;
  std::ostringstream out;
  obs::JsonlSink sink(out);
  obs::Observer observer(&sink);
  spec.observer = &observer;
  run_experiment(spec);
  observer.flush();

  std::istringstream in(out.str());
  const obs::Event* resume = nullptr;
  std::vector<obs::Event> events = obs::parse_jsonl(in);
  for (const obs::Event& e : events) {
    const obs::JsonValue* action = e.find("action");
    if (e.type == "decision" && std::lround(e.time) == 68 &&
        action != nullptr && action->as_string() == "resume") {
      resume = &e;
    }
  }
  ASSERT_NE(resume, nullptr);
  ASSERT_NE(resume->find("targets"), nullptr);
  EXPECT_EQ(resume->find("targets")->as_double(), 1.0);
}

TEST(Report, SummaryAndSeriesRender) {
  ExperimentResult r = run_experiment(short_spec());
  std::ostringstream out;
  print_summary_header(out);
  print_summary_row(out, "test-row", r);
  EXPECT_NE(out.str().find("test-row"), std::string::npos);
  EXPECT_NE(out.str().find("viol%"), std::string::npos);

  std::ostringstream csv;
  print_series_csv(csv, {"qos", "util"}, {&r.qos, &r.utilization});
  EXPECT_NE(csv.str().find("qos,"), std::string::npos);
  EXPECT_THROW(print_series_csv(csv, {"one"}, {&r.qos, &r.utilization}),
               PreconditionError);
}

TEST(Report, QosFigureContainsThresholdLegend) {
  ExperimentSpec spec = short_spec();
  ExperimentResult without = run_experiment(spec);
  spec.policy = PolicyKind::StayAway;
  ExperimentResult with_sa = run_experiment(spec);
  std::string fig = render_qos_figure("title-x", with_sa, without);
  EXPECT_NE(fig.find("title-x"), std::string::npos);
  EXPECT_NE(fig.find("threshold"), std::string::npos);
}

TEST(Report, PolicyNamesStable) {
  EXPECT_STREQ(to_string(PolicyKind::NoPrevention), "no-prevention");
  EXPECT_STREQ(to_string(PolicyKind::StayAway), "stay-away");
  EXPECT_STREQ(to_string(PolicyKind::Reactive), "reactive");
  EXPECT_STREQ(to_string(PolicyKind::StaticThreshold), "static-threshold");
}

}  // namespace
}  // namespace stayaway::harness
