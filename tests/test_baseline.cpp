// Unit tests for the baseline policies as pipeline stages: no-prevention
// (an empty StageSet), reactive throttling and static-threshold
// throttling, each driven inside a core::HostPipeline.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/cpubomb.hpp"
#include "apps/vlc_stream.hpp"
#include "baseline/stages/reactive_actuator.hpp"
#include "baseline/stages/static_actuator.hpp"
#include "core/governor.hpp"
#include "core/pipeline.hpp"
#include "harness/experiment.hpp"
#include "obs/events.hpp"
#include "obs/observer.hpp"
#include "util/check.hpp"

namespace stayaway::baseline {
namespace {

sim::HostSpec host_spec() {
  sim::HostSpec spec;
  spec.cpu_cores = 4.0;
  spec.memory_mb = 4096.0;
  return spec;
}

struct Rig {
  sim::SimHost host;
  const sim::QosProbe* probe = nullptr;
  sim::VmId batch;

  Rig() : host(host_spec(), 0.1), batch(0) {
    auto vlc = std::make_unique<apps::VlcStream>();
    probe = vlc.get();
    host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc));
    batch = host.add_vm("bomb", sim::VmKind::Batch,
                        std::make_unique<apps::CpuBomb>());
  }
};

/// An actuator-only pipeline; a null actuator is the no-prevention shape.
std::unique_ptr<core::HostPipeline> pipeline_with(
    sim::SimHost& host, const sim::QosProbe& probe,
    std::unique_ptr<core::Actuator> actuator) {
  core::StageSet stages;
  stages.actuator = std::move(actuator);
  return std::make_unique<core::HostPipeline>(
      host, probe, core::StayAwayConfig{}, std::move(stages));
}

/// One control period: ten 0.1 s ticks, then the pipeline.
core::PeriodRecord step(Rig& rig, core::HostPipeline& pipeline) {
  rig.host.run(10);
  return pipeline.on_period();
}

TEST(NoPrevention, NeverActs) {
  Rig rig;
  auto pipeline = pipeline_with(rig.host, *rig.probe, nullptr);
  for (int p = 0; p < 20; ++p) step(rig, *pipeline);
  EXPECT_FALSE(rig.host.vm(rig.batch).paused());
  EXPECT_DOUBLE_EQ(rig.host.vm(rig.batch).paused_time(), 0.0);
  EXPECT_TRUE(rig.probe->violated());  // contention unchecked
}

TEST(Reactive, PausesAfterObservedViolation) {
  Rig rig;
  auto stage = std::make_unique<ReactiveActuator>();
  ReactiveActuator& policy = *stage;
  auto pipeline = pipeline_with(rig.host, *rig.probe, std::move(stage));
  int periods_until_pause = 0;
  for (int p = 0; p < 20 && !rig.host.vm(rig.batch).paused(); ++p) {
    step(rig, *pipeline);
    ++periods_until_pause;
  }
  EXPECT_TRUE(rig.host.vm(rig.batch).paused());
  EXPECT_GE(policy.pauses(), 1u);
  // The violation had to be *observed* first: at least one period passed.
  EXPECT_GE(periods_until_pause, 1);
}

TEST(Reactive, ResumesAfterCooldown) {
  Rig rig;
  ReactiveConfig cfg;
  cfg.cooldown_s = 3.0;
  auto pipeline = pipeline_with(rig.host, *rig.probe,
                                std::make_unique<ReactiveActuator>(cfg));
  // Drive to a pause.
  while (!rig.host.vm(rig.batch).paused()) step(rig, *pipeline);
  double paused_at = rig.host.now();
  // Run until resume.
  while (rig.host.vm(rig.batch).paused()) step(rig, *pipeline);
  EXPECT_GE(rig.host.now() - paused_at, 3.0 - 1e-9);
}

TEST(Reactive, RepausesOnRecurringViolation) {
  Rig rig;
  ReactiveConfig cfg;
  cfg.cooldown_s = 2.0;
  auto stage = std::make_unique<ReactiveActuator>(cfg);
  ReactiveActuator& policy = *stage;
  auto pipeline = pipeline_with(rig.host, *rig.probe, std::move(stage));
  for (int p = 0; p < 60; ++p) step(rig, *pipeline);
  // CPUBomb always re-violates after resume: multiple pause cycles.
  EXPECT_GE(policy.pauses(), 2u);
}

TEST(Reactive, InvalidCooldownRejected) {
  ReactiveConfig cfg;
  cfg.cooldown_s = 0.0;
  EXPECT_THROW(ReactiveActuator{cfg}, PreconditionError);
}

TEST(StaticThreshold, PausesOnHighCpuUtilization) {
  Rig rig;
  StaticThresholdConfig cfg;
  cfg.cpu_cap = 0.85;
  auto stage = std::make_unique<StaticThresholdActuator>(cfg);
  StaticThresholdActuator& policy = *stage;
  auto pipeline = pipeline_with(rig.host, *rig.probe, std::move(stage));
  for (int p = 0; p < 5; ++p) step(rig, *pipeline);
  // VLC (2.6) + CPUBomb (4) saturate the host: utilization ~1 > cap.
  EXPECT_TRUE(rig.host.vm(rig.batch).paused());
  EXPECT_GE(policy.pauses(), 1u);
}

TEST(StaticThreshold, ResumesBelowHysteresis) {
  Rig rig;
  StaticThresholdConfig cfg;
  cfg.cpu_cap = 0.85;
  cfg.hysteresis = 0.1;
  auto pipeline = pipeline_with(
      rig.host, *rig.probe, std::make_unique<StaticThresholdActuator>(cfg));
  // Pause under load.
  for (int p = 0; p < 5; ++p) step(rig, *pipeline);
  ASSERT_TRUE(rig.host.vm(rig.batch).paused());
  // With the bomb paused, VLC alone uses 2.6/4 = 0.65 < 0.75: resume.
  for (int p = 0; p < 3; ++p) step(rig, *pipeline);
  EXPECT_FALSE(rig.host.vm(rig.batch).paused());
}

TEST(StaticThreshold, BlindToSwapViolations) {
  // A memory-driven violation at modest CPU utilization slips under a
  // CPU-cap policy — the paper's core argument against static rules.
  sim::SimHost host(host_spec(), 0.1);
  auto vlc = std::make_unique<apps::VlcStream>();
  const sim::QosProbe* probe = vlc.get();
  host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc));

  // Batch that holds a huge working set but almost no CPU.
  class MemHog final : public sim::AppModel {
   public:
    std::string_view name() const override { return "memhog"; }
    sim::ResourceDemand demand(sim::SimTime) override {
      sim::ResourceDemand d;
      d.cpu_cores = 0.1;
      d.memory_mb = 4200.0;  // alone it swaps a little; with VLC, a lot
      return d;
    }
    void advance(sim::SimTime, double, const sim::Allocation&) override {}
  };
  auto hog_id = host.add_vm("hog", sim::VmKind::Batch,
                            std::make_unique<MemHog>());

  StaticThresholdConfig cfg;
  cfg.cpu_cap = 0.9;
  cfg.memory_cap = 2.0;  // memory rule effectively disabled
  cfg.membw_cap = 0.9;
  auto pipeline = pipeline_with(
      host, *probe, std::make_unique<StaticThresholdActuator>(cfg));
  for (int p = 0; p < 20; ++p) {
    host.run(10);
    pipeline->on_period();
  }
  EXPECT_FALSE(host.vm(hog_id).paused());
  EXPECT_TRUE(probe->violated());  // swap hurt VLC, policy never noticed
}

TEST(StaticThreshold, InvalidHysteresisRejected) {
  StaticThresholdConfig cfg;
  cfg.hysteresis = -0.1;
  EXPECT_THROW(StaticThresholdActuator{cfg}, PreconditionError);
}

TEST(PolicyNames, Stable) {
  // The decision log names each baseline the same way, run after run.
  const std::pair<harness::PolicyKind, std::string> names[] = {
      {harness::PolicyKind::NoPrevention, "no-prevention"},
      {harness::PolicyKind::Reactive, "reactive"},
      {harness::PolicyKind::StaticThreshold, "static-threshold"},
  };
  for (const auto& [policy, name] : names) {
    harness::ExperimentSpec spec;
    spec.batch = harness::BatchKind::CpuBomb;
    spec.policy = policy;
    spec.duration_s = 10.0;
    spec.batch_start_s = 5.0;
    std::ostringstream out;
    obs::JsonlSink sink(out);
    obs::Observer observer(&sink);
    spec.observer = &observer;
    harness::run_experiment(spec);
    observer.flush();

    std::istringstream in(out.str());
    std::size_t decisions = 0;
    for (const obs::Event& e : obs::parse_jsonl(in)) {
      if (e.type != "decision") continue;
      ++decisions;
      ASSERT_NE(e.find("policy"), nullptr);
      EXPECT_EQ(e.find("policy")->as_string(), name);
    }
    EXPECT_EQ(decisions, 10u) << name;
  }
}

TEST(ActuatorOutcome, NoPreventionAlwaysNone) {
  Rig rig;
  auto pipeline = pipeline_with(rig.host, *rig.probe, nullptr);
  core::PeriodRecord rec = step(rig, *pipeline);
  const core::Actuator::Outcome& outcome = pipeline->last_outcome();
  EXPECT_EQ(rec.action, core::ThrottleAction::None);
  EXPECT_TRUE(outcome.paused.empty());
  EXPECT_TRUE(outcome.resumed.empty());
  EXPECT_TRUE(outcome.reason.empty());
  EXPECT_FALSE(rec.batch_paused_after);
}

TEST(ActuatorOutcome, ReactiveReportsPauseAndResume) {
  Rig rig;
  ReactiveConfig cfg;
  cfg.cooldown_s = 2.0;
  auto pipeline = pipeline_with(rig.host, *rig.probe,
                                std::make_unique<ReactiveActuator>(cfg));
  core::PeriodRecord rec;
  // Drive to the first pause and inspect that outcome.
  for (int p = 0; p < 20; ++p) {
    rec = step(rig, *pipeline);
    if (rec.action != core::ThrottleAction::None) break;
  }
  EXPECT_EQ(rec.action, core::ThrottleAction::Pause);
  EXPECT_EQ(pipeline->last_outcome().reason, "observed-violation");
  EXPECT_EQ(pipeline->last_outcome().paused,
            std::vector<sim::VmId>{rig.batch});
  EXPECT_TRUE(rec.batch_paused_after);
  // And the eventual resume names the cooldown.
  for (int p = 0; p < 40; ++p) {
    rec = step(rig, *pipeline);
    if (rec.action == core::ThrottleAction::Resume) break;
  }
  EXPECT_EQ(rec.action, core::ThrottleAction::Resume);
  EXPECT_EQ(pipeline->last_outcome().reason, "cooldown-elapsed");
  EXPECT_EQ(pipeline->last_outcome().resumed,
            std::vector<sim::VmId>{rig.batch});
  EXPECT_FALSE(rec.batch_paused_after);
}

TEST(ActuatorOutcome, StaticThresholdNamesItsRules) {
  Rig rig;
  StaticThresholdConfig cfg;
  cfg.cpu_cap = 0.85;
  cfg.hysteresis = 0.1;
  auto pipeline = pipeline_with(
      rig.host, *rig.probe, std::make_unique<StaticThresholdActuator>(cfg));
  core::PeriodRecord rec;
  for (int p = 0; p < 5; ++p) {
    rec = step(rig, *pipeline);
    if (rec.action != core::ThrottleAction::None) break;
  }
  EXPECT_EQ(rec.action, core::ThrottleAction::Pause);
  EXPECT_EQ(pipeline->last_outcome().reason, "threshold-exceeded");
  ASSERT_FALSE(pipeline->last_outcome().paused.empty());
  for (int p = 0; p < 5; ++p) {
    rec = step(rig, *pipeline);
    if (rec.action == core::ThrottleAction::Resume) break;
  }
  EXPECT_EQ(rec.action, core::ThrottleAction::Resume);
  EXPECT_EQ(pipeline->last_outcome().reason, "below-hysteresis");
}

TEST(ActuatorOutcome, ActionNamesStable) {
  EXPECT_STREQ(core::to_string(core::ThrottleAction::None), "none");
  EXPECT_STREQ(core::to_string(core::ThrottleAction::Pause), "pause");
  EXPECT_STREQ(core::to_string(core::ThrottleAction::Resume), "resume");
}

}  // namespace
}  // namespace stayaway::baseline
