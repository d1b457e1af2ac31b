// Fleet runner tests: the fleet-of-1 golden digests (every policy,
// fault-free and faulted, plus ring ingestion, webservice series, seeded
// templates and passive mode) checked through both run_fleet and
// run_experiment, per-host seed splitting, host-labelled observability,
// worker-count invariance, and how a controller surfaces the failure of
// an unsupervised member.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fleet.hpp"
#include "harness/fleet.hpp"
#include "harness/rig.hpp"
#include "obs/events.hpp"
#include "obs/observer.hpp"
#include "util/envelope.hpp"
#include "util/statecodec.hpp"

namespace stayaway::harness {
namespace {

ExperimentSpec short_spec(PolicyKind policy) {
  ExperimentSpec spec;
  spec.sensitive = SensitiveKind::VlcStream;
  spec.batch = BatchKind::CpuBomb;
  spec.policy = policy;
  spec.duration_s = 40.0;
  spec.batch_start_s = 5.0;
  return spec;
}

sim::FaultSpec fault_of(sim::FaultKind kind, double start, double end,
                        double p = 1.0) {
  sim::FaultSpec s;
  s.kind = kind;
  s.start_s = start;
  s.end_s = end;
  s.probability = p;
  return s;
}

sim::FaultPlan stress_plan() {
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.faults.push_back(
      fault_of(sim::FaultKind::SensorDropout, 5.0, 25.0, 0.3));
  plan.faults.push_back(fault_of(sim::FaultKind::QosBlind, 10.0, 18.0));
  plan.faults.push_back(fault_of(sim::FaultKind::PauseFail, 0.0, 30.0, 0.5));
  return plan;
}

/// Writes an enum field as its integer code.
template <typename E>
void write_enum(util::StateIO& io, std::string_view key, E value) {
  auto code = static_cast<std::uint64_t>(value);
  io.u64(key, code);
}

/// The reference record encoding the golden digests were captured with:
/// every PeriodRecord field as its own `key = value` line, in the order
/// the v2 checkpoint body wrote them. Kept here verbatim so the digests
/// stay pinned independently of the production codec.
void write_reference_record(util::StateIO& io, core::PeriodRecord& rec) {
  io.real("time", rec.time);
  write_enum(io, "mode", rec.mode);
  io.real("x", rec.state.x);
  io.real("y", rec.state.y);
  io.u64("representative", rec.representative);
  io.boolean("new_representative", rec.new_representative);
  io.boolean("violation_observed", rec.violation_observed);
  io.boolean("violation_predicted", rec.violation_predicted);
  io.boolean("model_ready", rec.model_ready);
  write_enum(io, "action", rec.action);
  io.boolean("batch_paused_after", rec.batch_paused_after);
  io.real("stress", rec.stress);
  io.real("beta", rec.beta);
  write_enum(io, "degradation", rec.degradation);
  io.u64("quarantined_dims", rec.quarantined_dims);
  io.u64("max_staleness", rec.max_staleness);
  io.boolean("qos_visible", rec.qos_visible);
  io.u64("actuation_retries", rec.actuation_retries);
  io.boolean("actuation_pending", rec.actuation_pending);
  io.u64("samples_ingested", rec.samples_ingested);
  io.u64("late_samples", rec.late_samples);
  io.u64("duplicate_samples", rec.duplicate_samples);
  io.u64("overflow_drops", rec.overflow_drops);
  io.u64("migrations_out", rec.migrations_out);
  io.u64("migrations_in", rec.migrations_in);
}

/// One FNV-1a digest over everything a run produces: every PeriodRecord
/// in the reference encoding, every per-period series and every
/// aggregate, so any drift in any field changes the digest. Takes a copy
/// because the codec's field calls take references.
std::uint64_t result_digest(ExperimentResult r) {
  std::ostringstream out;
  util::StateIO io(out);
  io.sequence("records", r.stayaway_records, [&io](core::PeriodRecord& rec) {
    write_reference_record(io, rec);
  });
  io.reals("time", r.time);
  io.reals("qos", r.qos);
  io.u64s("violated", r.violated);
  io.reals("utilization", r.utilization);
  io.u64s("batch_running", r.batch_running);
  io.reals("offered_tps", r.offered_tps);
  io.reals("completed_tps", r.completed_tps);
  io.u64("violation_periods", r.violation_periods);
  io.real("violation_fraction", r.violation_fraction);
  io.real("avg_utilization", r.avg_utilization);
  io.real("avg_qos", r.avg_qos);
  io.real("batch_cpu_work", r.batch_cpu_work);
  io.real("sensitive_cpu_work", r.sensitive_cpu_work);
  std::vector<std::uint64_t> tally = {
      r.tally.true_positive, r.tally.false_positive, r.tally.true_negative,
      r.tally.false_negative};
  io.u64s("tally", tally);
  io.u64("pauses", r.pauses);
  io.u64("resumes", r.resumes);
  io.u64("degraded_periods", r.degraded_periods);
  io.u64("failsafe_periods", r.failsafe_periods);
  io.u64("readings_quarantined", r.readings_quarantined);
  io.u64("actuation_retries", r.actuation_retries);
  io.u64("actuation_abandoned", r.actuation_abandoned);
  io.real("final_beta", r.final_beta);
  io.u64("representative_count", r.representative_count);
  io.real("final_stress", r.final_stress);
  bool has_template = r.exported_template.has_value();
  io.boolean("template", has_template);
  if (has_template) r.exported_template->save(out);
  for (mds::Point2& p : r.final_map) {
    io.real("x", p.x);
    io.real("y", p.y);
  }
  return util::fnv1a64(out.str());
}

TEST(FleetHostSeed, SplitsAreDeterministicAndDecorrelated) {
  EXPECT_EQ(core::fleet_host_seed(7, 0), core::fleet_host_seed(7, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ULL, 99ULL, 1234ULL}) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(seen.insert(core::fleet_host_seed(base, i)).second)
          << "collision at base " << base << " host " << i;
    }
  }
}

TEST(FleetHostSeed, NoAdditiveLatticeCollisions) {
  // Regression: the original mixer finalized `base + gamma * (i + 1)`,
  // so f(base + gamma, i) == f(base, i + 1) — two fleets whose base
  // seeds differ by the golden-ratio constant shared shifted host
  // streams. The current construction must not.
  const std::uint64_t gamma = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t base : {1ULL, 99ULL, 424242ULL}) {
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_NE(core::fleet_host_seed(base + gamma, i),
                core::fleet_host_seed(base, i + 1))
          << "lattice collision at base " << base << " host " << i;
      EXPECT_NE(core::fleet_host_seed(base - gamma, i + 1),
                core::fleet_host_seed(base, i))
          << "lattice collision at base " << base << " host " << i;
    }
  }
}

TEST(FleetHostSeed, SplitsAreStatisticallyIndependent) {
  // Avalanche: flipping host index or one base bit should flip ~half of
  // the 64 output bits. Averaged over many pairs, the per-bit flip rate
  // must sit near 0.5 — the additive lattice construction fails this
  // badly (adjacent indices differed by a constant before finalizing).
  auto popcount = [](std::uint64_t v) {
    int n = 0;
    for (; v != 0; v &= v - 1) ++n;
    return n;
  };
  double flips = 0.0;
  int pairs = 0;
  for (std::uint64_t base = 1; base <= 64; ++base) {
    for (std::size_t i = 0; i < 8; ++i) {
      flips += popcount(core::fleet_host_seed(base, i) ^
                        core::fleet_host_seed(base, i + 1));
      flips += popcount(core::fleet_host_seed(base, i) ^
                        core::fleet_host_seed(base ^ (1ULL << (i * 7)), i));
      pairs += 2;
    }
  }
  double mean_flips = flips / pairs;
  EXPECT_GT(mean_flips, 28.0);
  EXPECT_LT(mean_flips, 36.0);

  // Bit balance: across many splits every output bit position should be
  // set about half the time.
  for (int bit = 0; bit < 64; ++bit) {
    int set = 0;
    int total = 0;
    for (std::uint64_t base = 1; base <= 32; ++base) {
      for (std::size_t i = 0; i < 16; ++i) {
        set += static_cast<int>((core::fleet_host_seed(base * 11, i) >> bit) &
                                1u);
        ++total;
      }
    }
    double frac = static_cast<double>(set) / total;
    EXPECT_GT(frac, 0.3) << "bit " << bit << " stuck low";
    EXPECT_LT(frac, 0.7) << "bit " << bit << " stuck high";
  }
}

struct GoldenRun {
  std::string name;
  ExperimentSpec spec;
  std::uint64_t digest;
};

/// Digests captured through the separate single-host runner that
/// preceded the fleet-of-one (policy adapter classes driven through a
/// facade over the pipeline). The fleet path must reproduce them
/// exactly: every policy fault-free and faulted, a webservice TPS series
/// on a diurnal trace, ring ingestion with landmark-incremental
/// embedding, a template-seeded map and a passive (observe-only)
/// controller.
std::vector<GoldenRun> golden_runs() {
  std::vector<GoldenRun> runs;
  const std::pair<PolicyKind, std::uint64_t> clean[] = {
      {PolicyKind::StayAway, 0x5c895de2fc80b560ULL},
      {PolicyKind::NoPrevention, 0x4c4a8d2639898eb6ULL},
      {PolicyKind::Reactive, 0xaea580f268c88ba9ULL},
      {PolicyKind::StaticThreshold, 0xc78e822edaf391baULL},
  };
  for (const auto& [policy, digest] : clean) {
    runs.push_back({to_string(policy), short_spec(policy), digest});
  }
  const std::pair<PolicyKind, std::uint64_t> faulted[] = {
      {PolicyKind::StayAway, 0xe9bfad67b05a25c3ULL},
      {PolicyKind::NoPrevention, 0x4c4a8d2639898eb6ULL},
      {PolicyKind::Reactive, 0xaea580f268c88ba9ULL},
      {PolicyKind::StaticThreshold, 0xc78e822edaf391baULL},
  };
  for (const auto& [policy, digest] : faulted) {
    ExperimentSpec spec = short_spec(policy);
    spec.faults = stress_plan();
    runs.push_back({std::string(to_string(policy)) + "/faults", spec, digest});
  }

  ExperimentSpec web = short_spec(PolicyKind::StayAway);
  web.sensitive = SensitiveKind::WebserviceMem;
  web.batch = BatchKind::MemBomb;
  web.duration_s = 60.0;
  web.workload = compressed_diurnal(web.duration_s, 2.0, 17);
  runs.push_back({"webservice-mem/diurnal", web, 0x38676746878c8cfbULL});

  ExperimentSpec ring = short_spec(PolicyKind::StayAway);
  ring.stayaway.embed_method = core::EmbedMethod::LandmarkIncremental;
  ring.stayaway.ingest.source = core::IngestSource::Ring;
  ring.stayaway.ingest.rate_hz = 16.0;
  ring.stayaway.ingest.ring_capacity = 64;
  runs.push_back({"ring/landmark-incremental", ring, 0x1bb88cc55c95cb79ULL});

  ExperimentSpec seeded = short_spec(PolicyKind::StayAway);
  seeded.seed = 7;
  seeded.seed_template =
      run_experiment(short_spec(PolicyKind::StayAway)).exported_template;
  runs.push_back({"template-seeded", seeded, 0x31390a590b3d7184ULL});

  ExperimentSpec passive = short_spec(PolicyKind::StayAway);
  passive.stayaway.actions_enabled = false;
  runs.push_back({"passive", passive, 0x6a661f296d9148f5ULL});
  return runs;
}

const GoldenRun& golden_run(const std::vector<GoldenRun>& runs,
                            const std::string& name) {
  for (const GoldenRun& run : runs) {
    if (run.name == name) return run;
  }
  ADD_FAILURE() << "no golden run named " << name;
  return runs.front();
}

/// Drives one golden run both as a named fleet of one and through
/// run_experiment; each must reproduce the captured digest.
ExperimentResult expect_golden(const GoldenRun& run) {
  FleetSpec fleet;
  fleet.hosts.push_back({"solo", run.spec});
  FleetResult fr = run_fleet(fleet);
  EXPECT_EQ(fr.hosts.size(), 1u) << run.name;
  if (fr.hosts.size() != 1u) return {};
  EXPECT_EQ(fr.hosts[0].name, "solo") << run.name;
  std::uint64_t fleet_digest = result_digest(fr.hosts[0].result);
  EXPECT_EQ(fleet_digest, run.digest)
      << run.name << " (fleet): digest 0x" << std::hex << fleet_digest
      << "ULL";

  ExperimentResult r = run_experiment(run.spec);
  std::uint64_t got = result_digest(r);
  EXPECT_EQ(got, run.digest)
      << run.name << ": digest 0x" << std::hex << got << "ULL";
  if (run.spec.faults.has_value() && run.spec.policy == PolicyKind::StayAway) {
    // The plan must actually degrade the loop, or the faulted golden
    // proves nothing about the degraded path.
    EXPECT_GT(r.degraded_periods + r.failsafe_periods, 0u) << run.name;
  }
  return r;
}

TEST(Fleet, SingleHostMatchesExperimentByteIdentical) {
  ExperimentResult r = expect_golden(golden_run(golden_runs(), "stay-away"));
  EXPECT_TRUE(r.exported_template.has_value());
}

TEST(Fleet, SingleHostMatchesExperimentUnderFaults) {
  expect_golden(golden_run(golden_runs(), "stay-away/faults"));
}

TEST(Fleet, BaselinePoliciesMatchExperiment) {
  const std::vector<GoldenRun> runs = golden_runs();
  for (const char* name :
       {"no-prevention", "reactive", "static-threshold",
        "no-prevention/faults", "reactive/faults",
        "static-threshold/faults"}) {
    expect_golden(golden_run(runs, name));
  }
}

TEST(Fleet, SingleHostGoldenDigests) {
  const std::vector<GoldenRun> runs = golden_runs();
  for (const char* name : {"webservice-mem/diurnal",
                           "ring/landmark-incremental", "template-seeded",
                           "passive"}) {
    expect_golden(golden_run(runs, name));
  }
}

TEST(Fleet, ReplicateSplitsNamesAndSeeds) {
  FleetSpec fleet =
      replicate_fleet(short_spec(PolicyKind::StayAway), 3, 99, 2);
  ASSERT_EQ(fleet.hosts.size(), 3u);
  EXPECT_EQ(fleet.workers, 2u);
  EXPECT_EQ(fleet.hosts[0].name, "host0");
  EXPECT_EQ(fleet.hosts[2].name, "host2");
  EXPECT_NE(fleet.hosts[0].experiment.seed, fleet.hosts[1].experiment.seed);
  EXPECT_EQ(fleet.hosts[1].experiment.seed, core::fleet_host_seed(99, 1));
}

TEST(Fleet, WorkersDoNotChangeResults) {
  ExperimentSpec base = short_spec(PolicyKind::StayAway);
  base.duration_s = 30.0;
  FleetSpec serial = replicate_fleet(base, 4, 5, 1);
  FleetSpec parallel = replicate_fleet(base, 4, 5, 4);
  FleetResult rs = run_fleet(serial);
  FleetResult rp = run_fleet(parallel);
  ASSERT_EQ(rs.hosts.size(), rp.hosts.size());
  for (std::size_t i = 0; i < rs.hosts.size(); ++i) {
    EXPECT_EQ(rs.hosts[i].name, rp.hosts[i].name);
    EXPECT_EQ(result_digest(rp.hosts[i].result),
              result_digest(rs.hosts[i].result));
  }
  // Decorrelated seeds: sibling hosts must not mirror each other.
  EXPECT_NE(rs.hosts[0].result.stayaway_records,
            rs.hosts[1].result.stayaway_records);
}

TEST(Fleet, HostLabelledObservability) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  obs::Observer observer(&sink);

  ExperimentSpec base = short_spec(PolicyKind::StayAway);
  base.duration_s = 20.0;
  FleetSpec fleet = replicate_fleet(base, 2, 42, 1);
  fleet.observer = &observer;
  run_fleet(fleet);

  // Metric keys are host-prefixed so the shared registry keeps the two
  // loops apart.
  EXPECT_EQ(observer.metrics().counter("host.host0.loop.periods").value(),
            20u);
  EXPECT_EQ(observer.metrics().counter("host.host1.loop.periods").value(),
            20u);
  EXPECT_EQ(observer.metrics().counter("loop.periods").value(), 0u);
  // Every event carries the host tag.
  std::string events = out.str();
  EXPECT_NE(events.find("\"host\":\"host0\""), std::string::npos);
  EXPECT_NE(events.find("\"host\":\"host1\""), std::string::npos);
}

TEST(Fleet, SingleHostKeepsUnlabelledObservability) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  obs::Observer observer(&sink);

  ExperimentSpec base = short_spec(PolicyKind::StayAway);
  base.duration_s = 20.0;
  FleetSpec fleet;
  fleet.hosts.push_back({"solo", base});
  fleet.observer = &observer;
  run_fleet(fleet);

  EXPECT_EQ(observer.metrics().counter("loop.periods").value(), 20u);
  EXPECT_EQ(out.str().find("\"host\":"), std::string::npos);
}

/// One host wired by hand for a bare core::FleetController (run_fleet
/// supervises every host whose plan holds a crash-class fault, so an
/// unsupervised failing member needs this).
struct HandWiredHost {
  HostRig rig;
  std::unique_ptr<core::HostPipeline> pipeline;

  explicit HandWiredHost(const ExperimentSpec& spec)
      : rig(build_host_rig(spec)),
        pipeline(std::make_unique<core::HostPipeline>(
            *rig.host, *rig.probe, derive_stayaway_config(spec))) {
    if (spec.faults.has_value()) pipeline->install_faults(*spec.faults);
  }

  /// A member with no rebuild callback: unsupervised.
  core::FleetController::Member member(std::string name) const {
    core::FleetController::Member m;
    m.name = std::move(name);
    m.host = rig.host.get();
    m.pipeline = pipeline.get();
    m.periods = 40;
    return m;
  }
};

/// short_spec with one stage-failure window of `kind` at [start, start+2).
ExperimentSpec failing_spec(sim::FaultKind kind, double start) {
  ExperimentSpec spec = short_spec(PolicyKind::StayAway);
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.faults.push_back(fault_of(kind, start, start + 2.0));
  spec.faults = plan;
  return spec;
}

/// An unsupervised member takes the same period driver as a supervised
/// one, but traps nothing: the injected error surfaces from run()
/// unchanged, the recovery report stays all-zero and no checkpoint is
/// saved even with a checkpoint cadence configured.
template <typename Error>
void expect_unsupervised_failure_rethrown(sim::FaultKind kind) {
  HandWiredHost host(failing_spec(kind, 10.0));
  core::FleetConfig config;
  config.checkpoint_every = 2;
  core::FleetController controller(config);
  controller.add_member(host.member("solo"));
  EXPECT_THROW(controller.run(), Error);
  EXPECT_EQ(controller.members()[0].recovery, core::RecoveryReport{});
  // The run stopped at the failing period, about 10 s in.
  EXPECT_GE(host.pipeline->records().size(), 9u);
  EXPECT_LE(host.pipeline->records().size(), 10u);
}

TEST(FleetFailures, UnsupervisedStageThrowIsRethrownUnchanged) {
  expect_unsupervised_failure_rethrown<core::StageThrowError>(
      sim::FaultKind::StageThrow);
}

TEST(FleetFailures, UnsupervisedStageStallIsRethrownUnchanged) {
  expect_unsupervised_failure_rethrown<core::StageStallError>(
      sim::FaultKind::StageStall);
}

TEST(FleetFailures, EveryMemberRunsWhateverTheWorkerCount) {
  // Members 0 and 1 throw (member 1 earlier in simulated time), member 2
  // is clean. Every member must run to its end or its own failure, and
  // the error rethrown is the first in member order, on one worker as on
  // three.
  struct Outcome {
    std::string error;
    std::vector<std::size_t> records;
  };
  auto run_with = [](std::size_t workers) {
    std::vector<std::unique_ptr<HandWiredHost>> hosts;
    hosts.push_back(std::make_unique<HandWiredHost>(
        failing_spec(sim::FaultKind::StageThrow, 20.0)));
    hosts.push_back(std::make_unique<HandWiredHost>(
        failing_spec(sim::FaultKind::StageThrow, 10.0)));
    hosts.push_back(
        std::make_unique<HandWiredHost>(short_spec(PolicyKind::StayAway)));
    core::FleetConfig config;
    config.workers = workers;
    core::FleetController controller(config);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      controller.add_member(hosts[i]->member("host" + std::to_string(i)));
    }
    Outcome out;
    try {
      controller.run();
      ADD_FAILURE() << "run() returned with two failing members";
    } catch (const core::StageThrowError& e) {
      out.error = e.what();
    }
    for (const auto& host : hosts) {
      out.records.push_back(host->pipeline->records().size());
    }
    return out;
  };
  const Outcome one = run_with(1);
  const Outcome three = run_with(3);
  EXPECT_EQ(one.error, "injected stage throw at t=20.000000");
  EXPECT_EQ(three.error, one.error);
  // The failing members stopped at their failures; the clean one ran all
  // 40 periods.
  ASSERT_EQ(one.records.size(), 3u);
  EXPECT_LT(one.records[0], 40u);
  EXPECT_LT(one.records[1], one.records[0]);
  EXPECT_EQ(one.records[2], 40u);
  EXPECT_EQ(three.records, one.records);
}

}  // namespace
}  // namespace stayaway::harness
