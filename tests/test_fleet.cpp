// Fleet runner tests: the fleet-of-1 golden digests (every policy,
// fault-free and faulted, plus ring ingestion, webservice series, seeded
// templates and passive mode) checked through both run_fleet and
// run_experiment, per-host seed splitting, host-labelled observability
// and worker-count invariance.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "harness/fleet.hpp"
#include "obs/events.hpp"
#include "obs/observer.hpp"
#include "util/statecodec.hpp"
#include "util/thread_pool.hpp"

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

/// One FNV-1a digest over everything a run produces: every PeriodRecord
/// in its checkpoint encoding, every per-period series and every
/// aggregate, so any drift in any field changes the digest.
std::uint64_t result_digest(const ExperimentResult& r) {
  auto flags = [](const std::vector<int>& v) {
    return std::vector<std::uint64_t>(v.begin(), v.end());
  };
  std::ostringstream out;
  util::StateWriter w(out);
  w.u64("records", r.stayaway_records.size());
  for (const core::PeriodRecord& rec : r.stayaway_records) {
    core::write_period_record(w, rec);
  }
  w.reals("time", r.time);
  w.reals("qos", r.qos);
  w.u64s("violated", flags(r.violated));
  w.reals("utilization", r.utilization);
  w.u64s("batch_running", flags(r.batch_running));
  w.reals("offered_tps", r.offered_tps);
  w.reals("completed_tps", r.completed_tps);
  w.u64("violation_periods", r.violation_periods);
  w.real("violation_fraction", r.violation_fraction);
  w.real("avg_utilization", r.avg_utilization);
  w.real("avg_qos", r.avg_qos);
  w.real("batch_cpu_work", r.batch_cpu_work);
  w.real("sensitive_cpu_work", r.sensitive_cpu_work);
  w.u64s("tally", {r.tally.true_positive, r.tally.false_positive,
                   r.tally.true_negative, r.tally.false_negative});
  w.u64("pauses", r.pauses);
  w.u64("resumes", r.resumes);
  w.u64("degraded_periods", r.degraded_periods);
  w.u64("failsafe_periods", r.failsafe_periods);
  w.u64("readings_quarantined", r.readings_quarantined);
  w.u64("actuation_retries", r.actuation_retries);
  w.u64("actuation_abandoned", r.actuation_abandoned);
  w.real("final_beta", r.final_beta);
  w.u64("representative_count", r.representative_count);
  w.real("final_stress", r.final_stress);
  w.boolean("template", r.exported_template.has_value());
  if (r.exported_template.has_value()) r.exported_template->save(out);
  for (const mds::Point2& p : r.final_map) {
    w.real("x", p.x);
    w.real("y", p.y);
  }
  return core::fnv1a64(out.str());
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
  util::set_hot_path_threads(1);
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

}  // namespace
}  // namespace stayaway::harness
