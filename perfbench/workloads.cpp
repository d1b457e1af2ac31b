#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/cluster/migration.hpp"
#include "core/fleet.hpp"
#include "harness/scenarios.hpp"
#include "sim/faults.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

namespace harness = stayaway::harness;
namespace core = stayaway::core;
using Clock = std::chrono::steady_clock;

// Instances per run: enough that the per-run QoS totals vary little from
// seed to seed (README.md). Recovery instances cost the most and vary
// least, so it takes fewer.
constexpr std::size_t kDiurnalInstances = 32;
constexpr std::size_t kRecoveryInstances = 16;
constexpr std::size_t kClusterInstances = 32;

// Sizes were chosen so each workload's leading layer is the one README.md
// names and one timed run_fleet call lasts a fraction of a second, so a
// measured run repeats it many times.
constexpr std::size_t kDiurnalHosts = 8;
// Timed on one worker: on a shared 4-vCPU host the CPU time a 4-thread
// pool gets swings by up to 2x for minutes at a time, which no statistic
// over one run hides. The 4-worker pool still runs once per run, as an
// output check whose parallel efficiency is printed (README.md, "Noise").
constexpr std::size_t kDiurnalPoolWorkers = 4;
constexpr double kDiurnalDurationS = 600.0;
// The figure benches compress 1.5 diurnal cycles into 300 s.
constexpr double kDiurnalCycleS = 200.0;

constexpr std::size_t kRecoveryHosts = 4;
constexpr double kRecoveryDurationS = 150.0;
constexpr std::size_t kRecoveryCheckpointEvery = 10;

constexpr double kClusterDurationS = 1200.0;
constexpr double kClusterSpareLoad = 0.25;
constexpr double kClusterArrivalS = 150.0;  // after the 60..120 s surge

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

Workload fleet_diurnal(std::uint64_t seed) {
  harness::ExperimentSpec base;
  base.sensitive = harness::SensitiveKind::VlcStream;
  base.batch = harness::BatchKind::TwitterAnalysis;
  base.policy = harness::PolicyKind::StayAway;
  base.duration_s = kDiurnalDurationS;
  Workload w;
  w.fleet = harness::replicate_fleet(base, kDiurnalHosts, seed, 1);
  w.pool_workers = kDiurnalPoolWorkers;
  auto start = Clock::now();
  for (std::size_t i = 0; i < w.fleet.hosts.size(); ++i) {
    w.fleet.hosts[i].experiment.workload = harness::compressed_diurnal(
        kDiurnalDurationS, kDiurnalDurationS / kDiurnalCycleS,
        core::fleet_host_seed(~seed, i));
  }
  w.trace_generate_us = us_since(start);
  return w;
}

Workload recovery_checkpoint(std::uint64_t seed) {
  harness::ExperimentSpec base;
  base.sensitive = harness::SensitiveKind::VlcStream;
  base.batch = harness::BatchKind::CpuBomb;
  base.policy = harness::PolicyKind::StayAway;
  base.duration_s = kRecoveryDurationS;
  base.batch_start_s = 10.0;
  Workload w;
  w.fleet = harness::replicate_fleet(base, kRecoveryHosts, seed, 1);
  w.fleet.supervise = true;
  w.fleet.checkpoint_every = kRecoveryCheckpointEvery;
  // Two crashes, mid-run and late, as in bench_recovery: one long and one
  // short replay tail per run.
  stayaway::sim::FaultPlan plan;
  plan.seed = seed;
  for (double at : {kRecoveryDurationS * 0.5, kRecoveryDurationS * 0.85}) {
    stayaway::sim::FaultSpec f;
    f.kind = stayaway::sim::FaultKind::HostCrash;
    f.start_s = at;
    f.end_s = at + 1.0;
    f.probability = 1.0;
    plan.faults.push_back(f);
  }
  const auto crash_host = static_cast<std::size_t>(seed % kRecoveryHosts);
  w.crash_host = crash_host;
  w.crashes = plan.faults.size();
  w.fleet.hosts[crash_host].experiment.faults = std::move(plan);
  return w;
}

Workload cluster_flash_crowd(std::uint64_t seed) {
  Workload w;
  auto host = [seed](std::size_t i, double load) {
    harness::ExperimentSpec spec;
    spec.sensitive = harness::SensitiveKind::FlashCrowd;
    spec.batch = harness::BatchKind::None;
    spec.policy = harness::PolicyKind::StayAway;
    spec.duration_s = kClusterDurationS;
    spec.seed = core::fleet_host_seed(seed, i);
    // Flash-crowd traces scale load absolutely: a one-sample trace is a
    // constant load fraction.
    if (load < 1.0) spec.workload = stayaway::trace::Trace({load}, 1.0);
    return spec;
  };
  auto start = Clock::now();
  w.fleet.hosts.push_back({"front", host(0, 1.0)});
  w.fleet.hosts.push_back({"spare-a", host(1, kClusterSpareLoad)});
  w.fleet.hosts.push_back({"spare-b", host(2, kClusterSpareLoad)});
  w.trace_generate_us = us_since(start);
  harness::ClusterSpec cluster;
  cluster.config.migrate = true;
  cluster.mobile.push_back(
      {"crunch", harness::BatchKind::CpuBomb, "front", 15.0});
  cluster.admissions.push_back(
      {"late", harness::BatchKind::CpuBomb, kClusterArrivalS});
  w.fleet.cluster = std::move(cluster);
  return w;
}

/// run_fleet's cluster twins for host i: every mobile VM (attached on its
/// home only), then every admission (parked).
std::vector<harness::TwinSpec> twins_for_host(const harness::FleetSpec& fleet,
                                              std::size_t i) {
  std::vector<harness::TwinSpec> twins;
  if (!fleet.cluster.has_value()) return twins;
  for (const harness::MobileVmSpec& m : fleet.cluster->mobile) {
    twins.push_back({m.name, m.kind, m.start_s, fleet.hosts[i].name == m.home});
  }
  for (const harness::AdmissionSpec& a : fleet.cluster->admissions) {
    twins.push_back({a.name, a.kind, a.arrival_s, false});
  }
  return twins;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "fleet-diurnal", "recovery-checkpoint", "cluster-flash-crowd"};
  return names;
}

std::size_t instances_per_run(const std::string& name) {
  if (name == "fleet-diurnal") return kDiurnalInstances;
  if (name == "recovery-checkpoint") return kRecoveryInstances;
  if (name == "cluster-flash-crowd") return kClusterInstances;
  throw std::invalid_argument("unknown workload: " + name);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fleet-diurnal") return fleet_diurnal(seed);
  if (name == "recovery-checkpoint") return recovery_checkpoint(seed);
  if (name == "cluster-flash-crowd") return cluster_flash_crowd(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

std::size_t periods_per_host(const harness::FleetSpec& fleet,
                             std::size_t host) {
  const harness::ExperimentSpec& e = fleet.hosts[host].experiment;
  return static_cast<std::size_t>(std::llround(e.duration_s / e.period_s));
}

BuiltHost build_host(const harness::FleetSpec& fleet, std::size_t host,
                     BuildTimes* times) {
  const harness::ExperimentSpec& spec = fleet.hosts[host].experiment;
  if (spec.policy != harness::PolicyKind::StayAway ||
      spec.seed_template.has_value()) {
    throw std::invalid_argument("benchmark hosts run plain Stay-Away");
  }
  BuiltHost out;
  auto start = Clock::now();
  out.rig = harness::build_host_rig(spec, twins_for_host(fleet, host));
  double rig_us = us_since(start);
  start = Clock::now();
  out.pipeline = std::make_unique<core::HostPipeline>(
      *out.rig.host, *out.rig.probe, harness::derive_stayaway_config(spec));
  if (spec.faults.has_value() && !spec.faults->empty()) {
    out.pipeline->install_faults(*spec.faults);
  }
  if (fleet.cluster.has_value()) {
    auto mig = std::make_unique<core::cluster::MigrationActuator>(
        out.pipeline->release_actuator());
    mig->set_mobile(std::vector<stayaway::sim::VmId>(
        out.rig.twin_ids.begin(),
        out.rig.twin_ids.begin() +
            static_cast<std::ptrdiff_t>(fleet.cluster->mobile.size())));
    out.pipeline->set_actuator(std::move(mig));
  }
  if (times != nullptr) {
    times->rig_us += rig_us;
    times->pipeline_us += us_since(start);
  }
  return out;
}

}  // namespace perfbench
