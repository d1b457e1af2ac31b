// Cluster-coordination benchmark (DESIGN.md §18): migration vs pausing
// under a flash crowd.
//
// Three hosts run the flash-crowd front end (src/apps/flash_crowd.hpp):
// "front" at full load with a surge window in the middle of the run, the
// two spares at a quarter of the load. A 4-core cpubomb ("crunch") is
// registered as a mobile batch VM homed on front. When the surge hits,
// front's QoS goes under water and the per-host loop wants to pause the
// bomb; the comparison is what the cluster does about it:
//
//   - pausing   — coordinator with migrate=off: gates never open, the
//                 per-host Stay-Away governor pauses/resumes the bomb on
//                 front for the length of the surge;
//   - migration — coordinator with migrate=on: the first violating
//                 period detaches the bomb instead, and the coordinator
//                 re-attaches it on the calmer spare, where it keeps
//                 crunching while front rides out the crowd alone.
//
// Acceptance gate (the PR's headline claim): migration strictly beats
// pausing on BOTH fleet-wide violation periods AND total batch
// core-seconds. `--smoke` shrinks the tail for CI (`ci.sh --cluster`).
//
// When STAYAWAY_BENCH_JSON_DIR is set a BENCH_cluster.json perf record
// is written there.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "harness/fleet.hpp"
#include "obs/metrics.hpp"
#include "trace/trace.hpp"
#include "util/strings.hpp"

namespace stayaway::bench {
namespace {

constexpr double kSpareLoad = 0.25;

harness::ExperimentSpec host_spec(double duration_s, double load,
                                  std::uint64_t seed) {
  harness::ExperimentSpec spec;
  spec.sensitive = harness::SensitiveKind::FlashCrowd;
  spec.batch = harness::BatchKind::None;
  spec.policy = harness::PolicyKind::StayAway;
  spec.duration_s = duration_s;
  spec.seed = seed;
  if (load < 1.0) {
    // Absolute scaling (flash_crowd.hpp): a constant trace IS the load
    // fraction, so the spares idle at a quarter of front's crowd.
    spec.workload = trace::Trace({load}, duration_s);
  }
  return spec;
}

harness::FleetSpec make_fleet(double duration_s, bool migrate) {
  harness::FleetSpec fleet;
  fleet.hosts.push_back({"front", host_spec(duration_s, 1.0, 11)});
  fleet.hosts.push_back({"spare-a", host_spec(duration_s, kSpareLoad, 12)});
  fleet.hosts.push_back({"spare-b", host_spec(duration_s, kSpareLoad, 13)});
  harness::ClusterSpec cluster;
  cluster.config.migrate = migrate;
  cluster.mobile.push_back(
      {"crunch", harness::BatchKind::CpuBomb, "front", 15.0});
  fleet.cluster = std::move(cluster);
  return fleet;
}

struct Totals {
  std::size_t violations = 0;
  double batch_work = 0.0;
  std::size_t migrations = 0;
  std::vector<std::string> events;
};

Totals run_mode(double duration_s, bool migrate) {
  harness::FleetResult result =
      harness::run_fleet(make_fleet(duration_s, migrate));
  Totals t;
  for (const harness::FleetHostResult& host : result.hosts) {
    t.violations += host.result.violation_periods;
    t.batch_work += host.result.batch_cpu_work;
  }
  if (result.cluster.has_value()) {
    t.migrations = result.cluster->migrations;
    t.events = result.cluster->events;
  }
  return t;
}

}  // namespace
}  // namespace stayaway::bench

int main(int argc, char** argv) {
  using namespace stayaway;
  using namespace stayaway::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: bench_cluster [--smoke]\n";
      return 2;
    }
  }
  // The surge window is fixed at 60..120 s; the tail after it is where
  // the migrated bomb's extra progress accumulates.
  const double duration_s = smoke ? 160.0 : 240.0;

  std::cout << "=== bench_cluster: flash crowd on front, 2 calm spares, "
            << "mobile cpubomb ===\n";
  std::cout << "per host: " << duration_s
            << " periods; surge 60..120 s on front\n\n";

  Totals pausing = run_mode(duration_s, false);
  Totals migration = run_mode(duration_s, true);

  std::cout << "mode,violation_periods,batch_cpu_s,migrations\n";
  std::cout << "pausing," << pausing.violations << ","
            << format_double(pausing.batch_work, 1) << ","
            << pausing.migrations << "\n";
  std::cout << "migration," << migration.violations << ","
            << format_double(migration.batch_work, 1) << ","
            << migration.migrations << "\n\n";

  if (!migration.events.empty()) {
    std::cout << "coordinator events (migration mode):\n";
    for (const std::string& event : migration.events) {
      std::cout << "  " << event << "\n";
    }
    std::cout << "\n";
  }

  obs::MetricsRegistry record;
  record.gauge("cluster.pausing.violation_periods")
      .set(static_cast<double>(pausing.violations));
  record.gauge("cluster.pausing.batch_cpu_s").set(pausing.batch_work);
  record.gauge("cluster.migration.violation_periods")
      .set(static_cast<double>(migration.violations));
  record.gauge("cluster.migration.batch_cpu_s").set(migration.batch_work);
  record.gauge("cluster.migration.migrations")
      .set(static_cast<double>(migration.migrations));
  if (obs::write_bench_record("cluster", record)) {
    std::cout << "BENCH_cluster.json written\n";
  }

  bool ok = true;
  if (migration.migrations == 0) {
    std::cout << "FAIL: coordinator never migrated the mobile VM\n";
    ok = false;
  }
  if (migration.violations >= pausing.violations) {
    std::cout << "FAIL: migration violations (" << migration.violations
              << ") not strictly below pausing (" << pausing.violations
              << ")\n";
    ok = false;
  }
  if (migration.batch_work <= pausing.batch_work) {
    std::cout << "FAIL: migration batch work ("
              << format_double(migration.batch_work, 1)
              << " core-s) not strictly above pausing ("
              << format_double(pausing.batch_work, 1) << " core-s)\n";
    ok = false;
  }
  if (!ok) return 1;
  std::cout << "PASS\n";
  return 0;
}
