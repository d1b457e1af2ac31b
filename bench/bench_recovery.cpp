// Crash-recovery benchmark (DESIGN.md §17): fleet throughput with 1 of 8
// hosts repeatedly crashing under the supervisor, plus the
// periods-to-reconverge cost of a recovery as the checkpoint cadence
// tightens.
//
// An 8-host fleet runs on a 4-worker pool; host 3 carries a HostCrash
// fault plan. The supervisor traps the crash, restores from the latest
// checkpoint (or cold-starts) and gap-replays up to the failure point, so
// the measured quantities are:
//
//   - aggregate periods/s with and without the crashing host, and their
//     ratio (the recovery overhead the rest of the fleet pays: none —
//     only the crashed member replays);
//   - periods-to-reconverge = gap periods the supervisor replayed before
//     the member rejoined live operation, per checkpoint cadence
//     (cadence 0 = cold restart, replaying from period zero).
//
// Acceptance gate: the 7 healthy hosts plus the crashing one all deliver
// their full period count with zero aborted runs and zero divergences,
// and the crashed fleet keeps at least kMinThroughputRatio of the clean
// fleet's aggregate rate. The ratio floor is a pathology guard, not a
// performance target: a recovery pays a fixed host-rebuild cost that
// dwarfs the microsecond-scale periods at bench durations, so the
// honest signal is the absolute overhead and the reconvergence table.
// `--smoke` shrinks the run for CI (`ci.sh --recovery`).
//
// When STAYAWAY_BENCH_JSON_DIR is set a BENCH_recovery.json perf record
// is written there.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "harness/fleet.hpp"
#include "obs/metrics.hpp"
#include "sim/faults.hpp"
#include "util/strings.hpp"

namespace stayaway::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kHosts = 8;
constexpr std::size_t kCrashHost = 3;
constexpr std::size_t kWorkers = 4;
constexpr double kMinThroughputRatio = 0.02;

harness::ExperimentSpec base_spec(double duration_s) {
  harness::ExperimentSpec spec;
  spec.sensitive = harness::SensitiveKind::VlcStream;
  spec.batch = harness::BatchKind::CpuBomb;
  spec.policy = harness::PolicyKind::StayAway;
  spec.duration_s = duration_s;
  spec.sensitive_start_s = 2.0;
  spec.batch_start_s = 10.0;
  return spec;
}

/// Two crashes: one mid-run, one late, so a single run exercises both a
/// long and a short replay tail.
sim::FaultPlan crash_plan(double duration_s) {
  sim::FaultPlan plan;
  plan.seed = 1;
  for (double at : {duration_s * 0.5, duration_s * 0.85}) {
    sim::FaultSpec f;
    f.kind = sim::FaultKind::HostCrash;
    f.start_s = at;
    f.end_s = at + 1.0;
    f.probability = 1.0;
    plan.faults.push_back(f);
  }
  return plan;
}

harness::FleetSpec make_fleet(double duration_s, bool with_crashes,
                              std::size_t checkpoint_every) {
  harness::FleetSpec fleet = harness::replicate_fleet(
      base_spec(duration_s), kHosts, 4321, kWorkers);
  fleet.supervise = true;
  fleet.checkpoint_every = checkpoint_every;
  if (with_crashes) {
    fleet.hosts[kCrashHost].experiment.faults = crash_plan(duration_s);
  }
  return fleet;
}

struct Measurement {
  double periods_per_s = 0.0;
  harness::FleetResult result;
};

Measurement measure(double duration_s, bool with_crashes,
                    std::size_t checkpoint_every, int reps) {
  Measurement best;
  for (int rep = 0; rep < reps; ++rep) {
    harness::FleetSpec fleet =
        make_fleet(duration_s, with_crashes, checkpoint_every);
    auto start = Clock::now();
    harness::FleetResult result = harness::run_fleet(fleet);
    double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    double periods = static_cast<double>(kHosts) * duration_s;
    double rate = periods / elapsed;
    if (rate > best.periods_per_s) {
      best.periods_per_s = rate;
      best.result = std::move(result);
    }
  }
  return best;
}

/// All hosts delivered their full record stream and only the crashing
/// host saw any supervisor activity. Returns false (and explains) on any
/// aborted or diverged run.
bool check_progress(const harness::FleetResult& result, double duration_s,
                    bool with_crashes) {
  bool ok = true;
  for (std::size_t i = 0; i < result.hosts.size(); ++i) {
    const harness::FleetHostResult& host = result.hosts[i];
    auto periods = static_cast<std::size_t>(duration_s);
    if (host.result.stayaway_records.size() != periods) {
      std::cout << "FAIL: " << host.name << " delivered "
                << host.result.stayaway_records.size() << "/" << periods
                << " periods\n";
      ok = false;
    }
    if (host.recovery.divergences != 0) {
      std::cout << "FAIL: " << host.name << " replay diverged "
                << host.recovery.divergences << " time(s)\n";
      ok = false;
    }
    bool should_fail = with_crashes && i == kCrashHost;
    if (host.recovery.any_failures() != should_fail) {
      std::cout << "FAIL: " << host.name
                << (should_fail ? " saw no crash" : " failed unexpectedly")
                << "\n";
      ok = false;
    }
  }
  return ok;
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
      std::cerr << "usage: bench_recovery [--smoke]\n";
      return 2;
    }
  }
  const double duration_s = smoke ? 30.0 : 60.0;
  const int reps = smoke ? 1 : 3;

  std::cout << "=== bench_recovery: " << kHosts << "-host fleet, host "
            << kCrashHost << " crashing, " << kWorkers << " workers ===\n";
  std::cout << "per host: " << duration_s << " periods; crashes at 50% and "
            << "85% of the run\n\n";

  measure(duration_s, false, 0, 1);  // warm-up, untimed

  Measurement clean = measure(duration_s, false, 0, reps);
  Measurement crashed = measure(duration_s, true, 5, reps);
  double ratio = crashed.periods_per_s / clean.periods_per_s;

  std::cout << "fleet,periods_per_s\n";
  std::cout << "clean," << format_double(clean.periods_per_s, 1) << "\n";
  std::cout << "1-of-" << kHosts << "-crashing,"
            << format_double(crashed.periods_per_s, 1) << "\n";
  std::cout << "throughput ratio: " << format_double(ratio, 2)
            << " (bound: >= " << format_double(kMinThroughputRatio, 2)
            << ")\n\n";

  bool ok = check_progress(clean.result, duration_s, false) &&
            check_progress(crashed.result, duration_s, true);

  // Periods-to-reconverge vs checkpoint cadence: how much history a
  // recovery replays before the member is live again. Cadence 0 is the
  // cold restart (replay everything); tighter cadences shrink the gap.
  std::cout << "checkpoint_every,crashes,gap_periods_replayed,cold_starts\n";
  obs::MetricsRegistry record;
  for (std::size_t cadence : {std::size_t{0}, std::size_t{10}, std::size_t{5},
                              std::size_t{2}}) {
    Measurement m = measure(duration_s, true, cadence, 1);
    const core::RecoveryReport& r = m.result.hosts[kCrashHost].recovery;
    std::cout << cadence << "," << r.crashes << ","
              << r.gap_periods_replayed << "," << r.cold_starts << "\n";
    ok = check_progress(m.result, duration_s, true) && ok;
    record
        .gauge("recovery.cadence" + std::to_string(cadence) +
               ".gap_periods_replayed")
        .set(static_cast<double>(r.gap_periods_replayed));
  }

  record.gauge("recovery.clean_periods_per_s").set(clean.periods_per_s);
  record.gauge("recovery.crashed_periods_per_s").set(crashed.periods_per_s);
  record.gauge("recovery.throughput_ratio").set(ratio);
  if (obs::write_bench_record("recovery", record)) {
    std::cout << "\nBENCH_recovery.json written\n";
  }

  if (ratio < kMinThroughputRatio) {
    std::cout << "FAIL: crashed-fleet throughput ratio "
              << format_double(ratio, 2) << " below the "
              << format_double(kMinThroughputRatio, 2) << " bound\n";
    return 1;
  }
  if (!ok) return 1;
  std::cout << "PASS\n";
  return 0;
}
