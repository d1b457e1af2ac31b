#include "checks.hpp"

#include <cmath>

#include "stats.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace harness = stayaway::harness;
using stayaway::format_double_exact;

namespace {

/// Every field core::write_period_record serializes, in its order, as raw
/// bytes: as exact as the checkpoint encoding and far cheaper, so every
/// timed repetition can afford it.
void digest_record(Digest& d, const stayaway::core::PeriodRecord& rec) {
  d.f64(rec.time);
  d.u64(static_cast<std::uint64_t>(rec.mode));
  d.f64(rec.state.x);
  d.f64(rec.state.y);
  d.u64(rec.representative);
  d.u64(static_cast<std::uint64_t>(rec.new_representative) |
        static_cast<std::uint64_t>(rec.violation_observed) << 1 |
        static_cast<std::uint64_t>(rec.violation_predicted) << 2 |
        static_cast<std::uint64_t>(rec.model_ready) << 3 |
        static_cast<std::uint64_t>(rec.batch_paused_after) << 4 |
        static_cast<std::uint64_t>(rec.qos_visible) << 5 |
        static_cast<std::uint64_t>(rec.actuation_pending) << 6);
  d.u64(static_cast<std::uint64_t>(rec.action));
  d.f64(rec.stress);
  d.f64(rec.beta);
  d.u64(static_cast<std::uint64_t>(rec.degradation));
  d.u64(rec.quarantined_dims);
  d.u64(rec.max_staleness);
  d.u64(rec.actuation_retries);
  d.u64(rec.samples_ingested);
  d.u64(rec.late_samples);
  d.u64(rec.duplicate_samples);
  d.u64(rec.overflow_drops);
  d.u64(rec.migrations_out);
  d.u64(rec.migrations_in);
}

}  // namespace

std::string digest(const harness::FleetResult& result) {
  Digest d;
  for (const harness::FleetHostResult& host : result.hosts) {
    const harness::ExperimentResult& r = host.result;
    d.line("host " + host.name);
    for (const stayaway::core::PeriodRecord& rec : r.stayaway_records) {
      digest_record(d, rec);
    }
    d.line("violation_periods " + std::to_string(r.violation_periods) +
           " batch_cpu_work " + format_double_exact(r.batch_cpu_work) +
           " sensitive_cpu_work " + format_double_exact(r.sensitive_cpu_work) +
           " avg_qos " + format_double_exact(r.avg_qos) +
           " avg_utilization " + format_double_exact(r.avg_utilization));
    const stayaway::core::RecoveryReport& rr = host.recovery;
    d.line("crashes " + std::to_string(rr.crashes) + " recoveries " +
           std::to_string(rr.recoveries) + " checkpoints_saved " +
           std::to_string(rr.checkpoints_saved) + " gap_periods_replayed " +
           std::to_string(rr.gap_periods_replayed) + " divergences " +
           std::to_string(rr.divergences));
  }
  if (result.cluster.has_value()) {
    const harness::ClusterReport& c = *result.cluster;
    d.line("cluster migrations " + std::to_string(c.migrations) +
           " admitted " + std::to_string(c.admitted) + " rejected " +
           std::to_string(c.rejected) + " queued " + std::to_string(c.queued));
    for (const std::string& event : c.events) d.line(event);
  }
  return d.hex();
}

std::vector<std::string> check_outputs(const Workload& workload,
                                       const harness::FleetResult& result) {
  std::vector<std::string> problems;
  const harness::FleetSpec& fleet = workload.fleet;
  if (result.hosts.size() != fleet.hosts.size()) {
    problems.push_back("host count " + std::to_string(result.hosts.size()) +
                       " != " + std::to_string(fleet.hosts.size()));
    return problems;
  }
  for (std::size_t i = 0; i < result.hosts.size(); ++i) {
    const harness::FleetHostResult& host = result.hosts[i];
    const std::size_t periods = periods_per_host(fleet, i);
    const std::size_t delivered = host.result.stayaway_records.size();
    if (delivered != periods) {
      problems.push_back(host.name + " delivered " + std::to_string(delivered) +
                         "/" + std::to_string(periods) + " periods");
    }
    if (host.result.violation_periods > periods ||
        !std::isfinite(host.result.avg_qos) ||
        !std::isfinite(host.result.batch_cpu_work)) {
      problems.push_back(host.name + " has out-of-range aggregates");
    }
    const stayaway::core::RecoveryReport& rr = host.recovery;
    if (rr.divergences != 0) {
      problems.push_back(host.name + " gap replay diverged " +
                         std::to_string(rr.divergences) + " time(s)");
    }
    if (workload.crash_host == i) {
      if (rr.crashes != workload.crashes ||
          rr.recoveries != workload.crashes) {
        problems.push_back(host.name + " crashed " +
                           std::to_string(rr.crashes) + " and recovered " +
                           std::to_string(rr.recoveries) + " times, expected " +
                           std::to_string(workload.crashes));
      }
    } else if (rr.any_failures()) {
      problems.push_back(host.name + " failed without an injected crash");
    }
  }
  if (result.cluster.has_value() != fleet.cluster.has_value()) {
    problems.push_back("cluster report presence does not match the spec");
  } else if (result.cluster.has_value()) {
    const harness::ClusterReport& c = *result.cluster;
    if (c.admitted + c.rejected + c.queued != fleet.cluster->admissions.size()) {
      problems.push_back("cluster admissions do not add up");
    }
  }
  return problems;
}

}  // namespace perfbench
