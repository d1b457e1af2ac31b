#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/checkpoint.hpp"
#include "core/cluster/coordinator.hpp"
#include "core/cluster/migration.hpp"
#include "core/fleet.hpp"
#include "obs/observer.hpp"

namespace perfbench {
namespace {

namespace harness = stayaway::harness;
namespace core = stayaway::core;
namespace obs = stayaway::obs;
using Clock = std::chrono::steady_clock;

double us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Work the program does between two hooks without a hook of its own,
// noted by the hook that knows it is coming: the supervisor's checkpoint
// save follows a cadence period's on_period hook, and a crash recovery
// calls the benchmark's rebuild callback.
enum GapFlag : unsigned { kSave = 1u, kRecovery = 2u };

/// The traced fleet is driven on one thread, so hooks run strictly one
/// after another: the interval since the previous hook's exit is exactly
/// the work the program did in between.
struct Mark {
  Clock::time_point at{};
  unsigned flags = 0;  // GapFlag work noted during the open interval

  /// Closes the interval ending `now`: its length in µs and its flags.
  std::pair<double, unsigned> take(Clock::time_point now) {
    std::pair<double, unsigned> gap{us(now - at), flags};
    flags = 0;
    return gap;
  }
  void set(Clock::time_point exit, unsigned noted) {
    at = exit;
    flags |= noted;
  }
};

/// What the interval before a period's first tick held besides the tick.
enum class FirstGap : unsigned char { Clean, Start, Save, Recovery };

struct Slot {
  BuiltHost built;
  std::size_t ticks_per_period = 0;
  // run_fleet's per-period accumulation, which the digest compares.
  std::vector<double> qos;
  std::vector<double> utilization;
  std::size_t violation_periods = 0;
  double util_acc = 0.0;
  // Timing.
  std::size_t live_period = 0;
  std::size_t tick_in_period = 0;
  double later_ticks_us = 0.0;
  std::vector<double> first_gap_us;
  std::vector<FirstGap> first_kind;
  std::vector<double> later_ticks_per_period_us;
  std::vector<double> on_period_us;
  double hook_us = 0.0;
  double probe_us = 0.0;
  std::vector<double> save_bytes;
  std::vector<double> save_encode_us;
};

struct CoordinatorTimes {
  std::vector<double> step_us;
  double loop_us = 0.0;  // the lockstep loop between hooks
};

double histogram_sum(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == name) return h.sum;
  }
  return 0.0;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Sum of one per-host metric over every host ("host.<name>.<metric>").
double host_sum(const obs::MetricsSnapshot& snap, std::string_view metric) {
  double acc = 0.0;
  for (const auto& [name, value] : snap.gauges) {
    if (ends_with(name, metric)) acc += value;
  }
  for (const auto& [name, value] : snap.counters) {
    if (ends_with(name, metric)) acc += static_cast<double>(value);
  }
  return acc;
}

double sum(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc;
}

}  // namespace

TracedRun run_traced(const std::string& name, std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  const Workload w = make_workload(name, seed);
  const harness::FleetSpec& fleet = w.fleet;
  if (fleet.workers != 1) {
    throw std::invalid_argument("traced runs drive the fleet on one thread");
  }
  const std::size_t n = fleet.hosts.size();
  const bool label_hosts = n > 1;
  obs::Observer observer;
  observer.set_span_events(false);

  std::vector<Slot> slots(n);
  core::FleetConfig config;
  config.workers = fleet.workers;
  config.checkpoint_every = fleet.checkpoint_every;
  config.watchdog_budget = fleet.watchdog_budget;
  core::FleetController controller(config);
  Mark mark;

  std::unique_ptr<core::cluster::ClusterCoordinator> coordinator;
  if (fleet.cluster.has_value()) {
    coordinator = std::make_unique<core::cluster::ClusterCoordinator>(
        fleet.cluster->config);
  }
  CoordinatorTimes coord_times;

  for (std::size_t i = 0; i < n; ++i) {
    const harness::FleetHostSpec& hs = fleet.hosts[i];
    Slot& slot = slots[i];
    slot.built = build_host(fleet, i);
    if (label_hosts) slot.built.pipeline->set_host_label(hs.name);
    slot.built.pipeline->set_observer(&observer);
    const harness::ExperimentSpec& e = hs.experiment;
    slot.ticks_per_period =
        static_cast<std::size_t>(std::llround(e.period_s / e.tick_s));

    core::FleetController::Member member;
    member.name = hs.name;
    member.host = slot.built.rig.host.get();
    member.pipeline = slot.built.pipeline.get();
    member.ticks_per_period = slot.ticks_per_period;
    member.periods = periods_per_host(fleet, i);
    if (coordinator != nullptr) {
      coordinator->add_host(core::cluster::ClusterCoordinator::HostHooks{
          hs.name, [&slot] { return slot.built.pipeline.get(); },
          [&slot] {
            return static_cast<core::ActuationPort*>(
                &slot.built.pipeline->actuation_port());
          },
          [&slot] {
            return dynamic_cast<core::cluster::MigrationActuator*>(
                slot.built.pipeline->actuator());
          }});
      member.replay_directives = [coord = coordinator.get(),
                                  i](std::size_t q) {
        coord->replay_host_period(i, q);
      };
    }
    if (fleet.supervise ||
        (e.faults.has_value() && e.faults->has_crash_faults())) {
      member.rebuild = [&slot, &fleet, &observer, i, label_hosts, &mark] {
        slot.built.pipeline.reset();
        slot.built = build_host(fleet, i);
        if (label_hosts) {
          slot.built.pipeline->set_host_label(fleet.hosts[i].name);
        }
        slot.built.pipeline->set_observer(&observer);
        mark.flags |= kRecovery;
        return core::FleetController::Member::Rebuilt{
            slot.built.rig.host.get(), slot.built.pipeline.get()};
      };
      member.on_reset = [&slot] { slot.util_acc = 0.0; };
    }
    member.on_tick = [&slot, &mark] {
      const Clock::time_point now = Clock::now();
      auto [gap, flags] = mark.take(now);
      if (slot.tick_in_period == 0) {
        FirstGap kind = (flags & kRecovery) != 0 ? FirstGap::Recovery
                        : (flags & kSave) != 0   ? FirstGap::Save
                        : slot.live_period == 0  ? FirstGap::Start
                                                 : FirstGap::Clean;
        slot.first_gap_us.push_back(gap);
        slot.first_kind.push_back(kind);
      } else {
        slot.later_ticks_us += gap;
      }
      ++slot.tick_in_period;
      slot.util_acc += slot.built.rig.host->instantaneous_cpu_utilization();
      const Clock::time_point end = Clock::now();
      slot.hook_us += us(end - now);
      mark.set(end, 0);
    };
    member.on_period = [&slot, &fleet, &mark](const core::PeriodRecord&) {
      const Clock::time_point now = Clock::now();
      slot.on_period_us.push_back(mark.take(now).first);
      slot.later_ticks_per_period_us.push_back(slot.later_ticks_us);
      slot.later_ticks_us = 0.0;
      slot.tick_in_period = 0;

      const stayaway::sim::SimHost& host = *slot.built.rig.host;
      const harness::HostRig& rig = slot.built.rig;
      bool up = host.vm(rig.sensitive_id).present(host.now());
      slot.qos.push_back(up ? rig.probe->normalized_qos() : 1.0);
      if (up && rig.probe->violated()) ++slot.violation_periods;
      slot.utilization.push_back(slot.util_acc /
                                 static_cast<double>(slot.ticks_per_period));
      slot.util_acc = 0.0;

      unsigned flags = 0;
      double probe_us = 0.0;
      const std::size_t every = fleet.checkpoint_every;
      if (every > 0 && (slot.live_period + 1) % every == 0 &&
          slot.built.pipeline->checkpointable()) {
        // The supervisor saves exactly this state right after the hook
        // returns; encoding it here too gives the save's size and cost
        // directly (the probe's own time is its own layer).
        const Clock::time_point p0 = Clock::now();
        const std::string blob = core::encode_checkpoint(*slot.built.pipeline);
        probe_us = us(Clock::now() - p0);
        slot.save_bytes.push_back(static_cast<double>(blob.size()));
        slot.save_encode_us.push_back(probe_us);
        slot.probe_us += probe_us;
        flags |= kSave;
      }
      ++slot.live_period;
      const Clock::time_point end = Clock::now();
      slot.hook_us += us(end - now) - probe_us;
      mark.set(end, flags);
    };
    controller.add_member(std::move(member));
  }

  if (coordinator != nullptr) {
    const harness::ClusterSpec& cluster = *fleet.cluster;
    for (std::size_t j = 0; j < cluster.mobile.size(); ++j) {
      std::vector<stayaway::sim::VmId> ids;
      std::size_t home = n;
      for (std::size_t i = 0; i < n; ++i) {
        ids.push_back(slots[i].built.rig.twin_ids[j]);
        if (fleet.hosts[i].name == cluster.mobile[j].home) home = i;
      }
      coordinator->add_mobile_vm(cluster.mobile[j].name, std::move(ids), home);
    }
    const double period_s = fleet.hosts.front().experiment.period_s;
    for (std::size_t k = 0; k < cluster.admissions.size(); ++k) {
      std::vector<stayaway::sim::VmId> ids;
      for (const Slot& slot : slots) {
        ids.push_back(slot.built.rig.twin_ids[cluster.mobile.size() + k]);
      }
      coordinator->add_admission(
          cluster.admissions[k].name, std::move(ids),
          static_cast<std::size_t>(
              std::llround(cluster.admissions[k].arrival_s / period_s)));
    }
    controller.set_period_hook([coord = coordinator.get(), &mark,
                                &coord_times](std::size_t p) {
      const Clock::time_point now = Clock::now();
      coord_times.loop_us += mark.take(now).first;
      coord->step(p);
      const Clock::time_point end = Clock::now();
      coord_times.step_us.push_back(us(end - now));
      mark.set(end, 0);
    });
  }

  const Clock::time_point t1 = Clock::now();
  mark.at = t1;
  controller.run();
  const Clock::time_point t2 = Clock::now();

  // The fields of run_fleet's result that digest() reads.
  harness::FleetResult result;
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    const harness::HostRig& rig = slot.built.rig;
    harness::FleetHostResult host;
    host.name = fleet.hosts[i].name;
    harness::ExperimentResult& r = host.result;
    r.stayaway_records = slot.built.pipeline->records();
    r.violation_periods = slot.violation_periods;
    if (!slot.qos.empty()) {
      double qacc = 0.0;
      double uacc = 0.0;
      for (std::size_t j = 0; j < slot.qos.size(); ++j) {
        qacc += slot.qos[j];
        uacc += slot.utilization[j];
      }
      r.avg_qos = qacc / static_cast<double>(slot.qos.size());
      r.avg_utilization = uacc / static_cast<double>(slot.qos.size());
    }
    r.sensitive_cpu_work = rig.host->vm(rig.sensitive_id).cpu_work_done();
    for (stayaway::sim::VmId id : rig.batch_ids) {
      r.batch_cpu_work += rig.host->vm(id).cpu_work_done();
    }
    host.recovery = controller.members()[i].recovery;
    result.hosts.push_back(std::move(host));
  }
  if (coordinator != nullptr) {
    harness::ClusterReport report;
    report.migrations = coordinator->migrations();
    report.admitted = coordinator->admissions_accepted();
    report.rejected = coordinator->admissions_rejected();
    report.queued = coordinator->admissions_queued();
    report.events = coordinator->events();
    result.cluster = std::move(report);
  }
  const Clock::time_point t3 = Clock::now();
  TracedRun out;
  out.digest = digest(result);

  // --- Attribution. A first tick's gap also holds whatever ran between
  // the previous hook and the tick (a checkpoint save, a recovery, pool
  // dispatch); the tick itself is taken to cost what a clean first tick
  // costs (their median), and the rest of the gap goes to the layer the
  // flag names.
  std::vector<double> clean_first;
  for (const Slot& slot : slots) {
    for (std::size_t k = 0; k < slot.first_gap_us.size(); ++k) {
      if (slot.first_kind[k] == FirstGap::Clean) {
        clean_first.push_back(slot.first_gap_us[k]);
      }
    }
  }
  const double tick_baseline = clean_first.empty() ? 0.0 : median(clean_first);
  double ticks_us = 0.0;
  double on_period_us = 0.0;
  double save_us = 0.0;
  double recovery_us = 0.0;
  double dispatch_us = 0.0;
  double hooks_us = 0.0;
  double probe_us = 0.0;
  std::vector<double> tick_per_period_us;
  std::vector<double> all_on_period_us;
  std::vector<double> save_bytes;
  std::vector<double> save_encode_us;
  for (const Slot& slot : slots) {
    for (std::size_t k = 0; k < slot.first_gap_us.size(); ++k) {
      const double gap = slot.first_gap_us[k];
      const double tick = slot.first_kind[k] == FirstGap::Clean
                              ? gap
                              : std::min(gap, tick_baseline);
      const double excess = gap - tick;
      switch (slot.first_kind[k]) {
        case FirstGap::Clean:
          break;
        case FirstGap::Start:
          dispatch_us += excess;
          break;
        case FirstGap::Save:
          save_us += excess;
          break;
        case FirstGap::Recovery:
          recovery_us += excess;
          break;
      }
      const double later = k < slot.later_ticks_per_period_us.size()
                               ? slot.later_ticks_per_period_us[k]
                               : 0.0;
      ticks_us += tick + later;
      tick_per_period_us.push_back(tick + later);
    }
    on_period_us += sum(slot.on_period_us);
    all_on_period_us.insert(all_on_period_us.end(), slot.on_period_us.begin(),
                            slot.on_period_us.end());
    hooks_us += slot.hook_us;
    probe_us += slot.probe_us;
    save_bytes.insert(save_bytes.end(), slot.save_bytes.begin(),
                      slot.save_bytes.end());
    save_encode_us.insert(save_encode_us.end(), slot.save_encode_us.begin(),
                          slot.save_encode_us.end());
  }

  const double wall_s = std::chrono::duration<double>(t3 - t0).count();
  LayerTable table(wall_s);
  auto run_layer = [&](const char* layer, double thread_us) {
    table.add(layer, thread_us * 1e-6);
  };
  table.add("trace.generate", w.trace_generate_us * 1e-6);
  table.add("harness.setup", std::chrono::duration<double>(t1 - t0).count() -
                                 w.trace_generate_us * 1e-6);
  run_layer("sim.ticks", ticks_us);
  run_layer("pipeline.on_period", on_period_us);
  run_layer("checkpoint.save", save_us);
  run_layer("supervisor.recovery", recovery_us);
  run_layer("cluster.step", sum(coord_times.step_us));
  run_layer("fleet.dispatch", dispatch_us);
  run_layer("fleet.loop", coord_times.loop_us);
  run_layer("harness.hooks", hooks_us);
  run_layer("obs.probe", probe_us);
  table.add("harness.extract", std::chrono::duration<double>(t3 - t2).count());
  out.layers = table;

  // --- Per-layer metrics.
  auto& m = out.metrics;
  const Summary ticks = summarize(tick_per_period_us);
  const Summary periods = summarize(all_on_period_us);
  m.push_back({"sim.tick_us.p50", ticks.p50, "us"});
  m.push_back({"sim.tick_share", table.share("sim.ticks"), "ratio"});
  m.push_back({"pipeline.period_us.p50", periods.p50, "us"});
  m.push_back({"pipeline.period_us.p99", periods.p99, "us"});
  m.push_back({"pipeline.period_us.n", static_cast<double>(periods.n), "count"});
  m.push_back({"pipeline.share", table.share("pipeline.on_period"), "ratio"});

  const obs::MetricsSnapshot snap = observer.metrics().snapshot();
  const double span_period = histogram_sum(snap, "span.period.us");
  for (const char* stage : {"sample", "embed", "predict", "act"}) {
    const double s = histogram_sum(snap, std::string("span.") + stage + ".us");
    m.push_back({std::string("stage.") + stage + "_share",
                   span_period > 0.0 ? s / span_period : 0.0, "ratio"});
  }

  std::vector<double> reps;
  for (const Slot& slot : slots) {
    const core::StayAwayMapper* mapper = slot.built.pipeline->stay_away_mapper();
    reps.push_back(static_cast<double>(mapper->representatives().size()));
  }
  m.push_back({"mds.representatives.p50", median(reps), "count"});
  m.push_back({"mds.representatives.max",
                 *std::max_element(reps.begin(), reps.end()), "count"});
  m.push_back({"mds.embed_iterations",
                 host_sum(snap, "embedder.smacof_iterations_total"), "count"});
  m.push_back({"mds.embed_rebuilds",
                 host_sum(snap, "embedder.matrix_rebuilds_total"), "count"});
  const double loop_periods = host_sum(snap, "loop.periods");
  m.push_back({"mapper.new_rep_ratio",
                 loop_periods > 0.0
                     ? host_sum(snap, "loop.new_representatives") / loop_periods
                     : 0.0, "ratio"});

  core::RecoveryReport totals;
  for (const harness::FleetHostResult& host : result.hosts) {
    totals.checkpoints_saved += host.recovery.checkpoints_saved;
    totals.recoveries += host.recovery.recoveries;
    totals.gap_periods_replayed += host.recovery.gap_periods_replayed;
    totals.divergences += host.recovery.divergences;
  }
  const double encoded_bytes = sum(save_bytes);
  const double encode_us = sum(save_encode_us);
  m.push_back({"checkpoint.saves",
                 static_cast<double>(totals.checkpoints_saved), "count"});
  m.push_back({"checkpoint.bytes.mean",
                 save_bytes.empty() ? 0.0 : summarize(save_bytes).mean, "bytes"});
  m.push_back({"checkpoint.encode_us.mean",
                 save_encode_us.empty() ? 0.0 : summarize(save_encode_us).mean, "us"});
  m.push_back({"checkpoint.encode_mb_per_s",
                 encode_us > 0.0 ? encoded_bytes / encode_us : 0.0, "MB/s"});
  double restore_us = 0.0;
  if (fleet.checkpoint_every > 0) {
    // Restore cost at the end-of-run history length, measured on a fresh
    // pipeline outside the traced wall.
    const std::size_t h = w.crash_host.value_or(0);
    const std::string blob = core::encode_checkpoint(*slots[h].built.pipeline);
    BuiltHost fresh = build_host(fleet, h);
    const Clock::time_point r0 = Clock::now();
    core::restore_checkpoint(*fresh.pipeline, blob);
    restore_us = us(Clock::now() - r0);
  }
  m.push_back({"checkpoint.restore_us", restore_us, "us"});
  m.push_back({"checkpoint.share", table.share("checkpoint.save"), "ratio"});

  m.push_back({"supervisor.recoveries",
                 static_cast<double>(totals.recoveries), "count"});
  m.push_back({"supervisor.gap_periods_replayed",
                 static_cast<double>(totals.gap_periods_replayed), "count"});
  m.push_back({"supervisor.recover_us",
                 totals.recoveries > 0
                     ? recovery_us / static_cast<double>(totals.recoveries)
                     : 0.0, "us"});
  m.push_back({"supervisor.divergences",
                 static_cast<double>(totals.divergences), "count"});

  m.push_back({"cluster.step_us.p50", coord_times.step_us.empty()
                                            ? 0.0
                                            : median(coord_times.step_us), "us"});
  m.push_back({"cluster.share", table.share("cluster.step"), "ratio"});
  const harness::ClusterReport none;
  const harness::ClusterReport& cr =
      result.cluster.has_value() ? *result.cluster : none;
  m.push_back({"cluster.migrations", static_cast<double>(cr.migrations), "count"});
  m.push_back({"cluster.admitted", static_cast<double>(cr.admitted), "count"});
  m.push_back({"cluster.rejected", static_cast<double>(cr.rejected), "count"});
  m.push_back({"layers.unattributed_share",
                 wall_s > 0.0 ? table.remainder() / wall_s : 0.0, "ratio"});
  return out;
}

}  // namespace perfbench
