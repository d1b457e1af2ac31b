// FleetController — drives N independent per-host pipelines to
// completion, optionally concurrently on a private worker pool
// (DESIGN.md §13). Hosts never share mutable state: each member owns its
// simulated host, pipeline, RNG streams (split from the fleet seed via
// fleet_host_seed) and degradation machinery, so a fleet of one host
// emits exactly the PeriodRecord stream its pipeline would emit driven
// alone (golden digests in tests/test_fleet.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline.hpp"

namespace stayaway::core {

/// Deterministic per-host seed split: avalanches the fleet base seed and
/// the host index through independent splitmix64 finalizer rounds before
/// combining, so sibling hosts get decorrelated RNG streams while host
/// i's stream is reproducible across runs and fleet sizes. The earlier
/// additive mixer (`finalize(base + gamma * (i + 1))`) made
/// fleet_host_seed(base + gamma, i) collide with fleet_host_seed(base,
/// i + 1) — two fleets whose base seeds differed by the golden gamma
/// shared shifted host streams; the two-round mix has no such lattice
/// (pinned by the independence tests in tests/test_fleet.cpp).
std::uint64_t fleet_host_seed(std::uint64_t base, std::size_t host_index);

/// Passive per-period recorder port (DESIGN.md §14): the fleet controller
/// hands every freshly emitted PeriodRecord to the attached sink, tagged
/// with the owning member's name. Implementations must be thread-safe —
/// with workers > 1 the controller invokes the sink concurrently from
/// different member drivers (always in period order per host). Sinks are
/// strictly observational: they must not touch hosts or pipelines.
class PeriodSink {
 public:
  virtual ~PeriodSink() = default;
  virtual void record_period(const std::string& host,
                             const PeriodRecord& rec) = 0;
};

/// What the supervisor did for one member (DESIGN.md §17). All counters
/// are lifetime totals over the member's run.
struct RecoveryReport {
  std::size_t crashes = 0;           // HostCrash signals handled
  std::size_t stage_throws = 0;      // StageThrow exceptions trapped
  std::size_t stalls = 0;            // stalled attempts retried in place
  std::size_t watchdog_trips = 0;    // stalls escalated past the budget
  std::size_t recoveries = 0;        // completed warm/cold recoveries
  std::size_t corrupt_checkpoints_dropped = 0;
  std::size_t cold_starts = 0;       // recoveries with no usable checkpoint
  std::size_t checkpoints_saved = 0;
  std::size_t gap_periods_replayed = 0;
  /// Replayed records that differed from the crashed run's history — the
  /// determinism guarantee says this stays zero; the fuzzer's
  /// checkpoint-divergence detector fails a run on any other value.
  std::size_t divergences = 0;

  bool operator==(const RecoveryReport&) const = default;

  bool any_failures() const {
    return crashes + stage_throws + stalls + watchdog_trips +
               corrupt_checkpoints_dropped >
           0;
  }
};

class FleetController {
 public:
  /// One host's slot in the fleet. The host and pipeline are borrowed
  /// and must outlive the controller.
  struct Member {
    std::string name;
    sim::SimHost* host = nullptr;
    HostPipeline* pipeline = nullptr;
    /// Simulation ticks advanced before each control period.
    std::size_t ticks_per_period = 10;
    /// Control periods to drive this member for.
    std::size_t periods = 0;
    /// Optional per-tick hook (series accumulation); called after every
    /// host tick, on the worker thread driving this member.
    std::function<void()> on_tick;
    /// Optional per-period hook; called with the fresh record, on the
    /// worker thread driving this member.
    std::function<void(const PeriodRecord&)> on_period;

    // --- Supervision (DESIGN.md §17). --------------------------------
    /// Fresh host + pipeline produced by a rebuild.
    struct Rebuilt {
      sim::SimHost* host = nullptr;
      HostPipeline* pipeline = nullptr;
    };
    /// Setting this enables the crash supervisor for the member. The
    /// callback must tear down and reconstruct the member's host and
    /// pipeline from scratch — same wiring, same fault plan, zero
    /// periods run — and return the fresh pointers; the supervisor then
    /// restores the newest usable checkpoint and replays the gap.
    std::function<Rebuilt()> rebuild;
    /// Optional: invoked during recovery, before the failed period's
    /// ticks re-run, to clear per-period accumulators the on_tick hook
    /// fills (the crashed attempt may already have accumulated them).
    std::function<void()> on_reset;
    /// Optional (cluster mode, DESIGN.md §18): re-applies the cluster
    /// coordinator's recorded boundary directives for the given period
    /// against this member — attaches, migration gate, incoming note.
    /// Called by the supervisor once per gap-replay period (and for the
    /// failed period itself) before that period's ticks re-run, so a
    /// recovered member reproduces coordinated decisions byte for byte.
    std::function<void(std::size_t)> replay_directives;
    /// Written by the supervisor while driving; read the totals after
    /// run().
    RecoveryReport recovery;
  };

  explicit FleetController(FleetConfig config);

  /// Member names must be unique and non-empty.
  void add_member(Member member);
  std::size_t size() const { return members_.size(); }
  /// Post-run inspection (recovery reports, final host/pipeline views).
  const std::vector<Member>& members() const { return members_; }

  /// Attaches a passive per-period recorder (may be null to detach). The
  /// sink is borrowed and must outlive run(); it observes every record
  /// after the member's own on_period hook.
  void set_recorder(PeriodSink* recorder) { recorder_ = recorder; }

  /// Installs a fleet-period hook (cluster mode, DESIGN.md §18): run()
  /// then drives all members in lockstep — sequentially, one shared
  /// period at a time — and invokes the hook between periods (after
  /// every member finished period p, except the last). All members must
  /// share the same period count. The hook may mutate hosts through
  /// their actuation ports (the coordinator's attach path) but must not
  /// drive pipelines itself. Null restores independent driving.
  void set_period_hook(std::function<void(std::size_t)> hook) {
    period_hook_ = std::move(hook);
  }

  /// Drives every member for its configured periods on a pool of
  /// min(config.workers, members) threads; a pool of one runs inline on
  /// the caller. Whatever the worker count, every member runs to its end
  /// or to its own failure: exceptions from member loops are captured
  /// per member, and the first one in member order is rethrown after
  /// every member ran. With a period hook installed, members run in
  /// lockstep instead (workers are ignored; the coordinated fleet is
  /// sequential by construction so coordinator decisions are
  /// deterministic) and the first failure stops the fleet.
  void run();

 private:
  void drive(Member& member) const;
  /// Drives period `p` of one member: ticks, on_period, hooks, recorder.
  /// A supervised member (one with a rebuild callback) also gets the
  /// crash trap, the stall watchdog, recovery and the end-of-period
  /// checkpoint cadence; `checkpoints` spans the member's whole run
  /// (newest last, last two kept) and stays empty for any other member.
  void drive_period(Member& member, std::size_t p,
                    std::vector<std::string>& checkpoints) const;
  /// Lockstep driver behind set_period_hook().
  void run_lockstep();
  /// Rebuilds the member, warm-starts it from the newest usable
  /// checkpoint (corrupt ones are dropped for good; none left = cold
  /// start), masks the handled fault behind the crash horizon and
  /// silently replays up to `period` — leaving the member exactly where
  /// the crashed run stood when period `period`'s ticks were about to
  /// run.
  void recover(Member& member, std::vector<std::string>& checkpoints,
               std::size_t period, double fail_time) const;

  // Lock-free by partitioning, not by accident (DESIGN.md §16): run()
  // hands each worker a disjoint slice of members_, every per-host
  // mutable thing (host, pipeline, hooks) hangs off the Member, and the
  // controller itself is immutable while workers run. Cross-host
  // aggregation goes through recorder_, which owns its own lock
  // (replay::RunRecorder). Adding controller-level mutable state shared
  // across workers would need a util::Mutex plus SA_GUARDED_BY here.
  FleetConfig config_;
  std::vector<Member> members_;
  PeriodSink* recorder_ = nullptr;
  std::function<void(std::size_t)> period_hook_;
};

}  // namespace stayaway::core
