// The traced run: the same fleet run_fleet would drive, wired here from
// public calls (build_host_rig, HostPipeline, FleetController,
// ClusterCoordinator) so benchmark-owned hooks can timestamp every layer
// boundary. Nothing inside the program is instrumented beyond its own
// passive observer; the run's digest must equal the untraced run's.
#pragma once

#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

struct TracedRun {
  /// checks.hpp digest() of the run's outputs.
  std::string digest;
  /// Layer times in wall-clock seconds; work on a worker pool is divided
  /// by the worker count, so the table sums to the traced wall.
  LayerTable layers{0.0};
  /// Per-layer metrics the trace measures.
  std::vector<Metric> metrics;
};

/// Generates workload `name` from `seed` and drives it once, traced.
TracedRun run_traced(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
