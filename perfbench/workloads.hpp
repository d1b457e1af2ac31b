// The benchmark's three workloads, generated from the workload seed, and
// the per-host construction (rig + pipeline) that setup timing and the
// traced run share. README.md records why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "harness/fleet.hpp"
#include "harness/rig.hpp"

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 1;

/// A benchmark seed names a fixed set of workload instances; instance k
/// of `count` is generated from seed * count + k, so two seeds never share
/// one. A run cycles through all of them, so its QoS totals and rates rest
/// on many draws of the inputs instead of one.
inline std::uint64_t instance_seed(std::uint64_t seed, std::size_t instance,
                                   std::size_t count) {
  return seed * count + instance;
}

/// One workload instance: the fleet run_fleet receives plus what the
/// output checks expect of it.
struct Workload {
  stayaway::harness::FleetSpec fleet;
  /// Host index carrying the HostCrash faults, and how many it carries.
  std::optional<std::size_t> crash_host;
  std::size_t crashes = 0;
  /// Worker count of the untimed pool run that checks the fleet gives
  /// the same outputs on a worker pool (0: no such check).
  std::size_t pool_workers = 0;
  /// Microseconds spent generating the workload traces.
  double trace_generate_us = 0.0;
};

const std::vector<std::string>& workload_names();

/// Instances one run of workload `name` cycles through.
std::size_t instances_per_run(const std::string& name);

/// Builds workload `name` from `seed`; the same seed gives the same
/// fleet. Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Live control periods of one host in this fleet.
std::size_t periods_per_host(const stayaway::harness::FleetSpec& fleet,
                             std::size_t host);

/// One host's simulated machine and Stay-Away pipeline, wired the way
/// run_fleet wires them (twins, fault plan, migration decorator).
struct BuiltHost {
  stayaway::harness::HostRig rig;
  std::unique_ptr<stayaway::core::HostPipeline> pipeline;
};

/// Time split of one build_host call.
struct BuildTimes {
  double rig_us = 0.0;
  double pipeline_us = 0.0;
};

BuiltHost build_host(const stayaway::harness::FleetSpec& fleet,
                     std::size_t host, BuildTimes* times = nullptr);

}  // namespace perfbench
