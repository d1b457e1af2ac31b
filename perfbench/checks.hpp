// Output checks on a finished fleet run: the digest every run of one
// workload instance must reproduce, and the invariants any correct run
// satisfies whatever its seed.
#pragma once

#include <string>
#include <vector>

#include "harness/fleet.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Hex FNV-1a digest of every host's PeriodRecord stream (every field the
/// checkpoint record codec writes), its ExperimentResult aggregates
/// (violation periods, batch and sensitive CPU work, average QoS and
/// utilization), its supervisor counters and the cluster report with its
/// event log. Reads only those fields, so a
/// traced run can fill just them and still compare equal.
std::string digest(const stayaway::harness::FleetResult& result);

/// Problems found in `result` as one line each (empty = run is correct):
/// every host delivered all its periods, gap replays never diverged,
/// only the crashing host saw failures and it recovered from each crash,
/// and every admission was decided or still queued.
std::vector<std::string> check_outputs(
    const Workload& workload, const stayaway::harness::FleetResult& result);

}  // namespace perfbench
