// Proportional-share contention resolution.
//
// Rates (CPU, memory bandwidth, disk, network) are shared proportionally
// to demand when oversubscribed — the fair-share behaviour of CFS, the
// memory bus and block/network schedulers. Memory capacity is different:
// demand beyond physical memory forces swapping, and a VM with swapped
// pages pays a multiplicative progress penalty (the cliff §7.2 relies on).
#pragma once

#include <vector>

#include "sim/resource.hpp"

namespace stayaway::sim {

/// Working memory of resolve_contention, owned by the caller so a host
/// reuses it every tick. Nothing in it carries over between calls.
struct ContentionScratch {
  /// Per VM: no longer hungry in the current water-filling pass.
  std::vector<char> satisfied;
};

/// Resolves one tick of contention. demands[i] describes VM i; out is
/// resized to match and every entry is fully overwritten, so a reused
/// vector keeps no stale state. Zero-demand entries receive zero and
/// progress 1. Once out and scratch have grown to the VM count, a call
/// allocates nothing.
void resolve_contention(const HostSpec& host,
                        const std::vector<ResourceDemand>& demands,
                        std::vector<Allocation>& out,
                        ContentionScratch& scratch);

}  // namespace stayaway::sim
