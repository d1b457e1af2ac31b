// Small worker pool that drives fleet members: core/fleet.cpp splits the
// member index range across the pool's threads and each thread drives its
// members through the whole run. Host-level parallelism is the one
// concurrency axis; the map->predict kernels (distance matrices, SMACOF,
// the nearest-representative scan) run sequentially.
//
// Design constraints, in order:
//   1. Determinism. With 1 thread everything runs inline on the caller.
//      With k >= 2 threads the work is split into contiguous index ranges
//      whose *values* never depend on thread scheduling — only on the
//      range boundaries — so repeated runs agree.
//   2. Reuse. Workers are parked on a condition variable between calls
//      instead of being spawned per call.
//   3. No dependencies. Plain <thread>/<condition_variable>.
//
// Range functions must not throw: an exception on a worker thread would
// terminate the process. The fleet captures each member's exception and
// rethrows it after the section ends.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace stayaway::util {

class ThreadPool {
 public:
  /// threads: total parallelism including the calling thread, >= 1.
  /// `ThreadPool(1)` spawns no workers and runs everything inline.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the calling thread).
  std::size_t size() const { return workers_.size() + 1; }

  using RangeFn = std::function<void(std::size_t begin, std::size_t end)>;

  /// Splits [0, n) into size() contiguous chunks and runs fn on each
  /// concurrently (the caller executes chunk 0). Blocks until every chunk
  /// finished. With size() == 1 this is exactly fn(0, n) on the caller.
  /// Not reentrant: fn must not call back into the same pool (checked —
  /// the alternative is a silent deadlock).
  void for_ranges(std::size_t n, const RangeFn& fn);

 private:
  void worker_loop(std::size_t slot);
  static std::size_t chunk_begin(std::size_t chunk, std::size_t n,
                                 std::size_t parts) {
    return chunk * n / parts;
  }

  // sa-lint: unguarded(filled in the constructor before any dispatch and
  // joined in the destructor; workers read its size only after a
  // generation handshake through mu_ established happens-before)
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::uint64_t generation_ SA_GUARDED_BY(mu_) = 0;
  std::size_t remaining_ SA_GUARDED_BY(mu_) = 0;
  const RangeFn* fn_ SA_GUARDED_BY(mu_) = nullptr;
  std::size_t n_ SA_GUARDED_BY(mu_) = 0;
  bool stop_ SA_GUARDED_BY(mu_) = false;
  std::atomic<bool> dispatching_{false};  // reentrancy guard for for_ranges
};

/// Exists only for perfbench/wholerun.cpp, which calls
/// set_hot_path_threads(1). The map->predict kernels are sequential, so 1
/// is the only value accepted and the call does nothing.
void set_hot_path_threads(std::size_t n);

}  // namespace stayaway::util
