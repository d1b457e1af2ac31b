#include "util/thread_pool.hpp"

#include "util/check.hpp"

namespace stayaway::util {

ThreadPool::ThreadPool(std::size_t threads) {
  SA_REQUIRE(threads >= 1, "a pool needs at least the calling thread");
  workers_.reserve(threads - 1);
  for (std::size_t slot = 0; slot + 1 < threads; ++slot) {
    workers_.emplace_back([this, slot] { worker_loop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::for_ranges(std::size_t n, const RangeFn& fn) {
  const std::size_t parts = size();
  if (parts == 1 || n < 2) {
    if (n > 0) fn(0, n);
    return;
  }
  SA_CHECK(!dispatching_.exchange(true, std::memory_order_acquire),
           "for_ranges is not reentrant: fn called back into the same pool");
  {
    MutexLock lock(mu_);
    fn_ = &fn;
    n_ = n;
    remaining_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  // The caller owns chunk 0 so a k-thread call never idles the hot loop's
  // own core.
  fn(chunk_begin(0, n, parts), chunk_begin(1, n, parts));
  {
    MutexLock lock(mu_);
    done_cv_.wait(mu_, [this] {
      mu_.assert_held();
      return remaining_ == 0;
    });
    fn_ = nullptr;
  }
  dispatching_.store(false, std::memory_order_release);
}

void ThreadPool::worker_loop(std::size_t slot) {
  std::uint64_t seen = 0;
  for (;;) {
    const RangeFn* fn = nullptr;
    std::size_t n = 0;
    {
      MutexLock lock(mu_);
      work_cv_.wait(mu_, [&] {
        mu_.assert_held();
        return stop_ || generation_ != seen;
      });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
      n = n_;
    }
    const std::size_t parts = workers_.size() + 1;
    const std::size_t chunk = slot + 1;
    std::size_t begin = chunk_begin(chunk, n, parts);
    std::size_t end = chunk_begin(chunk + 1, n, parts);
    if (begin < end) (*fn)(begin, end);
    {
      MutexLock lock(mu_);
      if (--remaining_ == 0) done_cv_.notify_one();
    }
  }
}

void set_hot_path_threads(std::size_t n) {
  SA_REQUIRE(n == 1, "the map->predict kernels are sequential");
}

}  // namespace stayaway::util
