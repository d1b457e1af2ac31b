#include "obs/observer.hpp"

#include <string>

namespace stayaway::obs {

Span& Span::operator=(Span&& o) noexcept {
  close();
  obs_ = o.obs_;
  name_ = o.name_;
  sim_time_ = o.sim_time_;
  start_ = o.start_;
  o.obs_ = nullptr;
  return *this;
}

void Span::close() {
  if (obs_ == nullptr) return;
  auto elapsed = std::chrono::steady_clock::now() - start_;
  double us =
      std::chrono::duration<double, std::micro>(elapsed).count();
  obs_->record_span(name_, sim_time_, us);
  obs_ = nullptr;
}

Histogram Observer::span_histogram(const char* name) {
  std::size_t n = span_slot_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    if (span_slots_[i].name == name) return span_slots_[i].hist;
  }
  // Cache miss: create the handle with span_mu_ *released*. The registry
  // takes its own mutex inside histogram(); holding span_mu_ across that
  // call would stack the observer's two locks. Racing first uses of one
  // name are benign: histogram() is get-or-create on the same cell, and
  // the append below keeps whichever slot landed first.
  // 1 us .. 10 s, 24 exponential buckets: covers sub-period phases up to
  // pathological full re-embeddings.
  Histogram h = metrics_.histogram(std::string("span.") + name + ".us",
                                   exponential_bounds(1.0, 1e7, 24));
  util::MutexLock lock(span_mu_);
  n = span_slot_count_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (span_slots_[i].name == name) return span_slots_[i].hist;
  }
  if (n < kSpanSlots) {
    span_slots_[n] = SpanSlot{name, h};
    span_slot_count_.store(n + 1, std::memory_order_release);
  }
  return h;
}

void Observer::record_span(const char* name, double sim_time, double us) {
  span_histogram(name).observe(us);
  if (span_events_ && sink_ != nullptr) {
    Event e(sim_time, "span");
    e.with("name", JsonValue(name)).with("us", JsonValue(us));
    sink_->emit(e);
  }
}

}  // namespace stayaway::obs
