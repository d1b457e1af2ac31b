#include "monitor/sample_source.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace stayaway::monitor {

namespace {

/// Delayed samples the stream holds back at once. Bounded so a saturated
/// ingest-delay window degrades into plain lateness instead of growing
/// an unbounded hold-back queue.
constexpr std::size_t kMaxHeld = 4;

/// Largest ring capacity whose power-of-two round-up fits in size_t.
constexpr std::size_t kMaxCapacity =
    (std::numeric_limits<std::size_t>::max() >> 1) + 1;

/// Sim-seconds -> trace-seconds: how fast the replayed trace advances
/// relative to the control clock. Sweeps one diurnal day (86400
/// trace-seconds) in 300 simulated seconds.
constexpr double kTraceSecondsPerSimSecond = 288.0;

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  // Golden-ratio xor-mix, same family as fleet_host_seed: decorrelates
  // the ingest-anomaly stream from the value-noise stream.
  return (a ^ 0x9e3779b97f4a7c15ULL) + (b << 1);
}

void sample_state(util::StateIO& io, TimedSample& s, std::size_t dimension) {
  io.u64("sample_sequence", s.sequence);
  io.real("sample_time", s.measurement.time);
  io.reals("sample_values", s.measurement.values);
  if (io.loading() && s.measurement.values.size() != dimension) {
    throw util::StateCodecError(
        "ring source state: sample dimension does not match the layout");
  }
}

}  // namespace

DrainReport SynchronousSampleSource::drain(double now,
                                           std::vector<TimedSample>& out) {
  (void)now;  // the sampler stamps the host clock itself
  TimedSample s;
  s.sequence = next_sequence_++;
  s.measurement = sampler_.sample();
  out.push_back(std::move(s));
  DrainReport report;
  report.delivered = 1;
  return report;
}

void SynchronousSampleSource::state(util::StateIO& io) {
  sampler_.state(io);
  io.u64("next_sequence", next_sequence_);
}

RingSampleSource::RingSampleSource(MetricLayout layout,
                                   std::vector<double> scale,
                                   trace::Trace trace,
                                   RingStreamOptions options)
    : layout_(std::move(layout)),
      scale_(std::move(scale)),
      trace_(std::move(trace)),
      options_(options),
      value_rng_(options.seed) {
  SA_REQUIRE(layout_.dimension() > 0, "ring source needs a non-empty layout");
  SA_REQUIRE(scale_.size() == layout_.dimension(),
             "scale vector must match the layout dimension");
  // Finite rates and lookahead: an infinite rate makes the emission
  // interval 0 and an infinite lookahead an unbounded horizon, so
  // generation would never catch up with the drain clock.
  SA_REQUIRE(options_.rate_hz > 0.0 && std::isfinite(options_.rate_hz),
             "ingest rate must be positive and finite");
  SA_REQUIRE(options_.lookahead_s >= 0.0 && std::isfinite(options_.lookahead_s),
             "lookahead must be non-negative and finite");
  SA_REQUIRE(options_.noise_fraction >= 0.0,
             "noise fraction must be non-negative");
  SA_REQUIRE(
      options_.burst_rate_hz >= 0.0 && std::isfinite(options_.burst_rate_hz),
      "burst rate must be non-negative and finite");
  if (options_.burst_rate_hz > 0.0) {
    SA_REQUIRE(options_.burst_end_s > options_.burst_start_s,
               "burst window must satisfy end > start");
  }
  SA_REQUIRE(options_.ring_capacity > 0 &&
                 options_.ring_capacity <= kMaxCapacity,
             "ring capacity must be positive and round up to a power of two "
             "within size_t");
  capacity_ = std::bit_ceil(options_.ring_capacity);
  // Per-dimension demand mix: each metric tracks the shared trace with
  // its own seed-derived weight, so dimensions are correlated (one
  // latent intensity) without being identical — the same premise the
  // host sampler's allocations follow.
  mix_.resize(layout_.dimension());
  for (double& w : mix_) w = 0.35 + 0.6 * value_rng_.uniform();
}

void RingSampleSource::set_fault_injector(sim::FaultInjector* injector) {
  SA_REQUIRE(!started_,
             "the fault injector must be attached before the first drain");
  injector_ = injector;
}

double RingSampleSource::interval_at(double t) const {
  double rate = options_.rate_hz;
  if (options_.burst_rate_hz > 0.0 && t >= options_.burst_start_s &&
      t < options_.burst_end_s) {
    rate = options_.burst_rate_hz;
  }
  return 1.0 / rate;
}

Measurement RingSampleSource::synthesize(double t) {
  Measurement m;
  m.time = t;
  const double span = trace_.duration();
  const double tt =
      span > 0.0 ? std::fmod(t * kTraceSecondsPerSimSecond, span) : 0.0;
  const double intensity = trace_.normalized_at(tt);
  m.values.resize(layout_.dimension());
  for (std::size_t d = 0; d < m.values.size(); ++d) {
    double v = scale_[d] * mix_[d] * intensity;
    v *= 1.0 + value_rng_.normal(0.0, options_.noise_fraction);
    m.values[d] = std::max(0.0, v);
  }
  return m;
}

void RingSampleSource::emit(TimedSample sample) {
  // A full ring drops the push and counts it; generation never waits on
  // backpressure — the consumer surfaces it instead.
  if (ring_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  ring_.push_back(std::move(sample));
}

void RingSampleSource::generate_until(double horizon) {
  // Ingest-delayed samples; flushed before this returns, so they never
  // outlive a drain and are not part of the checkpointed state.
  std::vector<TimedSample> held;
  static const std::vector<sim::FaultSpec> kNoFaults;
  const std::vector<sim::FaultSpec>& faults =
      injector_ != nullptr ? injector_->plan().faults : kNoFaults;
  while (next_time_ <= horizon) {
    const double t = next_time_;
    TimedSample s;
    s.sequence = next_sequence_++;
    s.measurement = synthesize(t);
    bool delayed = false;
    bool duplicated = false;
    for (const sim::FaultSpec& f : faults) {
      if (!f.active(t)) continue;
      if (f.kind == sim::FaultKind::IngestDelay &&
          ingest_rng_.chance(f.probability)) {
        delayed = true;
      } else if (f.kind == sim::FaultKind::IngestDuplicate &&
                 ingest_rng_.chance(f.probability)) {
        duplicated = true;
      }
    }
    if (delayed && held.size() < kMaxHeld) {
      held.push_back(std::move(s));
    } else {
      TimedSample copy;
      if (duplicated) copy = s;  // same sequence: the quarantine drops it
      emit(std::move(s));
      if (duplicated) emit(std::move(copy));
      for (TimedSample& h : held) emit(std::move(h));
      held.clear();
    }
    next_time_ = t + interval_at(t);
  }
  // Caught up with the drain clock: flush any held-back samples (they
  // now arrive behind newer ones — the late/out-of-order anomaly).
  for (TimedSample& h : held) emit(std::move(h));
  held.clear();
}

DrainReport RingSampleSource::drain(double now,
                                    std::vector<TimedSample>& out) {
  if (!started_) {
    // The fault plan is final from here on (set_fault_injector requires
    // it), so the ingest-anomaly schedule can be seeded.
    const std::uint64_t plan_seed =
        injector_ != nullptr ? injector_->plan().seed : 0;
    ingest_rng_ = Rng(mix_seed(plan_seed, options_.seed));
    started_ = true;
  }
  // Drops only happen while generating, so this pass's drops are the
  // overflow since the previous drain.
  const std::uint64_t dropped_before = dropped_;
  generate_until(now + options_.lookahead_s);
  // Every sample due by `now` is now in the ring, and the occupancy any
  // push saw was fixed by previous drains.
  DrainReport report;
  report.overflow = static_cast<std::size_t>(dropped_ - dropped_before);
  auto deliver = [&](TimedSample s) {
    if (injector_ != nullptr) {
      injector_->corrupt_sample(s.measurement.time, s.measurement.values);
    }
    out.push_back(std::move(s));
    ++report.delivered;
    ++delivered_total_;
  };
  if (pending_.has_value() && pending_->measurement.time <= now) {
    deliver(std::move(*pending_));
    pending_.reset();
  }
  while (!pending_.has_value() && !ring_.empty()) {
    TimedSample s = std::move(ring_.front());
    ring_.pop_front();
    if (s.measurement.time > now) {
      pending_ = std::move(s);
    } else {
      deliver(std::move(s));
    }
  }
  return report;
}

void RingSampleSource::state(util::StateIO& io) {
  auto sample = [&io, dimension = layout_.dimension()](TimedSample& s) {
    sample_state(io, s, dimension);
  };
  io.boolean("ring_started", started_);
  io.real("ring_next_time", next_time_);
  io.u64("ring_next_sequence", next_sequence_);
  io.rng("ring_value_rng", value_rng_);
  io.rng("ring_ingest_rng", ingest_rng_);
  io.sequence("ring_queued", ring_, sample);
  if (io.loading() && ring_.size() > capacity_) {
    throw util::StateCodecError("ring source state: ring over capacity");
  }
  io.optional("ring_pending", pending_, sample);
  io.u64("ring_dropped", dropped_);
  io.u64("ring_delivered", delivered_total_);
}

}  // namespace stayaway::monitor
