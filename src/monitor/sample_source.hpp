// SampleSource: the ingestion seam of the mapping stage (DESIGN.md §15).
//
// The control loop historically made one synchronous Sampler::sample()
// call per period, which caps ingestion at one sample per control
// decision. SampleSource abstracts where samples come from so the
// pipeline can drain *streams*:
//
//   SynchronousSampleSource  wraps HostSampler; drain() takes exactly
//                            one sample — byte-identical to the
//                            historical loop (golden tests).
//   RingSampleSource         replays a trace at a configured rate into a
//                            bounded ring; drain() pops every sample due
//                            by `now`. Overflow (full ring) is counted,
//                            never blocking; late/out-of-order/duplicate
//                            anomalies are injected from the fault
//                            plan's ingest-delay / ingest-dup cases and
//                            classified downstream by SampleQuarantine.
//
// Determinism contract (what record/replay and checkpoints rest on): the
// ring source is pulled, not raced. drain(now) first generates every
// sample with time <= now + lookahead into the ring, then pops. Pushes
// therefore always run against a ring occupancy fixed by previous
// drains, so the sample stream — including every overflow drop — is a
// pure function of the seed and the config, and the whole source state
// can be saved and restored like any other stage's.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "monitor/measurement.hpp"
#include "monitor/sampler.hpp"
#include "sim/faults.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/statecodec.hpp"

namespace stayaway::monitor {

/// One streamed measurement. `sequence` is the stream's emission index;
/// a duplicated delivery reuses its original's sequence, which is how
/// the quarantine recognizes it.
struct TimedSample {
  std::uint64_t sequence = 0;
  Measurement measurement;
};

/// What one drain() delivered and dropped.
struct DrainReport {
  /// Samples appended to the caller's buffer.
  std::size_t delivered = 0;
  /// Pushes rejected by a full ring since the previous drain.
  std::size_t overflow = 0;
};

class SampleSource {
 public:
  virtual ~SampleSource() = default;

  virtual const MetricLayout& layout() const = 0;

  /// True for streaming implementations. The mapper only fills the
  /// PeriodRecord's ingest telemetry for streaming sources, so the
  /// synchronous record stream stays byte-identical to the historical
  /// format.
  virtual bool streaming() const = 0;

  /// Appends every sample due by `now` to `out` in arrival order.
  virtual DrainReport drain(double now, std::vector<TimedSample>& out) = 0;

  /// Attaches (or detaches, with nullptr) the pipeline's fault injector.
  /// Sensor faults apply to every delivered sample; a streaming source
  /// additionally reads the plan's ingest-delay / ingest-dup specs.
  /// Must be called before the first drain().
  virtual void set_fault_injector(sim::FaultInjector* injector) = 0;

  /// Samples delivered across the source's lifetime (observability).
  virtual std::uint64_t samples_taken() const = 0;

  /// Checkpoint support (DESIGN.md §17): the full stream state, so a
  /// restored source delivers exactly what the original would have.
  /// Loading runs on a freshly built source of the same config.
  virtual void state(util::StateIO& io) = 0;
};

/// The historical path: one HostSampler reading per drain. Exists so
/// every caller speaks SampleSource while the default configuration
/// stays byte-identical to the pre-streaming loop.
class SynchronousSampleSource final : public SampleSource {
 public:
  explicit SynchronousSampleSource(HostSampler sampler)
      : sampler_(std::move(sampler)) {}

  const MetricLayout& layout() const override { return sampler_.layout(); }
  bool streaming() const override { return false; }

  DrainReport drain(double now, std::vector<TimedSample>& out) override;

  void set_fault_injector(sim::FaultInjector* injector) override {
    sampler_.set_fault_injector(injector);
  }

  std::uint64_t samples_taken() const override {
    return sampler_.samples_taken();
  }

  void state(util::StateIO& io) override;

 private:
  HostSampler sampler_;
  std::uint64_t next_sequence_ = 0;
};

/// Stream shape of a RingSampleSource, derived from core::IngestConfig
/// plus the per-host seed (monitor cannot see core's config types).
struct RingStreamOptions {
  /// Emission rate in samples per simulated second.
  double rate_hz = 4.0;
  /// Generation runs this far past the drain clock.
  double lookahead_s = 0.25;
  /// Ring capacity in samples (rounded up to a power of two).
  std::size_t ring_capacity = 1024;
  /// Optional burst window at burst_rate_hz; 0 disables.
  double burst_rate_hz = 0.0;
  double burst_start_s = 0.0;
  double burst_end_s = 0.0;
  /// Multiplicative gaussian measurement noise per reading.
  double noise_fraction = 0.01;
  /// Seeds the value noise and per-dimension demand mix.
  std::uint64_t seed = 17;
};

class RingSampleSource final : public SampleSource {
 public:
  /// `scale[d]` is the full-scale raw value of flat dimension d (the
  /// host capacity of its metric kind); the stream carries
  /// scale * mix * trace intensity plus noise. The trace replays on a
  /// loop, one diurnal day per 300 simulated seconds.
  RingSampleSource(MetricLayout layout, std::vector<double> scale,
                   trace::Trace trace, RingStreamOptions options);

  const MetricLayout& layout() const override { return layout_; }
  bool streaming() const override { return true; }

  DrainReport drain(double now, std::vector<TimedSample>& out) override;

  void set_fault_injector(sim::FaultInjector* injector) override;

  std::uint64_t samples_taken() const override { return delivered_total_; }

  /// Pushes dropped by a full ring so far (observability).
  std::uint64_t overflow_total() const { return dropped_; }

  void state(util::StateIO& io) override;

 private:
  /// Generates every sample with time <= horizon into the ring.
  void generate_until(double horizon);
  /// Emission interval at simulated time t (burst window aware).
  double interval_at(double t) const;
  Measurement synthesize(double t);
  /// Pushes one sample; a full ring drops and counts it.
  void emit(TimedSample sample);

  // --- Fixed at construction. --------------------------------------------
  MetricLayout layout_;
  std::vector<double> scale_;
  std::vector<double> mix_;  // per-dimension demand weight, seed-derived
  trace::Trace trace_;
  RingStreamOptions options_;
  std::size_t capacity_ = 0;  // options_.ring_capacity rounded up

  // Fixed before the first drain: its plan's ingest-delay / ingest-dup
  // specs shape the stream, its sensor faults every delivered sample.
  sim::FaultInjector* injector_ = nullptr;

  // --- Stream state (checkpointed). --------------------------------------
  bool started_ = false;  // the first drain happened
  double next_time_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  Rng value_rng_;
  Rng ingest_rng_{0};  // seeded at the first drain
  std::deque<TimedSample> ring_;
  std::optional<TimedSample> pending_;  // popped but not yet due
  std::uint64_t dropped_ = 0;
  std::uint64_t delivered_total_ = 0;
};

}  // namespace stayaway::monitor
