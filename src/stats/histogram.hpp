// Fixed-range binned histogram.
//
// The trajectory model (§3.2.3 of the paper) characterises each execution
// mode by histograms of step length and absolute angle; new candidate
// states are drawn from these histograms by inverse-transform sampling.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "util/statecodec.hpp"

namespace stayaway::stats {

class Histogram {
 public:
  /// Bins cover [lo, hi) uniformly. Requires lo < hi and bins > 0.
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds an observation. Values outside [lo, hi) are clamped into the
  /// nearest edge bin — resource-usage streams occasionally spike past a
  /// configured range and we want the mass recorded, not dropped.
  void add(double v, double weight = 1.0);

  std::size_t bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double total_weight() const { return total_; }
  bool empty() const { return total_ <= 0.0; }

  double bin_width() const;
  /// Centre of bin i.
  double bin_center(std::size_t i) const;
  /// Raw accumulated weight in bin i.
  double count(std::size_t i) const;
  /// Normalized density at bin i (integrates to ~1 over the range).
  double density(std::size_t i) const;
  /// Probability mass of bin i (sums to 1).
  double mass(std::size_t i) const;

  /// Index of the bin containing v (after clamping).
  std::size_t bin_index(double v) const;

  /// Cumulative mass up to and including bin i.
  double cumulative(std::size_t i) const;

  /// Quantile by linear interpolation inside the containing bin.
  /// Requires a non-empty histogram and q in [0,1].
  double quantile(double q) const;

  /// Multiplies every bin weight by `factor` (exponential forgetting, so a
  /// long-running mode model can track slowly drifting behaviour).
  void decay(double factor);

  /// The probability masses for all bins, in order.
  std::vector<double> masses() const;

  /// Snapshot of the accumulated total (under `total_key`) and the raw
  /// per-bin weights (under `counts_key`). Loading targets an identically
  /// configured histogram (bin count checked). The total is restored
  /// verbatim rather than re-summed — re-adding weights would reorder
  /// float addition and break the restore-exactness guarantee
  /// (DESIGN.md §17).
  void state(util::StateIO& io, std::string_view total_key,
             std::string_view counts_key);

 private:
  double lo_;
  double hi_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

}  // namespace stayaway::stats
