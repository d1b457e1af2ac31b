#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace stayaway::trace {

Trace::Trace(std::vector<double> samples, double sample_interval_s)
    : samples_(std::move(samples)), interval_(sample_interval_s) {
  SA_REQUIRE(!samples_.empty(), "trace needs at least one sample");
  SA_REQUIRE(interval_ > 0.0, "sample interval must be positive");
  SA_REQUIRE(std::all_of(samples_.begin(), samples_.end(),
                         [](double s) { return std::isfinite(s); }),
             "trace samples must be finite");
  min_ = *std::min_element(samples_.begin(), samples_.end());
  max_ = *std::max_element(samples_.begin(), samples_.end());
}

double Trace::duration() const {
  return static_cast<double>(samples_.size() - 1) * interval_;
}

double Trace::at(double t) const {
  SA_REQUIRE(std::isfinite(t), "trace lookup time must be finite");
  if (t <= 0.0) return samples_.front();
  double pos = t / interval_;
  // Compared before the cast: a position past the last sample (however
  // large) clamps without ever converting an out-of-range double.
  if (pos >= static_cast<double>(samples_.size() - 1)) return samples_.back();
  auto lo = static_cast<std::size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[lo + 1] - samples_[lo]);
}

double Trace::normalized_at(double t) const {
  double span = max_ - min_;
  if (span <= 0.0) return 0.0;
  return (at(t) - min_) / span;
}

double Trace::mean() const {
  double acc = 0.0;
  for (double s : samples_) acc += s;
  return acc / static_cast<double>(samples_.size());
}

Trace Trace::rescaled(double lo, double hi) const {
  SA_REQUIRE(lo <= hi, "rescale bounds must be ordered");
  double span = max_ - min_;
  std::vector<double> out;
  out.reserve(samples_.size());
  for (double s : samples_) {
    double frac = (span > 0.0) ? (s - min_) / span : 0.0;
    out.push_back(lo + frac * (hi - lo));
  }
  return Trace(std::move(out), interval_);
}

}  // namespace stayaway::trace
