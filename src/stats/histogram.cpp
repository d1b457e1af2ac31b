#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace stayaway::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  SA_REQUIRE(lo < hi, "histogram range must be non-empty");
  SA_REQUIRE(bins > 0, "histogram needs at least one bin");
  counts_.assign(bins, 0.0);
}

void Histogram::add(double v, double weight) {
  // An infinite weight would make total_ infinite and every mass() an
  // inf/inf NaN, silently poisoning the samplers built on top.
  SA_REQUIRE(std::isfinite(weight) && weight >= 0.0,
             "histogram weight must be finite and non-negative");
  SA_REQUIRE(std::isfinite(v), "histogram observation must be finite");
  counts_[bin_index(v)] += weight;
  total_ += weight;
}

double Histogram::bin_width() const {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::bin_center(std::size_t i) const {
  SA_REQUIRE(i < counts_.size(), "bin index out of range");
  return lo_ + (static_cast<double>(i) + 0.5) * bin_width();
}

double Histogram::count(std::size_t i) const {
  SA_REQUIRE(i < counts_.size(), "bin index out of range");
  return counts_[i];
}

double Histogram::density(std::size_t i) const {
  if (total_ <= 0.0) return 0.0;
  return count(i) / (total_ * bin_width());
}

double Histogram::mass(std::size_t i) const {
  if (total_ <= 0.0) return 0.0;
  return count(i) / total_;
}

std::size_t Histogram::bin_index(double v) const {
  if (v < lo_) return 0;
  double f = (v - lo_) / bin_width();
  auto i = static_cast<std::size_t>(f);
  return std::min(i, counts_.size() - 1);
}

double Histogram::cumulative(std::size_t i) const {
  SA_REQUIRE(i < counts_.size(), "bin index out of range");
  double acc = 0.0;
  for (std::size_t b = 0; b <= i; ++b) acc += mass(b);
  return acc;
}

double Histogram::quantile(double q) const {
  SA_REQUIRE(!empty(), "quantile of an empty histogram");
  SA_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  double acc = 0.0;
  std::size_t last_loaded = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    double m = mass(b);
    // Empty bins carry no quantile mass: without this skip, quantile(0)
    // of a histogram whose support starts mid-range would report lo_.
    if (m <= 0.0) continue;
    last_loaded = b;
    if (acc + m >= q) {
      double within = std::clamp((q - acc) / m, 0.0, 1.0);
      return lo_ + (static_cast<double>(b) + within) * bin_width();
    }
    acc += m;
  }
  // Floating-point drift can leave acc a hair under q == 1; the answer is
  // the upper edge of the last mass-bearing bin (not hi_, which may sit
  // past the support).
  return lo_ + (static_cast<double>(last_loaded) + 1.0) * bin_width();
}

void Histogram::decay(double factor) {
  SA_REQUIRE(factor >= 0.0 && factor <= 1.0, "decay factor must be in [0,1]");
  for (double& c : counts_) c *= factor;
  total_ *= factor;
}

void Histogram::state(util::StateIO& io, std::string_view total_key,
                      std::string_view counts_key) {
  const std::size_t bins = counts_.size();
  io.real(total_key, total_);
  io.reals(counts_key, counts_);
  if (io.loading() && counts_.size() != bins) {
    throw util::StateCodecError("histogram state: bin count mismatch");
  }
}

std::vector<double> Histogram::masses() const {
  std::vector<double> out(counts_.size(), 0.0);
  for (std::size_t i = 0; i < counts_.size(); ++i) out[i] = mass(i);
  return out;
}

}  // namespace stayaway::stats
