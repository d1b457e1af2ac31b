// Helpers the whole-run benchmark reports through: quantiles with their
// sample count, the output digest, and the layer table whose parts must
// add up to the traced wall. Header-only so the self-test links nothing
// from the program (selftest.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile (the "type 7" rule numpy and Python's
/// statistics.quantiles(method="inclusive") use) of a non-empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0,1]");
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The highest quantile level of an n-sample distribution that leaves at
/// least ten samples beyond it, kept within [0.5, 0.99]: 0.99 from 1000
/// samples up, the median below 20.
inline double supported_tail(std::size_t n) {
  if (n == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

/// A timing distribution as the benchmark reports it: the median, the
/// p99 and the mean, with the sample count they rest on (the p99 leaves
/// ten samples beyond it from n = 1000 up; see supported_tail).
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
};

inline Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.p50 = quantile(values, 0.5);
  s.p99 = quantile(values, 0.99);
  double acc = 0.0;
  for (double v : values) acc += v;
  s.mean = acc / static_cast<double>(values.size());
  return s;
}

/// Incremental FNV-1a 64: the output digest every timed run is checked
/// against. Feeding the same values in the same order gives the same
/// digest. Lines are newline-terminated, so ("ab","c") and ("a","bc")
/// differ; numbers are hashed as their 8 bytes, so doubles compare by
/// bit pattern (-0.0 differs from 0.0, and NaN equals itself).
class Digest {
 public:
  void line(std::string_view text) {
    for (char c : text) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One reported metric: name, value as measured, and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Where one traced run's wall time went. Each layer holds wall-clock
/// seconds; remainder() is the part of the wall no layer claims, which
/// is printed rather than hidden, so the table always sums to the wall.
class LayerTable {
 public:
  explicit LayerTable(double wall_s) : wall_s_(wall_s) {}

  void add(std::string name, double seconds) {
    for (auto& [n, s] : layers_) {
      if (n == name) {
        s += seconds;
        return;
      }
    }
    layers_.emplace_back(std::move(name), seconds);
  }
  double wall() const { return wall_s_; }
  double get(std::string_view name) const {
    for (const auto& [n, s] : layers_) {
      if (n == name) return s;
    }
    return 0.0;
  }
  double attributed() const {
    double acc = 0.0;
    for (const auto& [n, s] : layers_) acc += s;
    return acc;
  }
  double remainder() const { return wall_s_ - attributed(); }
  double share(std::string_view name) const {
    return wall_s_ > 0.0 ? get(name) / wall_s_ : 0.0;
  }
  /// Name of the layer holding the most time, skipping `exclude` (no
  /// candidate: "").
  std::string leading(const std::vector<std::string>& exclude = {}) const {
    std::string best;
    double most = -1.0;
    for (const auto& [n, s] : layers_) {
      if (std::find(exclude.begin(), exclude.end(), n) != exclude.end()) {
        continue;
      }
      if (s > most) {
        most = s;
        best = n;
      }
    }
    return best;
  }
  const std::vector<std::pair<std::string, double>>& layers() const {
    return layers_;
  }

 private:
  double wall_s_;
  std::vector<std::pair<std::string, double>> layers_;
};

}  // namespace perfbench
