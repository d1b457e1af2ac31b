#include "trace/diurnal.hpp"

#include <cmath>
#include <numbers>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace stayaway::trace {

Trace generate_diurnal(const DiurnalSpec& spec) {
  SA_REQUIRE(spec.base > 0.0, "base intensity must be positive");
  SA_REQUIRE(std::isfinite(spec.days) && spec.days > 0.0,
             "trace length must be finite and positive");
  SA_REQUIRE(spec.sample_interval_s > 0.0, "sample interval must be positive");

  constexpr double two_pi = 2.0 * std::numbers::pi;
  constexpr double day_s = 86400.0;
  constexpr double week_s = 7.0 * day_s;

  // Check the sample count before the double -> size_t cast, which is
  // undefined for values out of range.
  std::vector<double> samples;
  double intervals = spec.days * day_s / spec.sample_interval_s;
  SA_REQUIRE(intervals < static_cast<double>(samples.max_size()),
             "trace has more samples than a vector can hold");
  auto n = static_cast<std::size_t>(intervals) + 1;
  samples.reserve(n);

  Rng rng(spec.seed);
  double peak_phase = two_pi * spec.peak_hour / 24.0;
  for (std::size_t i = 0; i < n; ++i) {
    double t = static_cast<double>(i) * spec.sample_interval_s;
    double daily = std::cos(two_pi * t / day_s - peak_phase);
    double half_day = std::cos(2.0 * (two_pi * t / day_s - peak_phase));
    double weekly = std::cos(two_pi * t / week_s);
    double v = spec.base *
               (1.0 + spec.daily_amplitude * daily +
                spec.second_harmonic * half_day + spec.weekly_amplitude * weekly);
    v += rng.normal(0.0, spec.noise_fraction * spec.base);
    samples.push_back(std::max(v, 0.05 * spec.base));
  }
  return Trace(std::move(samples), spec.sample_interval_s);
}

}  // namespace stayaway::trace
