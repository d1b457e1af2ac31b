#include "mds/smacof.hpp"

#include <cmath>

#include "mds/classical.hpp"
#include "util/check.hpp"

namespace stayaway::mds {

namespace {

double raw_stress(const linalg::Matrix& delta, const Embedding& x) {
  const std::size_t n = x.size();
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double diff = delta.at(i, j) - distance(x[i], x[j]);
      acc += diff * diff;
    }
  }
  return acc;
}

double sum_delta_squared(const linalg::Matrix& delta) {
  double acc = 0.0;
  const std::size_t n = delta.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      acc += delta.at(i, j) * delta.at(i, j);
    }
  }
  return acc;
}

/// One Guttman transform: X' = (1/n) B(X) X with unit weights.
Embedding guttman_transform(const linalg::Matrix& delta, const Embedding& x) {
  const std::size_t n = x.size();
  Embedding next(n);
  for (std::size_t i = 0; i < n; ++i) {
    double bii = 0.0;
    double accx = 0.0;
    double accy = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      double dij = distance(x[i], x[j]);
      double bij = (dij > 1e-12) ? -delta.at(i, j) / dij : 0.0;
      bii -= bij;
      accx += bij * x[j].x;
      accy += bij * x[j].y;
    }
    next[i].x = (bii * x[i].x + accx) / static_cast<double>(n);
    next[i].y = (bii * x[i].y + accy) / static_cast<double>(n);
  }
  return next;
}

void validate_dissimilarities(const linalg::Matrix& delta) {
  SA_REQUIRE(delta.rows() == delta.cols(), "dissimilarity matrix must be square");
  for (std::size_t i = 0; i < delta.rows(); ++i) {
    SA_REQUIRE(delta.at(i, i) == 0.0, "dissimilarity diagonal must be zero");
  }
}

}  // namespace

SmacofResult smacof(const linalg::Matrix& dissimilarities,
                    const SmacofOptions& options) {
  validate_dissimilarities(dissimilarities);
  const std::size_t n = dissimilarities.rows();

  SmacofResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }
  if (options.initial.has_value()) {
    SA_REQUIRE(options.initial->size() == n,
               "warm start must match the point count");
    result.points = *options.initial;
  } else {
    result.points = classical_mds(dissimilarities);
  }
  if (n == 1) {
    result.converged = true;
    return result;
  }

  const double denom = sum_delta_squared(dissimilarities);
  if (denom <= 0.0) {
    // All dissimilarities are zero: every configuration with coincident
    // points is optimal; collapse to the origin.
    result.points.assign(n, Point2{});
    result.converged = true;
    return result;
  }

  double stress = raw_stress(dissimilarities, result.points);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    Embedding next = guttman_transform(dissimilarities, result.points);
    double next_stress = raw_stress(dissimilarities, next);
    result.points = std::move(next);
    ++result.iterations;
    double improvement = stress - next_stress;
    stress = next_stress;
    if (improvement >= 0.0 && improvement < options.tolerance * denom) {
      result.converged = true;
      break;
    }
  }
  result.stress = std::sqrt(stress / denom);
  return result;
}

double normalized_stress(const linalg::Matrix& dissimilarities,
                         const Embedding& points) {
  validate_dissimilarities(dissimilarities);
  SA_REQUIRE(dissimilarities.rows() == points.size(),
             "configuration size must match the matrix");
  double denom = sum_delta_squared(dissimilarities);
  if (denom <= 0.0) return 0.0;
  return std::sqrt(raw_stress(dissimilarities, points) / denom);
}

}  // namespace stayaway::mds
