#pragma once

/// \file stats.hpp
/// Streaming and batch descriptive statistics used by the benchmark
/// harness to summarise measured rendezvous/search times.

#include <cstddef>
#include <vector>

namespace rv::mathx {

/// Welford-style running statistics: numerically stable single pass
/// mean/variance plus extrema.
class RunningStats {
 public:
  /// Incorporates one observation.
  void add(double x);

  /// Number of observations so far.
  [[nodiscard]] std::size_t count() const { return n_; }
  /// Arithmetic mean (0 if empty).
  [[nodiscard]] double mean() const { return mean_; }
  /// Unbiased sample variance (0 if fewer than two observations).
  [[nodiscard]] double variance() const;
  /// Smallest observation (+inf if empty).
  [[nodiscard]] double min() const { return min_; }
  /// Largest observation (−inf if empty).
  [[nodiscard]] double max() const { return max_; }
  /// Sum of all observations.
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

  /// Merges another accumulator into this one (parallel Welford merge).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0, max_ = 0.0;
};

/// Returns the q-quantile (0 ≤ q ≤ 1) of `values` using linear
/// interpolation between order statistics.  The input is copied; the
/// original order is preserved.
/// \throws std::invalid_argument for an empty input or q outside [0,1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Geometric mean of strictly positive values.
/// \throws std::invalid_argument if empty or any value ≤ 0.
[[nodiscard]] double geometric_mean(const std::vector<double>& values);

}  // namespace rv::mathx
