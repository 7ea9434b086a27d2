#pragma once

/// \file stats.hpp
/// Streaming descriptive statistics used by the benchmark harness to
/// summarise measured rendezvous/search times.

#include <cstddef>

namespace rv::mathx {

/// Welford-style running statistics: numerically stable single pass
/// mean plus extrema.
class RunningStats {
 public:
  /// Incorporates one observation.
  void add(double x);

  /// Number of observations so far.
  [[nodiscard]] std::size_t count() const { return n_; }
  /// Arithmetic mean (0 if empty).
  [[nodiscard]] double mean() const { return mean_; }
  /// Smallest observation (+inf if empty).
  [[nodiscard]] double min() const { return min_; }
  /// Largest observation (−inf if empty).
  [[nodiscard]] double max() const { return max_; }
  /// Sum of all observations.
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0, max_ = 0.0;
};

}  // namespace rv::mathx
