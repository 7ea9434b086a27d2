#pragma once

/// \file interval.hpp
/// Closed real intervals.  Used for phase windows of Algorithm 7:
/// the overlap lemmas (Lemmas 9 and 10) are statements about the
/// intersection length of active/inactive time intervals.

#include <optional>

namespace rv::mathx {

/// A closed interval [lo, hi].  An interval with hi < lo is "empty".
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  /// Length (0 for empty intervals).
  [[nodiscard]] double length() const { return hi > lo ? hi - lo : 0.0; }
  /// True iff hi < lo.
  [[nodiscard]] bool empty() const { return hi < lo; }
  /// True iff x ∈ [lo, hi].
  [[nodiscard]] bool contains(double x) const { return lo <= x && x <= hi; }
  /// Midpoint of the interval.
  [[nodiscard]] double midpoint() const { return 0.5 * (lo + hi); }

  bool operator==(const Interval&) const = default;
};

/// Intersection of two intervals, or nullopt if they are disjoint.
[[nodiscard]] std::optional<Interval> intersect(const Interval& a,
                                                const Interval& b);

/// Scales an interval by s ≥ 0 about the origin: [s·lo, s·hi].
[[nodiscard]] Interval scale(const Interval& a, double s);

}  // namespace rv::mathx
