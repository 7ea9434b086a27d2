#include "mathx/interval.hpp"

#include <algorithm>
#include <stdexcept>

namespace rv::mathx {

std::optional<Interval> intersect(const Interval& a, const Interval& b) {
  const double lo = std::max(a.lo, b.lo);
  const double hi = std::min(a.hi, b.hi);
  if (hi < lo) return std::nullopt;
  return Interval{lo, hi};
}

Interval scale(const Interval& a, double s) {
  if (s < 0.0) throw std::invalid_argument("scale: negative factor");
  return {a.lo * s, a.hi * s};
}

}  // namespace rv::mathx
