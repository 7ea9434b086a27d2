#include "engine/metric_kernel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rv::engine {

using geom::ExtremalPair;
using geom::ExtremalSense;
using geom::Vec2;

namespace {

/// The squared-distance brute-force loop.  Pass 1 finds the extremal
/// d² (one multiply-add per pair, no sqrt); pass 2 resolves the winner
/// among the pairs inside the hypot-tie band with the historical
/// (hypot, lex) comparator — one hypot per evaluation on generic
/// fleets, a handful on symmetric ones (see geom/extremal_pair.hpp).
template <ExtremalSense Sense>
[[nodiscard]] ExtremalPair brute_force(const std::vector<Vec2>& pts,
                                       const char* who) {
  if (pts.size() < 2) {
    throw std::invalid_argument(std::string(who) + ": need >= 2 points");
  }
  const int n = static_cast<int>(pts.size());
  double best_sq = geom::norm_sq(pts[1] - pts[0]);
  for (int i = 0; i < n; ++i) {
    for (int j = (i == 0) ? 2 : i + 1; j < n; ++j) {
      const double d_sq = geom::norm_sq(pts[j] - pts[i]);
      best_sq = Sense == ExtremalSense::kLess ? std::min(best_sq, d_sq)
                                              : std::max(best_sq, d_sq);
    }
  }
  const double band = best_sq * geom::kDistanceSqBand;
  const double cutoff =
      Sense == ExtremalSense::kLess ? best_sq + band : best_sq - band;
  double best_v = 0.0;
  int best_i = -1, best_j = -1;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double d_sq = geom::norm_sq(pts[j] - pts[i]);
      const bool candidate =
          Sense == ExtremalSense::kLess ? d_sq <= cutoff : d_sq >= cutoff;
      if (!candidate) continue;
      const double v = geom::distance(pts[i], pts[j]);
      if (best_i < 0 || geom::pair_beats<Sense>(v, i, j, best_v, best_i,
                                                best_j)) {
        best_v = v;
        best_i = i;
        best_j = j;
      }
    }
  }
  return {best_v, best_i, best_j};
}

}  // namespace

ExtremalPair min_pairwise(const std::vector<Vec2>& pts) {
  return brute_force<ExtremalSense::kLess>(pts, "min_pairwise");
}

ExtremalPair max_pairwise(const std::vector<Vec2>& pts) {
  return brute_force<ExtremalSense::kGreater>(pts, "max_pairwise");
}

double lipschitz_speed_sum(const std::vector<double>& speeds) {
  if (speeds.size() < 2) {
    throw std::invalid_argument("lipschitz_speed_sum: need >= 2 speeds");
  }
  double top1 = speeds[0], top2 = speeds[1];
  if (top2 > top1) {
    const double t = top1;
    top1 = top2;
    top2 = t;
  }
  for (std::size_t i = 2; i < speeds.size(); ++i) {
    const double v = speeds[i];
    if (v > top1) {
      top2 = top1;
      top1 = v;
    } else if (v > top2) {
      top2 = v;
    }
  }
  return top1 + top2;
}

}  // namespace rv::engine
