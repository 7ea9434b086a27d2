#pragma once

/// \file extremal_pair.hpp
/// The result type of the extremal-pair queries (closest pair,
/// point-set diameter) and the tie-break rule they implement.
///
/// The metric kernel (engine/metric_kernel.hpp) reports the extremal
/// pair under the *same* contract as the historical O(n²) loop in
/// `engine::ContactSweep`: among all pairs attaining the extremal
/// *computed hypot distance*, the lexicographically smallest (i, j)
/// with i < j — exactly the pair a `for i { for j > i }` loop with a
/// strict `std::hypot` comparison would keep.
///
/// The ordering subtlety that makes this header worth having: computed
/// squared distances and computed hypots do NOT order identically at
/// the last ulp.  On a symmetric fleet (robots on a ring) many pairs
/// tie in computed hypot while their computed d² values differ by an
/// ulp, so a kernel that selected purely by d² would tie-break to a
/// different pair than the historical loop.  The kernel therefore uses
/// d² only as a *monotone pre-filter*: any pair whose d² lies outside
/// `kDistanceSqBand` (relative) of the extremal d² provably cannot tie
/// the winner in computed hypot, and the few pairs inside the band are
/// resolved with the historical (hypot, lex) comparator.  This keeps
/// the kernel bit-identical to the hypot loop at one (or a few) hypots
/// per evaluation.

namespace rv::geom {

/// Relative half-width of the d² band inside which computed-hypot ties
/// are possible.  Computed hypots tie only when true distances agree
/// to ~2 ulp (relative ~4.5e-16, i.e. ~9e-16 in d²) and computed d²
/// carries ~2.5 ulp of its own error; 1e-14 covers both with an order
/// of magnitude to spare, while admitting only genuinely-near-tied
/// pairs as candidates.
inline constexpr double kDistanceSqBand = 1e-14;

/// An extremal pair of a point set: the (hypot) distance and the
/// original indices, i < j.
struct ExtremalPair {
  double distance = 0.0;
  int i = -1;
  int j = -1;
};

/// The shared tie-break: candidate (value, i, j) beats the incumbent
/// iff its value is strictly more extremal, or equal with a
/// lexicographically smaller (i, j).  `value` must be the computed
/// hypot distance when matching the historical loop (see the file
/// comment).  `kLess` selects minima (closest pair), `kGreater` maxima
/// (diameter).
enum class ExtremalSense { kLess, kGreater };

template <ExtremalSense Sense>
[[nodiscard]] constexpr bool pair_beats(double value, int i, int j,
                                        double best_value, int best_i,
                                        int best_j) {
  if constexpr (Sense == ExtremalSense::kLess) {
    if (value < best_value) return true;
    if (value > best_value) return false;
  } else {
    if (value > best_value) return true;
    if (value < best_value) return false;
  }
  return i < best_i || (i == best_i && j < best_j);
}

}  // namespace rv::geom
