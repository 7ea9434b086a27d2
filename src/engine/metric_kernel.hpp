#pragma once

/// \file metric_kernel.hpp
/// The pairwise metric kernel of the certified sweep.
///
/// `ContactSweep` evaluates one of two statistics over the fleet's
/// current positions at every sweep/bisection point: min over pairs of
/// d_ij (first contact / rendezvous) or max over pairs of d_ij
/// (all-pairs gathering).  The kernel is one O(n²) pair loop on squared
/// distances — one multiply-add per pair instead of a hypot — and a
/// hypot resolves only the pairs inside the tie band
/// (geom/extremal_pair.hpp).  It returns the identical value and the
/// identical lexicographically-first pair as the historical hypot loop,
/// pinned by tests/test_metric_kernel.cpp.
///
/// `lipschitz_speed_sum` replaces the per-step O(n²) Lipschitz
/// recompute: max over pairs of (v_i + v_j) is the sum of the two
/// largest speeds — the same two doubles are added, so every step
/// schedule is unchanged.

#include <vector>

#include "geom/extremal_pair.hpp"
#include "geom/vec2.hpp"

namespace rv::engine {

/// Min-pairwise metric (first contact): closest pair of `pts`.
/// \throws std::invalid_argument for fewer than 2 points.
[[nodiscard]] geom::ExtremalPair min_pairwise(
    const std::vector<geom::Vec2>& pts);

/// Max-pairwise metric (all-pairs gathering): diameter of `pts`.
/// \throws std::invalid_argument for fewer than 2 points.
[[nodiscard]] geom::ExtremalPair max_pairwise(
    const std::vector<geom::Vec2>& pts);

/// O(n) Lipschitz bound of both sweep metrics: max over pairs of
/// (v_i + v_j) = the sum of the two largest speeds.  Identical value
/// to the O(n²) pair maximum (same two doubles are added).
/// \throws std::invalid_argument for fewer than 2 speeds.
[[nodiscard]] double lipschitz_speed_sum(const std::vector<double>& speeds);

}  // namespace rv::engine
