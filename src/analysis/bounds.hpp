#pragma once

/// \file bounds.hpp
/// The paper's headline rendezvous time bounds, as evaluatable
/// functions: Theorem 2 (symmetric clocks) and the Theorem 3 / Lemma 14
/// construction (asymmetric clocks).  Theorem 1, the search bound, is
/// `search::theorem1_bound` (search/times.hpp).  The bench
/// harness prints measured times against these bounds; the test suite
/// asserts the measured values stay below them.

#include "geom/attributes.hpp"

namespace rv::analysis {

/// Theorem 2, χ = +1: rendezvous time < 6(π+1)·log₂(d²/(µr))·d²/(µr)
/// with µ = √(v² − 2v·cosφ + 1).
/// \throws std::invalid_argument if µ = 0 (infeasible: v = 1, φ = 0).
[[nodiscard]] double theorem2_bound_common_chirality(double d, double r,
                                                     double v, double phi);

/// Theorem 2 dispatcher for validated attributes with τ = 1.  For
/// χ = −1 the bound is 6(π+1)·log₂(d²/(g·r))·d²/(g·r) with the
/// worst-case direction gain g = |1 − v|.
/// \throws std::invalid_argument for infeasible tuples or τ ≠ 1.
[[nodiscard]] double theorem2_bound(const geom::RobotAttributes& attrs,
                                    double d, double r);

/// The *unconditional* Theorem 2 guarantee: rendezvous happens no later
/// than the completion of the guaranteed find round of the equivalent
/// search instance, i.e. time_first_rounds(guaranteed_round(d', r'))
/// with (d', r') = (d/g, r/g) and gain g = µ (χ = +1) or 1 − v
/// (χ = −1, worst case over directions).  Unlike `theorem2_bound`, this
/// holds for *every* instance, including those where the closed-form
/// Theorem 1 bound is not applicable (see
/// `search::theorem1_bound_applicable`).
[[nodiscard]] double theorem2_guaranteed_time(
    const geom::RobotAttributes& attrs, double d, double r);

/// Theorem 3 / Lemma 14: an upper bound on the global rendezvous time
/// of Algorithm 7 for clock ratio τ (0 < τ < 1 after normalisation),
/// initial distance d and visibility r.  Computed as I(k*+1) where k*
/// is the Lemma 13 round bound and n the stationary-find round.
[[nodiscard]] double theorem3_bound(double tau, double d, double r);

/// The *exact* Lemma 12 round bound, via the Lambert W function.
///
/// For τ = t·2⁻ᵃ with t ∈ (2/3, 1), choosing k₀ = (a+1)·t/(1−t) makes
/// γ = k₀/(k₀+1+a) collapse to exactly t, and Lemma 12's W-equation
/// gives the round
///   k ≥ 2 + a·t/(1−t) + W(ln2·n·2ⁿ/(4(1−t)) · 2^{(−(a−2)t−2)/(1−t)})/ln2.
/// This is the sharp form of which `rendezvous_round_bound` (Lemma 13)
/// is the logarithmic weakening (the paper replaces W(x) by
/// ln x − ln ln x).
/// \throws std::invalid_argument unless τ's mantissa t ∈ (2/3, 1) and
/// n ≥ 1.
[[nodiscard]] int lemma12_exact_round_bound(double tau, int n);

/// Normalises an attribute tuple so the *reference* robot is the one
/// with the larger time unit: if τ > 1, rendezvous is analysed from
/// the other robot's viewpoint with τ′ = 1/τ (and speed v′ = 1/v,
/// orientation −χφ, same χ).  Attributes with τ = 1 are returned
/// unchanged.
[[nodiscard]] geom::RobotAttributes normalized_viewpoint(
    const geom::RobotAttributes& attrs);

}  // namespace rv::analysis
