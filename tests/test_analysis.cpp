// Tests for the analysis module: Theorem 1/2/3 bound functions, the
// equivalent-search reduction (Definition 1), and viewpoint
// normalisation.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/bounds.hpp"
#include "analysis/reduction.hpp"
#include "geom/difference_map.hpp"
#include "mathx/constants.hpp"
#include "mathx/binary.hpp"
#include "mathx/rng.hpp"
#include "rendezvous/feasibility.hpp"
#include "rendezvous/schedule.hpp"
#include "search/paths.hpp"
#include "search/times.hpp"
#include "support/traj.hpp"
#include "traj/program.hpp"

namespace {

using namespace rv::analysis;
using rv::geom::Mat2;
using rv::geom::RobotAttributes;
using rv::geom::Vec2;
using rv::mathx::kPi;

RobotAttributes attrs(double v, double tau, double phi, int chi) {
  RobotAttributes a;
  a.speed = v;
  a.time_unit = tau;
  a.orientation = phi;
  a.chirality = chi;
  return a;
}

// ---------------------------------------------------------------------------
// Bounds
// ---------------------------------------------------------------------------

TEST(Bounds, Theorem2CommonChiralityScalesByMu) {
  // For v = 2, φ = 0: µ = 1, so the bound equals the plain Theorem 1
  // bound.
  EXPECT_NEAR(theorem2_bound_common_chirality(1.0, 0.25, 2.0, 0.0),
              rv::search::theorem1_bound(1.0, 0.25), 1e-9);
  // For φ = π, v = 1: µ = 2 — the bound improves (robots diverge fast).
  EXPECT_NEAR(theorem2_bound_common_chirality(1.0, 0.25, 1.0, kPi),
              rv::search::theorem1_bound(0.5, 0.125), 1e-9);
  EXPECT_THROW((void)theorem2_bound_common_chirality(1.0, 0.25, 1.0, 0.0),
               std::invalid_argument);
}

TEST(Bounds, Theorem2OppositeChirality) {
  // Gain 1 − v, whatever the orientation.
  for (const double phi : {0.0, 0.5, kPi}) {
    EXPECT_NEAR(theorem2_bound(attrs(0.5, 1.0, phi, -1), 1.0, 0.25),
                rv::search::theorem1_bound(2.0, 0.5), 1e-9)
        << "phi=" << phi;
  }
  // v = 1 with χ = −1 is the infeasible mirror pair.
  EXPECT_THROW((void)theorem2_bound(attrs(1.0, 1.0, 0.5, -1), 1.0, 0.25),
               std::invalid_argument);
}

TEST(Bounds, Theorem2DispatcherMatchesBranches) {
  EXPECT_DOUBLE_EQ(theorem2_bound(attrs(2.0, 1.0, 0.5, 1), 1.0, 0.1),
                   theorem2_bound_common_chirality(1.0, 0.1, 2.0, 0.5));
  EXPECT_DOUBLE_EQ(theorem2_bound(attrs(0.5, 1.0, 0.5, -1), 1.0, 0.1),
                   rv::search::theorem1_bound(1.0 / 0.5, 0.1 / 0.5));
  // v > 1 with χ = −1: gain |1 − v| = 1, so the bound equals the plain
  // Theorem 1 bound on (d, r).
  EXPECT_DOUBLE_EQ(theorem2_bound(attrs(2.0, 1.0, 0.5, -1), 1.0, 0.1),
                   rv::search::theorem1_bound(1.0, 0.1));
  EXPECT_THROW((void)theorem2_bound(attrs(1.0, 0.5, 0.0, 1), 1.0, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)theorem2_bound(attrs(1.0, 1.0, 0.0, 1), 1.0, 0.1),
               std::invalid_argument);
}

TEST(Bounds, Theorem3UsesLemma13Round) {
  const double d = 1.0, r = 0.25;
  const int n = rv::search::guaranteed_round(d, r);
  const int k_star = rv::rendezvous::rendezvous_round_bound(0.5, n);
  EXPECT_DOUBLE_EQ(theorem3_bound(0.5, d, r),
                   rv::rendezvous::inactive_start(k_star + 1));
  // τ > 1 is normalised to 1/τ.
  EXPECT_DOUBLE_EQ(theorem3_bound(2.0, d, r), theorem3_bound(0.5, d, r));
  EXPECT_THROW((void)theorem3_bound(1.0, d, r), std::invalid_argument);
}

TEST(Bounds, NormalizedViewpointIdentityForSlowClocks) {
  const auto a = attrs(2.0, 0.5, 1.0, -1);
  EXPECT_EQ(normalized_viewpoint(a), rv::geom::validated(a));
}

TEST(Bounds, NormalizedViewpointInvertsFrame) {
  // For τ > 1 the normalised attributes must describe the inverse
  // frame: M(flipped) · M(original) = I.
  rv::mathx::Xoshiro256 rng(17);
  for (int i = 0; i < 50; ++i) {
    const auto a = rv::geom::validated(
        attrs(rng.uniform(0.2, 3.0), rng.uniform(1.01, 4.0),
              rng.uniform(0.0, rv::mathx::kTwoPi),
              rng.uniform_int(0, 1) ? 1 : -1));
    const auto b = normalized_viewpoint(a);
    EXPECT_LT(b.time_unit, 1.0);
    const Mat2 product = frame_matrix(a) * frame_matrix(b);
    EXPECT_NEAR(product.a, 1.0, 1e-9);
    EXPECT_NEAR(product.b, 0.0, 1e-9);
    EXPECT_NEAR(product.c, 0.0, 1e-9);
    EXPECT_NEAR(product.d, 1.0, 1e-9)
        << "v=" << a.speed << " tau=" << a.time_unit << " phi="
        << a.orientation << " chi=" << a.chirality;
  }
}

TEST(Bounds, NormalizedViewpointPreservesFeasibilityClass) {
  using rv::rendezvous::classify;
  rv::mathx::Xoshiro256 rng(23);
  for (int i = 0; i < 50; ++i) {
    const auto a = rv::geom::validated(
        attrs(rng.uniform(0.2, 3.0), rng.uniform(1.01, 4.0),
              rng.uniform(0.0, rv::mathx::kTwoPi),
              rng.uniform_int(0, 1) ? 1 : -1));
    // Any τ ≠ 1 tuple is clock-feasible from both viewpoints.
    EXPECT_EQ(classify(a), classify(normalized_viewpoint(a)));
  }
}

// ---------------------------------------------------------------------------
// Lemma 12 exact round bound (Lambert W form)
// ---------------------------------------------------------------------------

TEST(Lemma12Exact, DomainChecks) {
  EXPECT_THROW((void)lemma12_exact_round_bound(1.0, 2), std::invalid_argument);
  EXPECT_THROW((void)lemma12_exact_round_bound(0.9, 0), std::invalid_argument);
  // t = 1/2 (τ = 0.5) is outside Lemma 12's branch.
  EXPECT_THROW((void)lemma12_exact_round_bound(0.5, 2), std::invalid_argument);
}

TEST(Lemma12Exact, AtLeastTheFindRoundAndPrecondition) {
  for (const double tau : {0.7, 0.75, 0.8, 0.9, 0.95}) {
    for (const int n : {1, 2, 4, 8, 16}) {
      const int k = lemma12_exact_round_bound(tau, n);
      EXPECT_GE(k, n) << "tau=" << tau << " n=" << n;
      const auto dec = rv::mathx::dyadic_decompose(tau);
      EXPECT_GE(k, static_cast<int>((dec.a + 1) * dec.t / (1.0 - dec.t)))
          << "tau=" << tau;
    }
  }
}

TEST(Lemma12Exact, TracksLemma13UpToItsLogWeakening) {
  // The paper derives Lemma 13's k* from Lemma 12 by replacing W(x)
  // with its ln(x) − ln(ln(x)) asymptotic and simplifying upward; the
  // exact form is never larger by more than a few rounds and grows the
  // same way as tau -> 1.
  for (const double tau : {0.7, 0.8, 0.9, 0.97}) {
    for (const int n : {2, 6, 12}) {
      const int exact = lemma12_exact_round_bound(tau, n);
      const int weak = rv::rendezvous::rendezvous_round_bound(tau, n);
      EXPECT_LE(std::abs(exact - weak), 6)
          << "tau=" << tau << " n=" << n << " exact=" << exact
          << " weak=" << weak;
    }
  }
  // Blow-up as tau -> 1 in both forms.
  EXPECT_LT(lemma12_exact_round_bound(0.75, 4),
            lemma12_exact_round_bound(0.97, 4));
}

TEST(Lemma12Exact, MonotoneInN) {
  for (const double tau : {0.75, 0.9}) {
    int prev = 0;
    for (int n = 1; n <= 20; ++n) {
      const int k = lemma12_exact_round_bound(tau, n);
      EXPECT_GE(k, prev) << "tau=" << tau << " n=" << n;
      prev = k;
    }
  }
}

// ---------------------------------------------------------------------------
// Reduction (Definition 1)
// ---------------------------------------------------------------------------

TEST(Reduction, CommonChiralityInstance) {
  const auto eq = equivalent_search_common_chirality(2.0, 0.5, 1.0, kPi);
  EXPECT_DOUBLE_EQ(eq.d, 1.0);   // µ = 2
  EXPECT_DOUBLE_EQ(eq.r, 0.25);
  EXPECT_THROW(
      (void)equivalent_search_common_chirality(1.0, 0.5, 1.0, 0.0),
      std::invalid_argument);
}

TEST(Reduction, OppositeChiralityWorstCase) {
  const auto eq = equivalent_search_opposite_chirality_worst(1.0, 0.5, 0.5);
  EXPECT_DOUBLE_EQ(eq.d, 2.0);
  EXPECT_DOUBLE_EQ(eq.r, 1.0);
}

TEST(Reduction, OppositeChiralityPerDirectionNeverWorseThanWorstCase) {
  rv::mathx::Xoshiro256 rng(41);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform(0.1, 0.9);
    const double phi = rng.uniform(0.0, rv::mathx::kTwoPi);
    const Vec2 d_hat = rv::geom::unit(rng.uniform(0.0, rv::mathx::kTwoPi));
    const auto per_dir =
        equivalent_search_opposite_chirality(1.0, d_hat, 0.5, v, phi);
    const auto worst = equivalent_search_opposite_chirality_worst(1.0, 0.5, v);
    EXPECT_LE(per_dir.d, worst.d + 1e-9);
  }
}

TEST(Reduction, OppositeChiralityZeroGainThrows) {
  // Mirror robots (v = 1) with the offset along the invariant
  // direction: T∘ᵀ·d̂ = 0.  For φ = 0, T∘ = diag(0, 2); gain of x̂ is 0.
  EXPECT_THROW((void)equivalent_search_opposite_chirality(
                   1.0, Vec2{1.0, 0.0}, 0.5, 1.0, 0.0),
               std::invalid_argument);
}

TEST(Reduction, SeparationVectorIdentity) {
  // p₁(t) − p₂(t) computed through the difference matrix must match a
  // direct evaluation of both robots' frame maps on a real trajectory.
  const auto path = rv::search::search_round_path(1);
  rv::mathx::Xoshiro256 rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = rv::geom::validated(
        attrs(rng.uniform(0.3, 2.5), 1.0, rng.uniform(0.0, rv::mathx::kTwoPi),
              rng.uniform_int(0, 1) ? 1 : -1));
    const Vec2 offset{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
    const Mat2 frame = frame_matrix(a);
    for (int i = 0; i < 20; ++i) {
      const double t = rng.uniform(0.0, path.duration());
      const Vec2 s_t = rv::traj::position_at(path, t);
      // Direct: R at S(t); R′ at offset + frame·S(t) (τ = 1).
      const Vec2 direct = s_t - (offset + frame * s_t);
      const Vec2 via_map = separation_vector(s_t, a, offset);
      EXPECT_TRUE(rv::geom::approx_equal(direct, via_map, 1e-9));
    }
  }
}

TEST(Reduction, SeparationVectorRequiresSymmetricClocks) {
  EXPECT_THROW(
      (void)separation_vector({1.0, 0.0}, attrs(1.0, 0.5, 0.0, 1), {1.0, 0.0}),
      std::invalid_argument);
}

TEST(Reduction, EquivalentSearchNormPreservation) {
  // |S∘(t)| = µ·|S(t)| for χ = +1 — Lemma 6's geometric content.
  const auto path = rv::search::search_circle_path(1.0);
  const double v = 1.7, phi = 2.0;
  const double m = rv::geom::mu(v, phi);
  const Mat2 t_circ = rv::geom::difference_matrix(v, phi, 1);
  for (double t = 0.0; t <= path.duration(); t += 0.37) {
    const Vec2 s = rv::traj::position_at(path, t);
    EXPECT_NEAR(rv::geom::norm(t_circ * s), m * rv::geom::norm(s), 1e-12);
  }
}

}  // namespace
