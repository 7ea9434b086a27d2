// Tests for the geometry substrate: vectors, matrices, attributes, and
// the paper-specific difference-map algebra (Lemmas 4–7).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <tuple>

#include "geom/angle.hpp"
#include "geom/attributes.hpp"
#include "geom/difference_map.hpp"
#include "geom/mat2.hpp"
#include "geom/vec2.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"

namespace {

using namespace rv::geom;
using rv::mathx::kPi;
using rv::mathx::kTwoPi;

// Entry-wise |m − n| ≤ tol.
bool mat_near(const Mat2& m, const Mat2& n, double tol) {
  return std::abs(m.a - n.a) <= tol && std::abs(m.b - n.b) <= tol &&
         std::abs(m.c - n.c) <= tol && std::abs(m.d - n.d) <= tol;
}

// ---------------------------------------------------------------------------
// Vec2
// ---------------------------------------------------------------------------

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(-a, (Vec2{-1.0, -2.0}));
}

TEST(Vec2Test, DotCrossNorm) {
  const Vec2 a{3.0, 4.0};
  const Vec2 b{-4.0, 3.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 0.0);
  EXPECT_DOUBLE_EQ(cross(a, b), 25.0);
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_sq(a), 25.0);
  EXPECT_DOUBLE_EQ(distance(a, b), std::sqrt(49.0 + 1.0));
}

TEST(Vec2Test, NormalizedAndPerp) {
  const Vec2 v{3.0, 4.0};
  const Vec2 n = normalized(v);
  EXPECT_NEAR(norm(n), 1.0, 1e-15);
  EXPECT_EQ(normalized(Vec2{}), (Vec2{0.0, 0.0}));
  EXPECT_DOUBLE_EQ(dot(perp(v), v), 0.0);
  EXPECT_DOUBLE_EQ(cross(v, perp(v)), norm_sq(v));
}

TEST(Vec2Test, PolarAndAngle) {
  const Vec2 p = polar(2.0, kPi / 2.0);
  EXPECT_NEAR(p.x, 0.0, 1e-15);
  EXPECT_NEAR(p.y, 2.0, 1e-15);
  EXPECT_NEAR(angle_of({0.0, 1.0}), kPi / 2.0, 1e-15);
  EXPECT_NEAR(angle_of({-1.0, 0.0}), kPi, 1e-15);
}

TEST(Vec2Test, LerpFiniteApproxStream) {
  EXPECT_EQ(lerp({0.0, 0.0}, {2.0, 4.0}, 0.5), (Vec2{1.0, 2.0}));
  EXPECT_TRUE(is_finite({1.0, 2.0}));
  EXPECT_FALSE(is_finite({1.0, std::nan("")}));
  EXPECT_TRUE(approx_equal(Vec2{1.0, 1.0}, Vec2{1.0 + 1e-10, 1.0}, 1e-9));
  EXPECT_FALSE(approx_equal(Vec2{1.0, 1.0}, Vec2{1.1, 1.0}, 1e-9));
  std::ostringstream os;
  os << Vec2{1.5, -2.0};
  EXPECT_EQ(os.str(), "(1.5, -2)");
}

// ---------------------------------------------------------------------------
// Mat2
// ---------------------------------------------------------------------------

TEST(Mat2Test, IdentityAndProducts) {
  const Mat2 i = identity();
  const Mat2 m{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(i * m, m);
  EXPECT_EQ(m * i, m);
  const Vec2 v{1.0, 1.0};
  EXPECT_EQ(m * v, (Vec2{3.0, 7.0}));
  EXPECT_DOUBLE_EQ(det(m), -2.0);
  EXPECT_DOUBLE_EQ(trace(m), 5.0);
}

TEST(Mat2Test, RotationProperties) {
  const Mat2 r = rotation(0.7);
  EXPECT_TRUE(mat_near(transpose(r) * r, identity(), 1e-15));
  EXPECT_NEAR(det(r), 1.0, 1e-15);
  // Rotation composition = angle addition.
  EXPECT_TRUE(mat_near(rotation(0.3) * rotation(0.4), rotation(0.7), 1e-15));
  // Rotations preserve norms.
  const Vec2 v{1.2, -0.7};
  EXPECT_NEAR(norm(r * v), norm(v), 1e-15);
}

TEST(Mat2Test, ChiralityMatrix) {
  EXPECT_EQ(chirality(1), identity());
  EXPECT_EQ(chirality(-1), reflection_x_axis());
  EXPECT_THROW((void)chirality(0), std::invalid_argument);
  // Reflection flips orientation (negative determinant) and the cross
  // product sign.
  const Mat2 c = chirality(-1);
  EXPECT_DOUBLE_EQ(det(c), -1.0);
  const Vec2 a{1.0, 2.0}, b{3.0, 1.0};
  EXPECT_DOUBLE_EQ(cross(c * a, c * b), -cross(a, b));
}

// ---------------------------------------------------------------------------
// Angles
// ---------------------------------------------------------------------------

TEST(AngleTest, Normalization) {
  EXPECT_NEAR(normalize_angle(kTwoPi + 0.5), 0.5, 1e-14);
  EXPECT_NEAR(normalize_angle(-0.5), kTwoPi - 0.5, 1e-14);
  EXPECT_DOUBLE_EQ(normalize_angle(0.0), 0.0);
  EXPECT_LT(normalize_angle(-1e-18), kTwoPi);
}

// ---------------------------------------------------------------------------
// RobotAttributes / frame map (Lemma 4)
// ---------------------------------------------------------------------------

TEST(AttributesTest, ValidationRules) {
  RobotAttributes a;
  EXPECT_NO_THROW((void)validated(a));
  a.speed = 0.0;
  EXPECT_THROW((void)validated(a), std::invalid_argument);
  a.speed = 1.0;
  a.time_unit = -2.0;
  EXPECT_THROW((void)validated(a), std::invalid_argument);
  a.time_unit = 1.0;
  a.chirality = 2;
  EXPECT_THROW((void)validated(a), std::invalid_argument);
  a.chirality = -1;
  a.orientation = -kPi;  // must be normalised into [0, 2π)
  const RobotAttributes v = validated(a);
  EXPECT_NEAR(v.orientation, kPi, 1e-15);
}

TEST(AttributesTest, ReferenceFrameIsIdentity) {
  const RobotAttributes ref = reference_attributes();
  EXPECT_TRUE(mat_near(frame_matrix(ref), identity(), 1e-15));
}

TEST(AttributesTest, FrameMatrixLemma4Form) {
  // Lemma 4: S'(t) = v·R(φ)·diag(1,χ)·S(t) for τ = 1.
  RobotAttributes a;
  a.speed = 2.0;
  a.orientation = kPi / 3.0;
  a.chirality = -1;
  const Mat2 expect = 2.0 * (rotation(kPi / 3.0) * chirality(-1));
  EXPECT_TRUE(mat_near(frame_matrix(a), expect, 1e-15));
}

TEST(AttributesTest, TimeUnitScalesDistanceUnit) {
  // The robot's distance unit is v·τ global units.
  RobotAttributes a;
  a.speed = 3.0;
  a.time_unit = 0.5;
  const Vec2 image = frame_matrix(a) * Vec2{1.0, 0.0};
  EXPECT_NEAR(norm(image), 1.5, 1e-15);
}

class FrameMapProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double, int>> {
};

TEST_P(FrameMapProperty, PreservesScaledNormsAndHandedness) {
  const auto [v, tau, phi, chi] = GetParam();
  RobotAttributes a;
  a.speed = v;
  a.time_unit = tau;
  a.orientation = phi;
  a.chirality = chi;
  a = validated(a);
  rv::mathx::Xoshiro256 rng(1234);
  for (int i = 0; i < 50; ++i) {
    const Vec2 x{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
    const Vec2 y{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
    const Vec2 mx = frame_matrix(a) * x;
    const Vec2 my = frame_matrix(a) * y;
    // Uniform scaling by v·τ.
    EXPECT_NEAR(norm(mx), v * tau * norm(x), 1e-9 * (1.0 + norm(x)));
    // Angles between vectors preserved up to chirality sign.
    EXPECT_NEAR(dot(mx, my), v * tau * v * tau * dot(x, y),
                1e-7 * (1.0 + std::abs(dot(x, y))));
    EXPECT_NEAR(cross(mx, my), chi * v * tau * v * tau * cross(x, y),
                1e-7 * (1.0 + std::abs(cross(x, y))));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrameMapProperty,
    ::testing::Values(std::make_tuple(1.0, 1.0, 0.0, 1),
                      std::make_tuple(2.0, 1.0, 0.5, 1),
                      std::make_tuple(0.5, 2.0, 1.0, -1),
                      std::make_tuple(1.5, 0.25, 3.0, -1),
                      std::make_tuple(3.0, 3.0, 6.0, 1)));

// ---------------------------------------------------------------------------
// Difference map (Section 3, Lemmas 5–7)
// ---------------------------------------------------------------------------

TEST(DifferenceMap, MuKnownValues) {
  EXPECT_DOUBLE_EQ(mu(1.0, 0.0), 0.0);
  EXPECT_NEAR(mu(1.0, kPi), 2.0, 1e-15);            // opposite orientations
  EXPECT_NEAR(mu(2.0, 0.0), 1.0, 1e-15);            // pure speed difference
  EXPECT_NEAR(mu(1.0, kPi / 2.0), std::sqrt(2.0), 1e-15);
}

TEST(DifferenceMap, MatrixMatchesDefinition) {
  // T∘ = I − v·R(φ)·diag(1,χ) — the separation map of Lemma 4.
  rv::mathx::Xoshiro256 rng(99);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform(0.1, 3.0);
    const double phi = rng.uniform(0.0, kTwoPi);
    const int chi = rng.uniform_int(0, 1) ? 1 : -1;
    const Mat2 direct = identity() - v * (rotation(phi) * chirality(chi));
    EXPECT_TRUE(mat_near(difference_matrix(v, phi, chi), direct, 1e-12));
  }
}

TEST(DifferenceMap, DeterminantFormula) {
  rv::mathx::Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform(0.1, 3.0);
    const double phi = rng.uniform(0.0, kTwoPi);
    const int chi = rng.uniform_int(0, 1) ? 1 : -1;
    EXPECT_NEAR(det(difference_matrix(v, phi, chi)),
                difference_determinant(v, phi, chi), 1e-12);
  }
}

TEST(DifferenceMap, SingularExactlyOnInfeasibleTuples) {
  // χ = −1, v = 1: singular for every φ (mirror robots).
  for (const double phi : {0.0, 0.5, 1.0, kPi, 5.0}) {
    EXPECT_NEAR(difference_determinant(1.0, phi, -1), 0.0, 1e-12) << phi;
  }
  // χ = +1: singular only at v = 1, φ = 0.
  EXPECT_NEAR(difference_determinant(1.0, 0.0, 1), 0.0, 1e-15);
  EXPECT_GT(std::abs(difference_determinant(1.0, 1.0, 1)), 0.1);
  EXPECT_GT(std::abs(difference_determinant(2.0, 0.0, 1)), 0.1);
}

class QrFactorisation
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(QrFactorisation, Lemma5Reconstruction) {
  const auto [v, phi, chi] = GetParam();
  const Mat2 t_circ = difference_matrix(v, phi, chi);
  const DifferenceFactorization f = factor_difference_matrix(v, phi, chi);
  // Φ orthogonal with determinant +1.
  EXPECT_TRUE(mat_near(transpose(f.rotation) * f.rotation, identity(), 1e-10));
  EXPECT_NEAR(det(f.rotation), 1.0, 1e-10);
  // T∘′ upper triangular with T∘′₁₁ = µ.
  EXPECT_NEAR(f.upper.c, 0.0, 1e-12);
  EXPECT_NEAR(f.upper.a, mu(v, phi), 1e-12);
  // Product reconstructs T∘.
  EXPECT_TRUE(mat_near(f.rotation * f.upper, t_circ, 1e-10));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QrFactorisation,
    ::testing::Values(std::make_tuple(2.0, 0.0, 1),
                      std::make_tuple(0.5, 1.0, 1),
                      std::make_tuple(1.0, kPi / 2.0, 1),
                      std::make_tuple(1.0, kPi, 1),
                      std::make_tuple(0.5, 0.7, -1),
                      std::make_tuple(0.9, 2.0, -1),
                      std::make_tuple(0.99, 5.5, -1),
                      std::make_tuple(3.0, 4.0, -1)));

TEST(QrFactorisation, RandomisedReconstruction) {
  rv::mathx::Xoshiro256 rng(2024);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(0.05, 4.0);
    const double phi = rng.uniform(0.0, kTwoPi);
    const int chi = rng.uniform_int(0, 1) ? 1 : -1;
    if (mu(v, phi) < 1e-6) continue;
    const DifferenceFactorization f = factor_difference_matrix(v, phi, chi);
    EXPECT_TRUE(
        mat_near(f.rotation * f.upper, difference_matrix(v, phi, chi), 1e-9))
        << "v=" << v << " phi=" << phi << " chi=" << chi;
  }
}

TEST(QrFactorisation, ThrowsAtMuZero) {
  EXPECT_THROW((void)factor_difference_matrix(1.0, 0.0, 1),
               std::invalid_argument);
}

TEST(DifferenceMap, CommonChiralityIsPureScaling) {
  // Lemma 6: for χ = +1, T∘′ = µ·I.
  for (const double v : {0.5, 1.0, 2.0}) {
    for (const double phi : {0.3, 1.0, kPi}) {
      const Mat2 u = equivalent_search_map(v, phi, 1);
      const double m = mu(v, phi);
      EXPECT_NEAR(u.a, m, 1e-12);
      EXPECT_NEAR(u.d, m, 1e-12);
      EXPECT_NEAR(u.b, 0.0, 1e-12);
      EXPECT_NEAR(u.c, 0.0, 1e-12);
    }
  }
}

TEST(DifferenceMap, OppositeChiralityLowerRightEntry) {
  // Lemma 7: for χ = −1, T∘′₂₂ = (1 − v²)/µ.
  for (const double v : {0.3, 0.7, 0.9}) {
    for (const double phi : {0.5, 2.0, 4.0}) {
      const Mat2 u = equivalent_search_map(v, phi, -1);
      const double m = mu(v, phi);
      EXPECT_NEAR(u.d, (1.0 - v * v) / m, 1e-12);
    }
  }
}

TEST(DifferenceMap, DirectionGainBounds) {
  // |T∘ᵀ·d̂| for the worst direction is bounded below by 1 − v when
  // χ = −1 and v < 1 (Lemma 7's conclusion).
  rv::mathx::Xoshiro256 rng(31);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(0.05, 0.95);
    const double phi = rng.uniform(0.0, kTwoPi);
    const Mat2 t_circ = difference_matrix(v, phi, -1);
    const Vec2 d_hat = rv::geom::unit(rng.uniform(0.0, kTwoPi));
    const double gain = direction_gain(t_circ, d_hat);
    EXPECT_GE(gain, worst_case_gain_opposite_chirality(v) - 1e-9)
        << "v=" << v << " phi=" << phi;
  }
}

TEST(DifferenceMap, WorstCaseGainDomain) {
  EXPECT_THROW((void)worst_case_gain_opposite_chirality(1.0),
               std::invalid_argument);
  EXPECT_THROW((void)worst_case_gain_opposite_chirality(1.5),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(worst_case_gain_opposite_chirality(0.25), 0.75);
}

}  // namespace
