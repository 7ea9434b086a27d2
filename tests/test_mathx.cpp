// Unit and property tests for the mathx substrate: Lambert W, root
// finding, RNG, statistics, intervals, dyadic helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "mathx/interval.hpp"
#include "mathx/lambert_w.hpp"
#include "mathx/rng.hpp"
#include "mathx/stats.hpp"
#include "support/roots.hpp"

namespace {

using namespace rv::mathx;

// ---------------------------------------------------------------------------
// Lambert W
// ---------------------------------------------------------------------------

TEST(LambertW, KnownValues) {
  EXPECT_DOUBLE_EQ(lambert_w0(0.0), 0.0);
  EXPECT_NEAR(lambert_w0(std::exp(1.0)), 1.0, 1e-14);
  EXPECT_NEAR(lambert_w0(1.0), 0.5671432904097838, 1e-14);
  EXPECT_NEAR(lambert_w0(2.0 * std::exp(2.0)), 2.0, 1e-13);
  EXPECT_NEAR(lambert_w0(-0.2), -0.2591711018190738, 1e-12);
}

TEST(LambertW, BranchPoint) {
  const double x = -std::exp(-1.0);
  EXPECT_NEAR(lambert_w0(x), -1.0, 1e-6);
}

TEST(LambertW, DomainErrors) {
  EXPECT_THROW((void)lambert_w0(-0.4), std::domain_error);
}

class LambertW0Identity : public ::testing::TestWithParam<double> {};

TEST_P(LambertW0Identity, SatisfiesDefiningEquation) {
  const double x = GetParam();
  const double w = lambert_w0(x);
  EXPECT_NEAR(w * std::exp(w), x, 1e-12 * std::max(1.0, std::abs(x)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, LambertW0Identity,
                         ::testing::Values(-0.35, -0.2, -0.05, 0.001, 0.5, 1.0,
                                           3.0, 10.0, 100.0, 1e4, 1e8, 1e12));

// ---------------------------------------------------------------------------
// Root finding
// ---------------------------------------------------------------------------

TEST(Brent, FindsCosineRoot) {
  const RootResult res = brent([](double x) { return std::cos(x); }, 1.0, 2.0);
  EXPECT_NEAR(res.x, kPi / 2.0, 1e-12);
  EXPECT_LT(res.residual, 1e-12);
}

TEST(Brent, FindsPolynomialRoot) {
  auto f = [](double x) { return x * x * x - 2.0 * x - 5.0; };
  const RootResult res = brent(f, 2.0, 3.0);
  EXPECT_NEAR(res.x, 2.0945514815423265, 1e-12);
}

TEST(Brent, AcceptsRootAtEndpoint) {
  auto f = [](double x) { return x - 1.0; };
  EXPECT_DOUBLE_EQ(brent(f, 1.0, 2.0).x, 1.0);
  EXPECT_DOUBLE_EQ(brent(f, 0.0, 1.0).x, 1.0);
}

TEST(Brent, RejectsNonBracketingInterval) {
  EXPECT_THROW((void)brent([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               std::invalid_argument);
}

TEST(Brent, BracketFailureNamesTheEndpoints) {
  // The diagnostic must carry the actual (x, f(x)) pairs — a bare
  // "does not bracket" from deep inside a sweep is undebuggable.
  try {
    (void)brent([](double x) { return x * x + 1.0; }, -1.0, 3.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("do not bracket"), std::string::npos) << msg;
    EXPECT_NE(msg.find("f(-1) = 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("f(3) = 10"), std::string::npos) << msg;
  }
}

TEST(Bisect, NanEndpointFailureNamesTheEndpoints) {
  try {
    (void)bisect([](double x) { return std::sqrt(x); }, -4.0, 1.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NaN at bracket endpoint"), std::string::npos) << msg;
    EXPECT_NE(msg.find("f(-4)"), std::string::npos) << msg;
  }
}

TEST(Bisect, ConvergesLinearly) {
  const RootResult res =
      bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(res.x, std::sqrt(2.0), 1e-12);
}

TEST(FirstCrossing, LocatesEarliestRoot) {
  // sin(x) has roots at π, 2π, ...; the first crossing from 1 must be π.
  auto res = first_crossing([](double x) { return std::sin(x); }, 1.0, 10.0,
                            100);
  ASSERT_TRUE(res.has_value());
  EXPECT_NEAR(res->x, kPi, 1e-10);
}

TEST(FirstCrossing, ReturnsNulloptWithoutRoot) {
  auto res = first_crossing([](double x) { return 1.0 + x * x; }, 0.0, 5.0, 50);
  EXPECT_FALSE(res.has_value());
}

TEST(FirstCrossing, RejectsBadStepCount) {
  EXPECT_THROW(
      (void)first_crossing([](double x) { return x; }, 0.0, 1.0, 0),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyCentered) {
  Xoshiro256 rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform(2.0, 4.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.01);
  EXPECT_GE(stats.min(), 2.0);
  EXPECT_LT(stats.max(), 4.0);
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Xoshiro256 rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, InvalidRangesThrow) {
  Xoshiro256 rng(1);
  EXPECT_THROW((void)rng.uniform(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)rng.uniform_int(3, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStats, MeanAndExtremes) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingleton) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

// ---------------------------------------------------------------------------
// Interval
// ---------------------------------------------------------------------------

TEST(Interval, BasicOperations) {
  const Interval a{0.0, 2.0};
  const Interval b{1.0, 3.0};
  EXPECT_DOUBLE_EQ(a.length(), 2.0);
  EXPECT_TRUE(a.contains(1.0));
  EXPECT_FALSE(a.contains(2.5));
  const auto inter = intersect(a, b);
  ASSERT_TRUE(inter.has_value());
  EXPECT_DOUBLE_EQ(inter->lo, 1.0);
  EXPECT_DOUBLE_EQ(inter->hi, 2.0);
}

TEST(Interval, DisjointIntersection) {
  const Interval a{0.0, 1.0};
  const Interval b{2.0, 3.0};
  EXPECT_FALSE(intersect(a, b).has_value());
}

TEST(Interval, TouchingIntervalsIntersectInAPoint) {
  const Interval a{0.0, 1.0};
  const Interval b{1.0, 2.0};
  ASSERT_TRUE(intersect(a, b).has_value());  // degenerate intersection point
  EXPECT_DOUBLE_EQ(intersect(a, b)->length(), 0.0);
}

TEST(Interval, ScaleAndValidation) {
  const Interval a{1.0, 3.0};
  const Interval s = scale(a, 2.0);
  EXPECT_DOUBLE_EQ(s.lo, 2.0);
  EXPECT_DOUBLE_EQ(s.hi, 6.0);
  EXPECT_THROW((void)scale(a, -1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Dyadic helpers (Lemma 13 parameterisation)
// ---------------------------------------------------------------------------

TEST(Binary, PowersOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1.0));
  EXPECT_TRUE(is_power_of_two(0.5));
  EXPECT_TRUE(is_power_of_two(0.25));
  EXPECT_TRUE(is_power_of_two(1024.0));
  EXPECT_FALSE(is_power_of_two(0.3));
  EXPECT_FALSE(is_power_of_two(3.0));
  EXPECT_FALSE(is_power_of_two(0.0));
  EXPECT_FALSE(is_power_of_two(-2.0));
}

TEST(Binary, FloorCeilLog2) {
  EXPECT_EQ(floor_log2(1.0), 0);
  EXPECT_EQ(floor_log2(2.0), 1);
  EXPECT_EQ(floor_log2(3.0), 1);
  EXPECT_EQ(floor_log2(0.5), -1);
  EXPECT_EQ(floor_log2(0.49), -2);
  EXPECT_EQ(ceil_log2(1.0), 0);
  EXPECT_EQ(ceil_log2(3.0), 2);
  EXPECT_EQ(ceil_log2(4.0), 2);
  EXPECT_THROW((void)floor_log2(0.0), std::invalid_argument);
}

TEST(Binary, Pow2Exact) {
  EXPECT_DOUBLE_EQ(pow2(0), 1.0);
  EXPECT_DOUBLE_EQ(pow2(10), 1024.0);
  EXPECT_DOUBLE_EQ(pow2(-3), 0.125);
}

TEST(Binary, DyadicDecomposePowerOfTwo) {
  // Lemma 13: for τ a power of two, a = ⌊−log τ⌋ − 1 and t = 1/2.
  const auto d = dyadic_decompose(0.5);
  EXPECT_DOUBLE_EQ(d.t, 0.5);
  EXPECT_EQ(d.a, 0);
  const auto d2 = dyadic_decompose(0.25);
  EXPECT_DOUBLE_EQ(d2.t, 0.5);
  EXPECT_EQ(d2.a, 1);
  const auto d3 = dyadic_decompose(0.0625);
  EXPECT_DOUBLE_EQ(d3.t, 0.5);
  EXPECT_EQ(d3.a, 3);
}

TEST(Binary, DyadicDecomposeGeneric) {
  const auto d = dyadic_decompose(0.3);  // 0.3 = 0.6·2⁻¹
  EXPECT_EQ(d.a, 1);
  EXPECT_NEAR(d.t, 0.6, 1e-15);
  const auto d2 = dyadic_decompose(0.9);
  EXPECT_EQ(d2.a, 0);
  EXPECT_NEAR(d2.t, 0.9, 1e-15);
}

TEST(Binary, DyadicDomain) {
  EXPECT_THROW((void)dyadic_decompose(0.0), std::invalid_argument);
  EXPECT_THROW((void)dyadic_decompose(1.0), std::invalid_argument);
  EXPECT_THROW((void)dyadic_decompose(1.5), std::invalid_argument);
}

class DyadicRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(DyadicRoundTrip, RecomposeIsExactAndCanonical) {
  const double tau = GetParam();
  const auto d = dyadic_decompose(tau);
  EXPECT_GE(d.t, 0.5);
  EXPECT_LT(d.t, 1.0);
  EXPECT_GE(d.a, 0);
  EXPECT_NEAR(d.t * pow2(-d.a), tau, 1e-15 * tau);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DyadicRoundTrip,
                         ::testing::Values(0.5, 0.25, 0.125, 0.3, 0.6, 0.66,
                                           0.75, 0.9, 0.99, 0.013, 1.0 / 3.0));

// Constants sanity: the specific factors of the paper's algebra.
TEST(Constants, PaperFactors) {
  EXPECT_NEAR(kSearchCircleFactor, 2.0 * (kPi + 1.0), 0.0);
  EXPECT_NEAR(kTheorem1Factor, 3.0 * kSearchCircleFactor, 1e-15);
  EXPECT_NEAR(kSearchAllFactor, 12.0 * (kPi + 1.0), 0.0);
  EXPECT_NEAR(kScheduleFactor, 2.0 * kSearchAllFactor, 0.0);
}

}  // namespace
