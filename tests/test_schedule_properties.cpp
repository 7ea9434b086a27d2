// Deeper property suites for the schedule/coverage machinery:
//  * the Lemma 13 window-coverage argument (every τ ∈ (0,1) eventually
//    sits inside a Lemma 9 or Lemma 10 window for all large rounds),
//  * analytic coverage of Search(k) (every in-range point is within
//    ρ of some traversed circle — no simulation required),
//  * competitive-ratio yardsticks.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/competitive.hpp"
#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "rendezvous/schedule.hpp"
#include "search/times.hpp"

namespace {

using namespace rv::rendezvous;
using rv::mathx::Interval;
using rv::mathx::pow2;

// ---------------------------------------------------------------------------
// Lemma 13's window-coverage argument
// ---------------------------------------------------------------------------

TEST(WindowCoverage, SmallMantissaSitsInLemma9WindowForAllLargeRounds) {
  // Lemma 13, first branch: for t ∈ [1/2, 2/3], τ = t·2⁻ᵃ lies in the
  // Lemma 9 window for every k ≥ 8(a+1).
  rv::mathx::Xoshiro256 rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    const double t = rng.uniform(0.5, 2.0 / 3.0);
    const int a = static_cast<int>(rng.uniform_int(0, 3));
    const double tau = t * pow2(-a);
    const int k0 = 8 * (a + 1);
    for (int k = k0; k <= k0 + 8; ++k) {
      const Interval w = lemma9_tau_window(k, a);
      EXPECT_TRUE(w.contains(tau))
          << "t=" << t << " a=" << a << " k=" << k << " window=[" << w.lo
          << "," << w.hi << "]";
    }
  }
}

TEST(WindowCoverage, LargeMantissaSitsInLemma10WindowForAllLargeRounds) {
  // Lemma 13, second branch: for t ∈ (2/3, 1), τ lies in the Lemma 10
  // window for every k ≥ k0 = (a+1)·t/(1−t).
  rv::mathx::Xoshiro256 rng(271828);
  for (int trial = 0; trial < 200; ++trial) {
    const double t = rng.uniform(0.67, 0.97);
    const int a = static_cast<int>(rng.uniform_int(0, 2));
    const double tau = t * pow2(-a);
    const int k0 = static_cast<int>(
        std::ceil((a + 1) * t / (1.0 - t) - 1e-9));
    for (int k = std::max(k0, 2 * (a + 1)); k <= k0 + 8; ++k) {
      const Interval w = lemma10_tau_window(k, a);
      // Lemma 10's window lower edge uses k/(k+a); the guarantee is
      // τ ≤ upper edge for k ≥ k0 and τ ≥ lower edge for k large —
      // both hold simultaneously from k0 up (this is what Lemma 13
      // uses).
      EXPECT_LE(tau, w.hi + 1e-12)
          << "t=" << t << " a=" << a << " k=" << k;
      EXPECT_GE(tau, w.lo - 1e-12)
          << "t=" << t << " a=" << a << " k=" << k;
    }
  }
}

TEST(WindowCoverage, EveryTauHasAGrowingOverlap) {
  // The composite claim behind Theorem 3: for any τ ∈ (0,1) the
  // best overlap length is eventually positive and grows.
  rv::mathx::Xoshiro256 rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    const double tau = rng.uniform(0.05, 0.98);
    const auto dec = rv::mathx::dyadic_decompose(tau);
    const int k_hi = std::max(8 * (dec.a + 1),
                              static_cast<int>(std::ceil(
                                  (dec.a + 1) * dec.t / (1.0 - dec.t))) +
                                  2);
    const int peer_cap = k_hi + dec.a + 12;
    const auto o1 = best_overlap_with_inactive(k_hi, tau, peer_cap);
    const auto o2 = best_overlap_with_inactive(k_hi + 3, tau, peer_cap);
    ASSERT_TRUE(o1.has_value()) << "tau=" << tau << " k=" << k_hi;
    ASSERT_TRUE(o2.has_value()) << "tau=" << tau;
    EXPECT_GT(o2->length(), o1->length()) << "tau=" << tau;
  }
}

TEST(WindowCoverage, WindowsAreWellFormed) {
  for (int a = 0; a <= 3; ++a) {
    for (int k = 2 * (a + 1); k <= 40; ++k) {
      const Interval w9 = lemma9_tau_window(k, a);
      const Interval w10 = lemma10_tau_window(k, a);
      EXPECT_LT(w9.lo, w9.hi);
      // The Lemma 10 window degenerates to the single point 2/3·2^{-a}
      // exactly at the boundary k = 2(a+1); it is proper beyond it.
      if (k == 2 * (a + 1)) {
        EXPECT_LE(w10.lo, w10.hi + 1e-12);
      } else {
        EXPECT_LT(w10.lo, w10.hi);
      }
      EXPECT_GT(w9.lo, 0.0);
      EXPECT_LT(w10.hi, 1.0 + 1e-12);
      // The two windows tile adjacent τ ranges: Lemma 9's upper edge
      // is 1.5·k/(k+1+a)·2^{-a-1} = (3/4)·k/(k+1+a)·2^{-a}, just below
      // Lemma 10's upper edge k/(k+1+a)·2^{-a}.
      EXPECT_LT(w9.hi, w10.hi + 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// Analytic coverage of Search(k) — Lemma 1 without simulation
// ---------------------------------------------------------------------------

TEST(AnalyticCoverage, EveryInRangePointIsWithinRhoOfATraversedCircle) {
  // For round k, any point with radius x ∈ [2^{−k}, 2^{k}] falls in
  // sub-round j = ⌊log₂ x⌋ + k, whose circles are spaced 2ρ_{j,k}
  // starting at 2^{−k+j}; the nearest circle is within ρ radially.
  rv::mathx::Xoshiro256 rng(99991);
  for (int k = 1; k <= 10; ++k) {
    for (int trial = 0; trial < 100; ++trial) {
      const double x = std::exp(
          rng.uniform(std::log(pow2(-k)), std::log(pow2(k) * 0.999)));
      const int j = rv::mathx::floor_log2(x) + k;
      ASSERT_GE(j, 0);
      ASSERT_LE(j, 2 * k - 1) << "x=" << x << " k=" << k;
      const auto sr = rv::search::sub_round(k, j);
      ASSERT_GE(x, sr.inner * (1.0 - 1e-12));
      ASSERT_LE(x, sr.outer * (1.0 + 1e-12));
      // Distance to the nearest circle radius inner + 2·i·ρ.
      const double steps = std::round((x - sr.inner) / (2.0 * sr.rho));
      const double nearest = sr.inner + 2.0 * steps * sr.rho;
      EXPECT_LE(std::abs(x - nearest), sr.rho * (1.0 + 1e-9))
          << "x=" << x << " k=" << k << " j=" << j;
    }
  }
}

TEST(AnalyticCoverage, GranularityTightensWithRounds) {
  // For a fixed point radius x, the covering granularity shrinks by 2
  // per round (ρ_{j(x),k} halves as k increments) — the mechanism that
  // eventually beats any unknown r.
  const double x = 1.3;
  double prev_rho = 1e300;
  for (int k = 1; k <= 12; ++k) {
    const int j = rv::mathx::floor_log2(x) + k;
    const auto sr = rv::search::sub_round(k, j);
    EXPECT_LT(sr.rho, prev_rho);
    if (k > 1) {
      EXPECT_NEAR(prev_rho / sr.rho, 2.0, 1e-9);
    }
    prev_rho = sr.rho;
  }
}

// ---------------------------------------------------------------------------
// Competitive yardsticks
// ---------------------------------------------------------------------------

TEST(Competitive, OfflineOptimumClosedForm) {
  using namespace rv::analysis;
  EXPECT_DOUBLE_EQ(offline_optimal_time(3.0, 1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(offline_optimal_time(3.0, 1.0, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(offline_optimal_time(0.5, 1.0, 1.0), 0.0);  // d < r
  EXPECT_THROW((void)offline_optimal_time(0.0, 1.0, 1.0),
               std::invalid_argument);
}

TEST(Competitive, AsymmetricWaitBound) {
  using namespace rv::analysis;
  EXPECT_DOUBLE_EQ(asymmetric_wait_lower_bound(3.0, 1.0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(asymmetric_wait_lower_bound(3.0, 1.0, 2.0), 1.0);
}

TEST(Competitive, RatioGuards) {
  using namespace rv::analysis;
  EXPECT_DOUBLE_EQ(competitive_ratio(10.0, 3.0, 1.0, 1.0), 10.0);
  EXPECT_THROW((void)competitive_ratio(10.0, 0.5, 1.0, 1.0),
               std::invalid_argument);
}

TEST(Competitive, SymmetricAlwaysPaysOverOffline) {
  // Any symmetric algorithm pays at least the offline optimum; check
  // the yardstick ordering used by the benches.
  using namespace rv::analysis;
  for (const double v : {0.5, 1.0, 2.0}) {
    const double opt = offline_optimal_time(2.0, 0.5, v);
    const double wait = asymmetric_wait_lower_bound(2.0, 0.5, v);
    EXPECT_LE(opt, wait + 1e-12) << v;
  }
}

}  // namespace
