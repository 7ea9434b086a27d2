// Property tests for the pairwise metric kernel: on randomized and
// degenerate fleets the squared-distance pair loop must return the
// exact same metric value (bitwise) and the exact same extremal pair —
// including the lexicographic tie-break order — as the historical
// hypot loop; the O(n) top-two-speeds Lipschitz bound must equal the
// O(n²) pair maximum; and SweepOptions must reject non-finite knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "engine/contact_sweep.hpp"
#include "engine/metric_kernel.hpp"
#include "geom/vec2.hpp"
#include "mathx/constants.hpp"
#include "rendezvous/algorithm7.hpp"

namespace {

using rv::engine::max_pairwise;
using rv::engine::min_pairwise;
using rv::geom::ExtremalPair;
using rv::geom::Vec2;

// ---------------------------------------------------------------------------
// Deterministic randomness (no <random> so sequences are pinned
// across standard libraries).
// ---------------------------------------------------------------------------

struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  }
  double uniform() {  // [0, 1)
    return static_cast<double>(next() % (1ULL << 40)) /
           static_cast<double>(1ULL << 40);
  }
  int index(int n) { return static_cast<int>(next() % n); }
};

// ---------------------------------------------------------------------------
// The oracle: the historical O(n²) loop exactly as ContactSweep wrote
// it before the kernel layer (hypot per pair, strict comparison, first
// attaining pair wins).
// ---------------------------------------------------------------------------

template <rv::geom::ExtremalSense Sense>
ExtremalPair oracle(const std::vector<Vec2>& pts) {
  constexpr bool kMin = Sense == rv::geom::ExtremalSense::kLess;
  double best = kMin ? std::numeric_limits<double>::infinity()
                     : -std::numeric_limits<double>::infinity();
  int bi = -1, bj = -1;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      const double d = rv::geom::distance(pts[i], pts[j]);
      if (kMin ? d < best : d > best) {
        best = d;
        bi = static_cast<int>(i);
        bj = static_cast<int>(j);
      }
    }
  }
  return {best, bi, bj};
}

void expect_matches_oracle(const std::vector<Vec2>& pts, const char* what) {
  using rv::geom::ExtremalSense;
  for (const auto& [want, got] :
       {std::pair{oracle<ExtremalSense::kLess>(pts), min_pairwise(pts)},
        std::pair{oracle<ExtremalSense::kGreater>(pts), max_pairwise(pts)}}) {
    EXPECT_EQ(want.distance, got.distance) << what;
    EXPECT_EQ(want.i, got.i) << what;
    EXPECT_EQ(want.j, got.j) << what;
  }
}

// ---------------------------------------------------------------------------
// Fleet generators
// ---------------------------------------------------------------------------

std::vector<Vec2> uniform_cloud(Lcg& rng, int n, double scale) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({scale * rng.uniform(), scale * rng.uniform()});
  }
  return pts;
}

std::vector<Vec2> clustered(Lcg& rng, int n, int clusters) {
  std::vector<Vec2> centers = uniform_cloud(rng, clusters, 10.0);
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) {
    const Vec2 c = centers[rng.index(clusters)];
    pts.push_back(
        {c.x + 1e-3 * rng.uniform(), c.y + 1e-3 * rng.uniform()});
  }
  return pts;
}

/// Exactly collinear: integer multiples of an exact double direction,
/// in shuffled order (cross products are exact zeros).
std::vector<Vec2> collinear(Lcg& rng, int n) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) {
    const double k = static_cast<double>(rng.index(4 * n));
    pts.push_back({0.25 * k, 0.5 * k});
  }
  return pts;
}

std::vector<Vec2> ring(int n, double phase) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back(rv::geom::polar(1.0, rv::mathx::kTwoPi * i / n + phase));
  }
  return pts;
}

/// Injects exact duplicates into a cloud.
std::vector<Vec2> with_duplicates(Lcg& rng, std::vector<Vec2> pts) {
  const int m = static_cast<int>(pts.size());
  for (int i = 0; i < m / 2; ++i) {
    pts.push_back(pts[rng.index(m)]);
  }
  return pts;
}

// ---------------------------------------------------------------------------
// Kernel == oracle on randomized and structured fleets
// ---------------------------------------------------------------------------

TEST(MetricKernel, MatchesOracleOnUniformClouds) {
  Lcg rng(0x12345678ULL);
  for (const int n : {2, 3, 7, 16, 47, 48, 49, 120, 300}) {
    for (int rep = 0; rep < 8; ++rep) {
      expect_matches_oracle(uniform_cloud(rng, n, 4.0), "uniform");
    }
  }
}

TEST(MetricKernel, MatchesOracleOnClusteredFleets) {
  Lcg rng(0xC0FFEEULL);
  for (const int n : {10, 64, 200}) {
    for (int rep = 0; rep < 8; ++rep) {
      expect_matches_oracle(clustered(rng, n, 1 + rep % 5), "clustered");
    }
  }
}

TEST(MetricKernel, MatchesOracleOnCollinearFleets) {
  Lcg rng(0xBEEFULL);
  for (const int n : {2, 3, 8, 60, 150}) {
    for (int rep = 0; rep < 8; ++rep) {
      expect_matches_oracle(collinear(rng, n), "collinear");
    }
  }
}

TEST(MetricKernel, MatchesOracleOnRings) {
  // The gather family's layout: many symmetric distance ties, so this
  // pins the lexicographic tie-break end to end.
  for (const int n : {3, 4, 8, 60, 64, 127, 128, 256}) {
    expect_matches_oracle(ring(n, 0.0), "ring");
    expect_matches_oracle(ring(n, 0.37), "ring+phase");
  }
}

TEST(MetricKernel, MatchesOracleWithCoincidentRobots) {
  Lcg rng(0xD15EA5EULL);
  for (const int n : {2, 5, 40, 90}) {
    for (int rep = 0; rep < 8; ++rep) {
      expect_matches_oracle(with_duplicates(rng, uniform_cloud(rng, n, 2.0)),
                            "duplicates");
    }
  }
  // Entire fleet coincident: every pair attains 0; the tie-break picks
  // (0, 1).
  const std::vector<Vec2> all_same(70, Vec2{0.5, -0.25});
  expect_matches_oracle(all_same, "all-coincident");
}

TEST(MetricKernel, MatchesOracleOnDegenerateSegments) {
  // The whole fleet on one segment: exact endpoints, interior points at
  // safe fractions.
  Lcg rng(0xFACEULL);
  const Vec2 a{-3.0, 1.0}, b{5.0, -2.0};
  for (const int n : {2, 3, 50, 130}) {
    std::vector<Vec2> pts{a, b};
    for (int i = 2; i < n; ++i) {
      pts.push_back(rv::geom::lerp(a, b, (1 + rng.index(15)) / 16.0));
    }
    expect_matches_oracle(pts, "segment");
  }
  // Two robots only (the paper's rendezvous case) — must stay
  // bit-exact.
  expect_matches_oracle({Vec2{0.1, 0.2}, Vec2{-1.0, 0.7}}, "two-robot");
  expect_matches_oracle({Vec2{0.1, 0.2}, Vec2{0.1, 0.2}}, "two-coincident");
}

TEST(MetricKernel, RejectsDegenerateInputs) {
  EXPECT_THROW((void)min_pairwise({}), std::invalid_argument);
  EXPECT_THROW((void)max_pairwise({Vec2{0, 0}}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// O(n) Lipschitz bound == O(n²) pair maximum
// ---------------------------------------------------------------------------

TEST(MetricKernel, TopTwoSpeedSumEqualsPairMaximum) {
  Lcg rng(0xAB5EULL);
  for (int rep = 0; rep < 200; ++rep) {
    const int n = 2 + rng.index(40);
    std::vector<double> speeds;
    for (int i = 0; i < n; ++i) {
      // Mix of zeros (waits), exact ties, and irrational-ish values.
      const int kind = rng.index(4);
      if (kind == 0) {
        speeds.push_back(0.0);
      } else if (kind == 1) {
        speeds.push_back(1.5);
      } else {
        speeds.push_back(3.0 * rng.uniform());
      }
    }
    double brute = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        brute = std::max(brute, speeds[i] + speeds[j]);
      }
    }
    EXPECT_EQ(brute, rv::engine::lipschitz_speed_sum(speeds));
  }
  // Order independence: the maximum pair sum does not care where the
  // top two sit.
  std::vector<double> v{0.25, 7.0, 7.0, 0.5};
  EXPECT_EQ(14.0, rv::engine::lipschitz_speed_sum(v));
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(14.0, rv::engine::lipschitz_speed_sum(v));
  EXPECT_THROW((void)rv::engine::lipschitz_speed_sum({1.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SweepOptions validation: non-finite knobs must not slip through
// ---------------------------------------------------------------------------

TEST(SweepOptions, RejectsNonFiniteKnobs) {
  auto robots = [] {
    std::vector<rv::engine::RobotSpec> specs;
    specs.push_back({rv::rendezvous::make_rendezvous_program(),
                     rv::geom::RobotAttributes{}, Vec2{0.0, 0.0}});
    specs.push_back({rv::rendezvous::make_rendezvous_program(),
                     rv::geom::RobotAttributes{}, Vec2{1.0, 0.0}});
    return specs;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto expect_rejected = [&](auto mutate) {
    rv::engine::SweepOptions opts;
    mutate(opts);
    EXPECT_THROW(rv::engine::ContactSweep(
                     robots(), rv::engine::SweepMetric::kMinPairwise, opts),
                 std::invalid_argument);
  };
  for (const double bad : {inf, -inf, nan}) {
    expect_rejected([bad](auto& o) { o.visibility = bad; });
    expect_rejected([bad](auto& o) { o.max_time = bad; });
    expect_rejected([bad](auto& o) { o.contact_tol = bad; });
    expect_rejected([bad](auto& o) { o.time_tol = bad; });
    expect_rejected([bad](auto& o) { o.min_step = bad; });
  }
  // The defaults remain valid.
  rv::engine::SweepOptions ok;
  EXPECT_NO_THROW(rv::engine::ContactSweep(
      robots(), rv::engine::SweepMetric::kMinPairwise, ok));
}

}  // namespace
