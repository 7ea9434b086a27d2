// Tests for the search module: the Lemma 2 running-time algebra, the
// Algorithm 1–4 trajectory generators, coverage properties, the
// Theorem 1 bound, and the baseline searchers.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <tuple>

#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "search/algorithm4.hpp"
#include "search/baselines.hpp"
#include "search/emitter.hpp"
#include "search/paths.hpp"
#include "search/times.hpp"
#include "sim/simulator.hpp"
#include "traj/program.hpp"

namespace {

using namespace rv::search;
using rv::geom::Vec2;
using rv::mathx::pow2;
using rv::traj::Segment;

// ---------------------------------------------------------------------------
// Lemma 2 algebra
// ---------------------------------------------------------------------------

TEST(SearchTimes, SearchCircleClosedForm) {
  // 2(π+1)δ.
  EXPECT_NEAR(time_search_circle(1.0), 2.0 * (rv::mathx::kPi + 1.0), 1e-12);
  EXPECT_DOUBLE_EQ(time_search_circle(0.0), 0.0);
  EXPECT_THROW((void)time_search_circle(-1.0), std::invalid_argument);
}

TEST(SearchTimes, PathDurationMatchesSearchCircleFormula) {
  for (const double delta : {0.25, 1.0, 3.5, 10.0}) {
    const auto path = search_circle_path(delta);
    EXPECT_NEAR(path.duration(), time_search_circle(delta),
                1e-12 * (1.0 + path.duration()))
        << "delta = " << delta;
    EXPECT_TRUE(rv::geom::approx_equal(path.end(), {0.0, 0.0}, 1e-12));
  }
}

TEST(SearchTimes, PathDurationMatchesSearchAnnulusFormula) {
  const struct {
    double d1, d2, rho;
  } cases[] = {{0.5, 1.0, 0.125}, {1.0, 2.0, 0.03125}, {0.0, 1.0, 0.25},
               {2.0, 7.0, 0.4}};
  for (const auto& c : cases) {
    const auto path = search_annulus_path(c.d1, c.d2, c.rho);
    EXPECT_NEAR(path.duration(), time_search_annulus(c.d1, c.d2, c.rho),
                1e-9 * (1.0 + path.duration()))
        << c.d1 << ' ' << c.d2 << ' ' << c.rho;
  }
}

class SearchRoundAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(SearchRoundAlgebra, PathDurationMatchesLemma2) {
  const int k = GetParam();
  const auto path = search_round_path(k);
  // Lemma 2: Search(k) takes exactly 3(π+1)(k+1)·2^{k+1}.
  EXPECT_NEAR(path.duration(), time_search_round(k),
              1e-10 * path.duration());
  EXPECT_TRUE(rv::geom::approx_equal(path.end(), {0.0, 0.0}, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(SmallRounds, SearchRoundAlgebra,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(SearchTimes, FirstRoundsIsPrefixSumOfRounds) {
  // Lemma 2: Σ_{j=1..k} time_search_round(j) = 3(π+1)·k·2^{k+2}.
  double acc = 0.0;
  for (int k = 1; k <= 12; ++k) {
    acc += time_search_round(k);
    EXPECT_NEAR(acc, time_first_rounds(k), 1e-9 * acc) << "k = " << k;
  }
  EXPECT_DOUBLE_EQ(time_first_rounds(0), 0.0);
}

TEST(SearchTimes, SubRoundGeometry) {
  const SubRound sr = sub_round(3, 2);
  EXPECT_DOUBLE_EQ(sr.inner, pow2(-1));
  EXPECT_DOUBLE_EQ(sr.outer, pow2(0));
  EXPECT_DOUBLE_EQ(sr.rho, pow2(-6));
  EXPECT_EQ(sr.circles, (1LL << 4) + 1);
  // The defining invariant δ²_{j,k}/ρ_{j,k} = 2^{k+1} (proof of Lemma 3).
  for (int k = 1; k <= 8; ++k) {
    for (int j = 0; j <= 2 * k - 1; ++j) {
      const SubRound s = sub_round(k, j);
      EXPECT_NEAR(s.inner * s.inner / s.rho, pow2(k + 1), 1e-9)
          << "k=" << k << " j=" << j;
    }
  }
  EXPECT_THROW((void)sub_round(0, 0), std::invalid_argument);
  EXPECT_THROW((void)sub_round(2, 4), std::invalid_argument);
}

TEST(SearchTimes, RoundWaitFormula) {
  for (int k = 1; k <= 10; ++k) {
    EXPECT_NEAR(search_round_wait(k),
                3.0 * (rv::mathx::kPi + 1.0) * (pow2(k) + pow2(-k)), 1e-12);
  }
}

TEST(SearchTimes, Theorem1BoundFormula) {
  // 6(π+1)·log₂(d²/r)·(d²/r) for d = 1, r = 1/4: ratio 4, log 2.
  EXPECT_NEAR(theorem1_bound(1.0, 0.25), 6.0 * (rv::mathx::kPi + 1.0) * 2.0 * 4.0,
              1e-9);
  EXPECT_THROW((void)theorem1_bound(0.0, 1.0), std::invalid_argument);
}

TEST(SearchTimes, GuaranteedRoundCoversInstance) {
  for (const auto& [d, r] : std::vector<std::pair<double, double>>{
           {1.0, 0.25}, {2.0, 0.01}, {0.3, 0.05}, {5.0, 0.5}, {0.9, 0.9}}) {
    const int k = guaranteed_round(d, r);
    // Check the defining property: some sub-round of Search(k) reaches
    // distance d at granularity r.
    bool covered = false;
    for (int j = 0; j <= 2 * k - 1 && !covered; ++j) {
      const SubRound sr = sub_round(k, j);
      covered = (sr.outer >= d && sr.rho <= r);
    }
    EXPECT_TRUE(covered) << "d=" << d << " r=" << r << " k=" << k;
    // And minimality: no earlier round covers it.
    for (int kk = 1; kk < k; ++kk) {
      for (int j = 0; j <= 2 * kk - 1; ++j) {
        const SubRound sr = sub_round(kk, j);
        EXPECT_FALSE(sr.outer >= d && sr.rho <= r)
            << "earlier round " << kk << " also covers";
      }
    }
  }
}

TEST(SearchTimes, Lemma3LowerBound) {
  EXPECT_DOUBLE_EQ(lemma3_lower_bound(1), 4.0);
  EXPECT_DOUBLE_EQ(lemma3_lower_bound(5), 64.0);
  EXPECT_THROW((void)lemma3_lower_bound(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Emitter ↔ path equivalence
// ---------------------------------------------------------------------------

// Compares segments up to floating-point noise (path junctions carry
// ~1 ulp of sin(2π) error that the O(1) emitter does not).
void expect_segment_near(const Segment& got, const Segment& expected,
                         std::size_t index, int k) {
  ASSERT_EQ(got.index(), expected.index()) << "kind mismatch at " << index;
  EXPECT_TRUE(rv::geom::approx_equal(rv::traj::start_point(got),
                                     rv::traj::start_point(expected), 1e-9))
      << "segment " << index << " of round " << k;
  EXPECT_TRUE(rv::geom::approx_equal(rv::traj::end_point(got),
                                     rv::traj::end_point(expected), 1e-9))
      << "segment " << index << " of round " << k;
  EXPECT_NEAR(rv::traj::duration(got), rv::traj::duration(expected), 1e-9)
      << "segment " << index << " of round " << k;
}

class EmitterEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EmitterEquivalence, EmitsExactlyTheAlgorithm3Path) {
  const int k = GetParam();
  const auto path = search_round_path(k);
  SearchRoundEmitter emitter(k);
  std::size_t count = 0;
  for (const Segment& expected : path.segments()) {
    ASSERT_FALSE(emitter.done());
    const Segment got = emitter.next();
    expect_segment_near(got, expected, count, k);
    ++count;
  }
  EXPECT_TRUE(emitter.done());
  EXPECT_EQ(count, emitter.total_segments());
  EXPECT_THROW((void)emitter.next(), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(SmallRounds, EmitterEquivalence,
                         ::testing::Values(1, 2, 3, 4));

TEST(Emitter, RejectsBadRounds) {
  EXPECT_THROW(SearchRoundEmitter(0), std::invalid_argument);
  EXPECT_THROW(SearchRoundEmitter(31), std::invalid_argument);
}

TEST(Emitter, RadiiMatchTheClosedFormBitwise) {
  // The emitter computes each sub-round's 2^{−k+j} and 2^{−3k+2j−1}
  // once; every radius it emits must still be bitwise the per-circle
  // formula below, the oracle.
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int k = 1; k <= 8; ++k) {
    SearchRoundEmitter emitter(k);
    for (int j = 0; j <= 2 * k - 1; ++j) {
      const std::uint64_t m = std::uint64_t{1} << (2 * k - j);
      for (std::uint64_t i = 0; i <= m; ++i) {
        const double radius = pow2(-k + j) + 2.0 * static_cast<double>(i) *
                                                 pow2(-3 * k + 2 * j - 1);
        const Segment out = emitter.next();
        const Segment arc = emitter.next();
        const Segment back = emitter.next();
        ASSERT_EQ(bits(std::get<rv::traj::LineSeg>(out).to.x), bits(radius))
            << "k=" << k << " j=" << j << " i=" << i;
        ASSERT_EQ(bits(std::get<rv::traj::ArcSeg>(arc).radius), bits(radius))
            << "k=" << k << " j=" << j << " i=" << i;
        ASSERT_EQ(bits(std::get<rv::traj::LineSeg>(back).from.x),
                  bits(radius))
            << "k=" << k << " j=" << j << " i=" << i;
      }
    }
    EXPECT_TRUE(std::holds_alternative<rv::traj::WaitSeg>(emitter.next()));
    EXPECT_TRUE(emitter.done());
  }
}

// ---------------------------------------------------------------------------
// Algorithm 4 program
// ---------------------------------------------------------------------------

TEST(Algorithm4, EmitsContinuousTrajectoryAcrossRounds) {
  SearchProgram prog;
  Vec2 cursor{0.0, 0.0};
  double clock = 0.0;
  int segments = 0;
  while (prog.current_round() <= 2) {
    const Segment seg = prog.next();
    EXPECT_TRUE(rv::geom::approx_equal(rv::traj::start_point(seg), cursor,
                                       1e-9))
        << "discontinuity at segment " << segments;
    cursor = rv::traj::end_point(seg);
    clock += rv::traj::duration(seg);
    ++segments;
  }
  EXPECT_GT(segments, 10);
}

TEST(Algorithm4, RoundMarksMatchLemma2PrefixSums) {
  rv::traj::MarkRecorder rec;
  SearchProgram prog(1, &rec);
  // Pull segments until round 5 begins.
  while (prog.current_round() < 5) (void)prog.next();
  for (int k = 2; k <= 5; ++k) {
    const auto* mark = rec.find("round " + std::to_string(k) + " begin");
    ASSERT_NE(mark, nullptr) << k;
    EXPECT_NEAR(mark->local_time, time_first_rounds(k - 1),
                1e-9 * (1.0 + mark->local_time))
        << "round " << k;
  }
}

TEST(Algorithm4, FactoryProducesFreshPrograms) {
  auto p1 = make_search_program();
  auto p2 = make_search_program();
  EXPECT_NE(p1.get(), p2.get());
  EXPECT_EQ(p1->name(), "algorithm4");
}

// ---------------------------------------------------------------------------
// End-to-end search: Theorem 1 (experiment E1's property form)
// ---------------------------------------------------------------------------

struct SearchCase {
  double d;
  double r;
  double angle;
};

class SearchEndToEnd : public ::testing::TestWithParam<SearchCase> {};

TEST_P(SearchEndToEnd, FindsTargetWithinTheorem1Bound) {
  const SearchCase c = GetParam();
  const Vec2 target = rv::geom::polar(c.d, c.angle);
  // The unconditional guarantee holds for every instance; the
  // closed-form bound additionally holds when Lemma 1's (k, j) pair is
  // valid (see theorem1_bound_applicable).
  const double guarantee = time_first_rounds(guaranteed_round(c.d, c.r));
  rv::sim::SimOptions opts;
  opts.visibility = c.r;
  opts.max_time = guarantee + 1.0;
  const auto res = rv::sim::simulate_search(make_search_program(), target, opts);
  ASSERT_TRUE(res.met) << "d=" << c.d << " r=" << c.r << " ang=" << c.angle;
  EXPECT_LE(res.time, guarantee + 1e-6);
  if (theorem1_bound_applicable(c.d, c.r)) {
    EXPECT_LE(res.time, theorem1_bound(c.d, c.r));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SearchEndToEnd,
    ::testing::Values(SearchCase{1.0, 0.25, 0.0},
                      SearchCase{1.0, 0.25, 2.0},
                      SearchCase{0.5, 0.125, 1.0},
                      SearchCase{2.0, 0.125, 4.0},
                      SearchCase{3.0, 0.25, 5.5},
                      SearchCase{0.3, 0.04, 0.7},  // bound not applicable
                      SearchCase{1.7, 0.06, 3.1},
                      SearchCase{4.0, 0.5, 1.3}));

TEST(SearchEndToEndExtra, BoundApplicabilityPredicate) {
  // Canonical applicable instances: d ≥ 1 with a healthy ratio.
  EXPECT_TRUE(theorem1_bound_applicable(1.0, 0.25));
  EXPECT_TRUE(theorem1_bound_applicable(2.0, 0.125));
  EXPECT_TRUE(theorem1_bound_applicable(4.0, 0.5));
  // Tiny d relative to the ratio: Lemma 1's j goes negative.
  EXPECT_FALSE(theorem1_bound_applicable(0.3, 0.04));
  // Ratio below 2: k = 0.
  EXPECT_FALSE(theorem1_bound_applicable(0.7, 0.48));
  EXPECT_THROW((void)theorem1_bound_applicable(0.0, 1.0),
               std::invalid_argument);
}

TEST(SearchEndToEndExtra, RandomisedInstancesStayUnderBound) {
  rv::mathx::Xoshiro256 rng(4242);
  int checked = 0;
  for (int i = 0; i < 12 && checked < 5; ++i) {
    const double d = std::exp(rng.uniform(std::log(1.0), std::log(3.0)));
    const double r = std::exp(rng.uniform(std::log(0.05), std::log(0.25)));
    const double ang = rng.uniform(0.0, rv::mathx::kTwoPi);
    if (!theorem1_bound_applicable(d, r)) continue;
    ++checked;
    rv::sim::SimOptions opts;
    opts.visibility = r;
    opts.max_time = theorem1_bound(d, r) + 1.0;
    const auto res =
        rv::sim::simulate_search(make_search_program(), rv::geom::polar(d, ang),
                                 opts);
    ASSERT_TRUE(res.met) << "d=" << d << " r=" << r;
    EXPECT_LE(res.time, theorem1_bound(d, r));
  }
  EXPECT_GE(checked, 3);
}

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

TEST(Baselines, EmitContinuousTrajectories) {
  for (const auto& prog : {make_concentric_baseline(),
                           make_square_spiral_baseline()}) {
    Vec2 cursor{0.0, 0.0};
    for (int i = 0; i < 500; ++i) {
      const Segment seg = prog->next();
      ASSERT_TRUE(rv::geom::approx_equal(rv::traj::start_point(seg), cursor,
                                         1e-9))
          << prog->name() << " discontinuity at segment " << i;
      cursor = rv::traj::end_point(seg);
    }
  }
}

class BaselineCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(BaselineCorrectness, BothBaselinesSolveSearch) {
  // Baselines are correct universal searchers: they must find the
  // target eventually (within their own doubling bound).
  const int which = GetParam();
  auto prog = which == 0 ? make_concentric_baseline()
                         : make_square_spiral_baseline();
  const Vec2 target = rv::geom::polar(1.3, 2.2);
  rv::sim::SimOptions opts;
  opts.visibility = 0.3;
  opts.max_time = 1e5;
  const auto res = rv::sim::simulate_search(std::move(prog), target, opts);
  ASSERT_TRUE(res.met);
  EXPECT_GT(res.time, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Both, BaselineCorrectness, ::testing::Values(0, 1));

}  // namespace
