// End-to-end integration tests: full two-robot simulations validating
// the paper's theorems — Theorem 2 (symmetric clocks), Theorem 3
// (asymmetric clocks), Theorem 4 (feasibility, both directions), and
// the rendezvous → search reduction identity on real trajectories.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/bounds.hpp"
#include "analysis/reduction.hpp"
#include "geom/difference_map.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "rendezvous/algorithm7.hpp"
#include "rendezvous/core.hpp"
#include "rendezvous/feasibility.hpp"
#include "rendezvous/schedule.hpp"
#include "search/algorithm4.hpp"
#include "search/times.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/traj.hpp"

namespace {

using rv::geom::RobotAttributes;
using rv::geom::Vec2;
using rv::mathx::kPi;
using namespace rv::rendezvous;

RobotAttributes attrs(double v, double tau, double phi, int chi) {
  RobotAttributes a;
  a.speed = v;
  a.time_unit = tau;
  a.orientation = phi;
  a.chirality = chi;
  return a;
}

Outcome run(const RobotAttributes& a, AlgorithmChoice algo, double d, double r,
            double horizon) {
  Scenario s;
  s.attrs = a;
  s.offset = {d, 0.0};
  s.visibility = r;
  s.algorithm = algo;
  s.max_time = horizon;
  return run_scenario(s);
}

// ---------------------------------------------------------------------------
// Theorem 2: symmetric clocks, Algorithm 4 as rendezvous
// ---------------------------------------------------------------------------

struct Theorem2Case {
  double v;
  double phi;
  int chi;
  double d;
  double r;
};

class Theorem2EndToEnd : public ::testing::TestWithParam<Theorem2Case> {};

TEST_P(Theorem2EndToEnd, MeetsWithinBound) {
  const Theorem2Case c = GetParam();
  const auto a = attrs(c.v, 1.0, c.phi, c.chi);
  const double bound = rv::analysis::theorem2_bound(a, c.d, c.r);
  // The unconditional guarantee (end of the guaranteed round of the
  // equivalent search instance) always holds; the closed-form bound
  // additionally holds when the equivalent instance is in Theorem 1's
  // applicable regime.
  const double guarantee = rv::analysis::theorem2_guaranteed_time(a, c.d, c.r);
  const double horizon = std::max(bound, guarantee) + 1.0;
  const Outcome out = run(a, AlgorithmChoice::kAlgorithm4, c.d, c.r, horizon);
  ASSERT_TRUE(out.sim.met) << "v=" << c.v << " phi=" << c.phi
                           << " chi=" << c.chi;
  EXPECT_LE(out.sim.time, guarantee + 1e-6);
  const double gain = c.chi == 1 ? rv::geom::mu(c.v, c.phi)
                                 : std::abs(1.0 - c.v);
  if (rv::search::theorem1_bound_applicable(c.d / gain, c.r / gain)) {
    EXPECT_LE(out.sim.time, bound);
  }
  EXPECT_LE(out.sim.distance, c.r + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AttributeGrid, Theorem2EndToEnd,
    ::testing::Values(
        // Different speeds, common chirality.
        Theorem2Case{2.0, 0.0, 1, 1.0, 0.2},
        Theorem2Case{0.5, 0.0, 1, 1.0, 0.2},
        Theorem2Case{3.0, 1.0, 1, 0.7, 0.15},
        // Orientation-only symmetry breaking (v = 1, χ = 1).
        Theorem2Case{1.0, kPi, 1, 1.0, 0.25},
        Theorem2Case{1.0, kPi / 2.0, 1, 1.0, 0.25},
        Theorem2Case{1.0, 0.4, 1, 0.5, 0.1},
        // Opposite chirality with different speeds.
        Theorem2Case{0.5, 0.0, -1, 1.0, 0.25},
        Theorem2Case{0.5, 2.0, -1, 1.0, 0.25},
        Theorem2Case{0.75, 4.0, -1, 0.6, 0.2},
        // Speed + orientation + chirality all different.
        Theorem2Case{1.5, 2.5, -1, 1.0, 0.3}));

TEST(Theorem2Extra, OffsetDirectionSweepOppositeChirality) {
  // Lemma 7's worst case is over offset directions; check several.
  const auto a = attrs(0.5, 1.0, 1.0, -1);
  const double d = 1.0, r = 0.25;
  const double bound = rv::analysis::theorem2_bound(a, d, r);
  for (const double ang : {0.0, 0.8, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6}) {
    Scenario s;
    s.attrs = a;
    s.offset = rv::geom::polar(d, ang);
    s.visibility = r;
    s.algorithm = AlgorithmChoice::kAlgorithm4;
    s.max_time = bound + 1.0;
    const Outcome out = run_scenario(s);
    ASSERT_TRUE(out.sim.met) << "angle " << ang;
    EXPECT_LE(out.sim.time, bound) << "angle " << ang;
  }
}

// ---------------------------------------------------------------------------
// Theorem 3: asymmetric clocks, Algorithm 7
// ---------------------------------------------------------------------------

struct Theorem3Case {
  double tau;
  double v;
  double d;
  double r;
};

class Theorem3EndToEnd : public ::testing::TestWithParam<Theorem3Case> {};

TEST_P(Theorem3EndToEnd, MeetsWithinLemma14Bound) {
  const Theorem3Case c = GetParam();
  // Identical speeds/compasses: only the clock differs — the case only
  // Algorithm 7 can solve.
  const auto a = attrs(c.v, c.tau, 0.0, 1);
  const double bound = rv::analysis::theorem3_bound(c.tau, c.d, c.r);
  const Outcome out =
      run(a, AlgorithmChoice::kAlgorithm7, c.d, c.r, bound + 1.0);
  ASSERT_TRUE(out.sim.met) << "tau=" << c.tau;
  EXPECT_LE(out.sim.time, bound);
}

INSTANTIATE_TEST_SUITE_P(ClockGrid, Theorem3EndToEnd,
                         ::testing::Values(
                             // τ = 1/2: the cleanest dyadic clock ratio.
                             Theorem3Case{0.5, 1.0, 1.0, 0.5},
                             // Non-dyadic ratio.
                             Theorem3Case{0.6, 1.0, 1.0, 0.5},
                             // Clock ratio > 1 (roles swap).
                             Theorem3Case{2.0, 1.0, 1.0, 0.5},
                             // Clock + speed difference together.
                             Theorem3Case{0.5, 2.0, 1.0, 0.5}));

TEST(Theorem3Extra, Algorithm7AlsoSolvesSymmetricClockCases) {
  // Theorem 4: Algorithm 7 is universal — it must also solve the τ = 1
  // families (speed/orientation differences).
  for (const auto& a : {attrs(2.0, 1.0, 0.0, 1), attrs(1.0, 1.0, kPi, 1)}) {
    const Outcome out = run(a, AlgorithmChoice::kAlgorithm7, 1.0, 0.5, 5e5);
    EXPECT_TRUE(out.sim.met) << describe(classify(a));
  }
}

// ---------------------------------------------------------------------------
// Theorem 4: infeasible families stay apart
// ---------------------------------------------------------------------------

TEST(InfeasibleCases, IdenticalRobotsKeepConstantSeparation) {
  const auto a = attrs(1.0, 1.0, 0.0, 1);
  ASSERT_FALSE(rendezvous_feasible(a));
  const Outcome out = run(a, AlgorithmChoice::kAlgorithm7, 1.0, 0.25, 2e4);
  EXPECT_FALSE(out.sim.met);
  // The separation is exactly invariant for identical robots.
  EXPECT_NEAR(out.sim.min_distance, 1.0, 1e-9);
}

TEST(InfeasibleCases, MirrorRobotsRespectInvariantLowerBound) {
  // χ = −1, v = τ = 1: T∘ is singular.  The component of the offset
  // perpendicular to the difference line can never shrink.
  for (const double phi : {0.0, 1.0, 2.5}) {
    const auto a = attrs(1.0, 1.0, phi, -1);
    ASSERT_FALSE(rendezvous_feasible(a));
    const Vec2 offset{1.0, 0.3};
    const double lower = separation_lower_bound(a, offset);
    Scenario s;
    s.attrs = a;
    s.offset = offset;
    s.visibility = 0.9 * lower > 0.0 ? 0.9 * lower : 0.05;
    s.algorithm = AlgorithmChoice::kAlgorithm7;
    s.max_time = 2e4;
    const Outcome out = run_scenario(s);
    if (lower > s.visibility) {
      EXPECT_FALSE(out.sim.met) << "phi=" << phi;
      EXPECT_GE(out.sim.min_distance, lower - 1e-6) << "phi=" << phi;
    }
  }
}

TEST(InfeasibleCases, MirrorSimulationMatchesAlgebraicInvariant) {
  // Simulate mirror robots and verify the separation's invariant
  // component stays constant along the whole trajectory.
  const double phi = 1.3;
  const auto a = attrs(1.0, 1.0, phi, -1);
  const Vec2 offset{0.8, 0.4};
  const auto t_circ = rv::geom::difference_matrix(1.0, phi, -1);
  const Vec2 col{t_circ.a, t_circ.c};
  const Vec2 u = rv::geom::normalized(col);
  const double invariant = std::abs(rv::geom::cross(u, offset));

  rv::sim::GlobalTrace trace1(std::make_shared<RendezvousProgram>(),
                              rv::geom::reference_attributes(), {0.0, 0.0},
                              2000.0);
  rv::sim::GlobalTrace trace2(std::make_shared<RendezvousProgram>(), a, offset,
                              2000.0);
  for (double t = 0.0; t < 2000.0; t += 37.0) {
    const Vec2 sep =
        rv::sim::position_at(trace1, t) - rv::sim::position_at(trace2, t);
    EXPECT_NEAR(std::abs(rv::geom::cross(u, sep)), invariant, 1e-6)
        << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Reduction identity on live trajectories (Definition 1)
// ---------------------------------------------------------------------------

TEST(ReductionIdentity, SeparationMatchesDifferenceMapOnAlgorithm4) {
  rv::mathx::Xoshiro256 rng(2718);
  for (int trial = 0; trial < 5; ++trial) {
    const auto a = rv::geom::validated(attrs(
        rng.uniform(0.5, 2.0), 1.0, rng.uniform(0.0, rv::mathx::kTwoPi),
        rng.uniform_int(0, 1) ? 1 : -1));
    const Vec2 offset{rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0)};
    const double horizon = 500.0;

    rv::sim::GlobalTrace trace1(rv::search::make_search_program(),
                                rv::geom::reference_attributes(), {0.0, 0.0},
                                horizon);
    rv::sim::GlobalTrace trace2(rv::search::make_search_program(), a, offset,
                                horizon);
    rv::traj::BufferedTrajectory local(rv::search::make_search_program());

    for (double t = 1.0; t < horizon; t += 13.7) {
      const Vec2 direct =
          rv::sim::position_at(trace1, t) - rv::sim::position_at(trace2, t);
      const Vec2 via_reduction = rv::analysis::separation_vector(
          local.position_at(t), a, offset);
      EXPECT_TRUE(rv::geom::approx_equal(direct, via_reduction, 1e-6))
          << "t=" << t << " trial=" << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// Universality: one algorithm, every feasible family (Theorem 4)
// ---------------------------------------------------------------------------

TEST(Universality, ProgramsNeverConsultHiddenAttributes) {
  // Section 1: "our robots are completely unaware of the value(s) of
  // their individual hidden parameters and do not make use of them in
  // the computations needed to run the algorithm."  In this library
  // that is architectural: `Program`s are constructed without any
  // RobotAttributes, so the emitted local segment stream is byte-for-
  // byte identical no matter which robot executes it.  Pin it by
  // comparing two independently created programs segment by segment.
  auto p1 = rv::rendezvous::make_rendezvous_program();
  auto p2 = rv::rendezvous::make_rendezvous_program();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(p1->next(), p2->next()) << "segment " << i;
  }
  auto s1 = rv::search::make_search_program();
  auto s2 = rv::search::make_search_program();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(s1->next(), s2->next()) << "segment " << i;
  }
}

TEST(Universality, Algorithm7SolvesEveryFeasibleFamilyWithoutKnowingWhich) {
  struct Family {
    RobotAttributes a;
    const char* label;
  };
  const Family families[] = {
      {attrs(1.0, 0.5, 0.0, 1), "clocks only"},
      {attrs(2.0, 1.0, 0.0, 1), "speeds only"},
      {attrs(1.0, 1.0, kPi, 1), "orientation only"},
      {attrs(0.5, 0.5, 1.0, -1), "everything different"},
  };
  for (const Family& f : families) {
    ASSERT_TRUE(rendezvous_feasible(f.a)) << f.label;
    const Outcome out = run(f.a, AlgorithmChoice::kAlgorithm7, 1.0, 0.5, 1e6);
    EXPECT_TRUE(out.sim.met) << f.label;
  }
}

}  // namespace
