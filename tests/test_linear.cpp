// Tests for the 1-D (infinite line) module: zigzag search, the linear
// rendezvous program, feasibility on the line, and end-to-end
// simulations reusing the 2-D certified simulator.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "linear/linear_rendezvous.hpp"
#include "linear/zigzag.hpp"
#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace rv::linear;
using rv::geom::Vec2;
using rv::mathx::pow2;
using rv::traj::Segment;

// ---------------------------------------------------------------------------
// ZigZag program
// ---------------------------------------------------------------------------

TEST(ZigZag, RoundStructureAndTimes) {
  ZigZagProgram prog;
  double acc = 0.0;
  for (int k = 1; k <= 6; ++k) {
    double round = 0.0;
    for (int leg = 0; leg < 4; ++leg) round += rv::traj::duration(prog.next());
    EXPECT_NEAR(round, 4.0 * pow2(k), 1e-12) << k;
    acc += round;
    EXPECT_NEAR(acc, zigzag_prefix_time(k), 1e-12) << k;
  }
  EXPECT_DOUBLE_EQ(zigzag_prefix_time(0), 0.0);
}

TEST(ZigZag, StaysOnAxisAndContinuous) {
  ZigZagProgram prog;
  Vec2 cursor{0.0, 0.0};
  for (int i = 0; i < 40; ++i) {
    const Segment seg = prog.next();
    EXPECT_TRUE(rv::geom::approx_equal(rv::traj::start_point(seg), cursor));
    cursor = rv::traj::end_point(seg);
    EXPECT_DOUBLE_EQ(cursor.y, 0.0);
  }
}

TEST(ZigZag, ReachBound) {
  EXPECT_DOUBLE_EQ(zigzag_reach_bound(1.0), zigzag_prefix_time(1));
  EXPECT_DOUBLE_EQ(zigzag_reach_bound(3.0), zigzag_prefix_time(2));
  EXPECT_DOUBLE_EQ(zigzag_reach_bound(-5.0), zigzag_prefix_time(3));
  EXPECT_THROW((void)zigzag_reach_bound(0.0), std::invalid_argument);
}

TEST(ZigZag, LinearSearchIsThetaOfD) {
  // The line needs no visibility radius: the zigzag *crosses* every
  // point.  Check the reach bound is linear in d (vs the plane's
  // superlinear d²/r).
  for (const double d : {1.0, 4.0, 16.0, 64.0}) {
    EXPECT_LE(zigzag_reach_bound(d), 16.0 * d);
  }
}

TEST(ZigZag, FindsTargetsOnBothSides) {
  for (const double x : {2.5, -3.7, 0.4, -0.9}) {
    rv::sim::SimOptions opts;
    opts.visibility = 0.01;
    opts.max_time = zigzag_reach_bound(x) + 1.0;
    const auto res =
        rv::sim::simulate_search(make_zigzag_program(), {x, 0.0}, opts);
    EXPECT_TRUE(res.met) << x;
    EXPECT_LE(res.time, zigzag_reach_bound(x)) << x;
  }
}

// ---------------------------------------------------------------------------
// Linear schedule algebra
// ---------------------------------------------------------------------------

TEST(LinearSchedule, ProgramMatchesClosedForms) {
  // Round n opens with an inactive wait at I_lin(n) = 4·Σ_{j<n} Z(j)
  // = 32(2ⁿ − n − 1), and that wait lasts 2·Z(n).
  LinearRendezvousProgram prog;
  double clock = 0.0;
  int n_seen = 0;
  // Walk segments, detecting the wait segments that open each round.
  for (int i = 0; i < 4000 && n_seen < 6; ++i) {
    const Segment seg = prog.next();
    if (std::holds_alternative<rv::traj::WaitSeg>(seg)) {
      ++n_seen;
      EXPECT_NEAR(clock, 32.0 * (pow2(n_seen) - n_seen - 1.0),
                  1e-9 * (1.0 + clock))
          << "round " << n_seen;
      EXPECT_NEAR(std::get<rv::traj::WaitSeg>(seg).duration,
                  2.0 * linear_search_all_time(n_seen), 1e-9);
    }
    clock += rv::traj::duration(seg);
  }
  EXPECT_EQ(n_seen, 6);
}

// ---------------------------------------------------------------------------
// Feasibility on the line
// ---------------------------------------------------------------------------

TEST(LinearFeasibility, CharacterisationMatchesPaperReduction) {
  LinearAttributes same;
  EXPECT_FALSE(linear_rendezvous_feasible(same));
  LinearAttributes speed;
  speed.speed = 2.0;
  EXPECT_TRUE(linear_rendezvous_feasible(speed));
  LinearAttributes clock;
  clock.time_unit = 0.5;
  EXPECT_TRUE(linear_rendezvous_feasible(clock));
  LinearAttributes dir;
  dir.direction = -1;
  EXPECT_TRUE(linear_rendezvous_feasible(dir));
}

TEST(LinearFeasibility, PlanarLiftIsConsistent) {
  // δ = −1 lifts to φ = π (feasible by Theorem 4's orientation branch);
  // identical robots lift to the infeasible identity tuple.
  LinearAttributes dir;
  dir.direction = -1;
  const auto planar = to_planar(dir);
  EXPECT_DOUBLE_EQ(planar.orientation, rv::mathx::kPi);
  LinearAttributes same;
  EXPECT_EQ(to_planar(same), rv::geom::reference_attributes());
  LinearAttributes bad;
  bad.direction = 0;
  EXPECT_THROW((void)to_planar(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end linear rendezvous
// ---------------------------------------------------------------------------

class LinearRendezvousEndToEnd
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(LinearRendezvousEndToEnd, FeasibleTuplesMeet) {
  const auto [v, tau, dir] = GetParam();
  LinearAttributes attrs;
  attrs.speed = v;
  attrs.time_unit = tau;
  attrs.direction = dir;
  ASSERT_TRUE(linear_rendezvous_feasible(attrs));
  rv::sim::SimOptions opts;
  opts.visibility = 0.05;
  opts.max_time = 1e6;
  const auto res = rv::sim::simulate_rendezvous(
      [] { return make_linear_rendezvous_program(); }, to_planar(attrs),
      {1.0, 0.0}, opts);
  EXPECT_TRUE(res.met) << "v=" << v << " tau=" << tau << " dir=" << dir;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LinearRendezvousEndToEnd,
    ::testing::Values(std::make_tuple(2.0, 1.0, 1),
                      std::make_tuple(0.5, 1.0, 1),
                      std::make_tuple(1.0, 0.5, 1),
                      std::make_tuple(1.0, 0.75, 1),
                      std::make_tuple(1.0, 1.0, -1),
                      std::make_tuple(1.5, 0.5, -1)));

TEST(LinearRendezvousEndToEndExtra, IdenticalRobotsNeverMeet) {
  LinearAttributes same;
  ASSERT_FALSE(linear_rendezvous_feasible(same));
  rv::sim::SimOptions opts;
  opts.visibility = 0.05;
  opts.max_time = 1e4;
  const auto res = rv::sim::simulate_rendezvous(
      [] { return make_linear_rendezvous_program(); }, to_planar(same),
      {1.0, 0.0}, opts);
  EXPECT_FALSE(res.met);
  EXPECT_NEAR(res.min_distance, 1.0, 1e-9);
}

TEST(LinearRendezvousEndToEndExtra, LineBeatsPlaneOnClockCases) {
  // Same clock ratio, same d and r: the 1-D schedule meets no later
  // than the 2-D Algorithm 7 within the shared horizon (the zigzag
  // re-crosses the peer's origin far more often than the annulus
  // sweep).  This is an observation, not a theorem — assert only that
  // the 1-D case meets and report-style compare.
  LinearAttributes attrs;
  attrs.time_unit = 0.5;
  rv::sim::SimOptions opts;
  opts.visibility = 0.2;
  opts.max_time = 1e6;
  const auto line = rv::sim::simulate_rendezvous(
      [] { return make_linear_rendezvous_program(); }, to_planar(attrs),
      {1.0, 0.0}, opts);
  ASSERT_TRUE(line.met);
  EXPECT_GT(line.time, 0.0);
}

}  // namespace
