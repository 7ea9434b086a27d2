// Additional simulator properties and edge cases: budget caps, exact
// boundary contacts, attribute interactions, result-field consistency.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "mathx/constants.hpp"
#include "search/algorithm4.hpp"
#include "search/times.hpp"
#include "sim/simulator.hpp"
#include "support/traj.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"

namespace {

using namespace rv::sim;
using rv::geom::RobotAttributes;
using rv::geom::Vec2;
using rv::traj::Path;
using rv::traj::PathProgram;
using rv::traj::StationaryProgram;

std::shared_ptr<rv::traj::Program> line_to(const Vec2& target) {
  Path p;
  p.line_to(target);
  return std::make_shared<PathProgram>(p, "line");
}

TEST(SimProperties, EvalBudgetCapTerminatesGracefully) {
  // Two robots orbiting far apart: the sweep would run to the horizon;
  // a tiny eval budget must stop it early without meeting.
  Path orbit;
  orbit.line_to({1.0, 0.0});
  orbit.arc_around({0.0, 0.0}, rv::mathx::kTwoPi);
  orbit.line_to({0.0, 0.0});
  SimOptions opts;
  opts.visibility = 0.1;
  opts.max_time = 1e9;
  opts.max_evals = 50;
  TwoRobotSimulator sim(
      {std::make_shared<PathProgram>(orbit, "o1"), RobotAttributes{},
       {0.0, 0.0}},
      {std::make_shared<PathProgram>(orbit, "o2"), RobotAttributes{},
       {100.0, 0.0}},
      opts);
  const SimResult res = sim.run();
  EXPECT_FALSE(res.met);
  EXPECT_LE(res.evals, 60u);  // cap plus the trailing position evals
}

TEST(SimProperties, ContactExactlyAtSegmentBoundary) {
  // Robot 2 walks exactly up to the visibility boundary and stops
  // (waits) there: contact occurs exactly at the end of its line
  // segment.
  Path approach;
  approach.line_to({-7.0, 0.0});  // from (10,0) to (3,0) globally
  SimOptions opts;
  opts.visibility = 3.0;
  opts.max_time = 100.0;
  TwoRobotSimulator sim(
      {std::make_shared<StationaryProgram>(), RobotAttributes{}, {0.0, 0.0}},
      {std::make_shared<PathProgram>(approach, "a"), RobotAttributes{},
       {10.0, 0.0}},
      opts);
  const SimResult res = sim.run();
  ASSERT_TRUE(res.met);
  EXPECT_NEAR(res.time, 7.0, 1e-6);
  EXPECT_NEAR(res.distance, 3.0, 1e-6);
}

TEST(SimProperties, FastSearcherAttributeScalesTime) {
  // A searcher with speed 2 runs the same local program at twice the
  // pace: the same target is found in half the time (same trajectory,
  // compressed clock).
  const Vec2 target{1.3, 0.9};
  SimOptions opts;
  opts.visibility = 0.25;
  opts.max_time = 1e5;
  const auto slow = simulate_search(rv::search::make_search_program(), target,
                                    opts, RobotAttributes{});
  RobotAttributes fast;
  fast.speed = 2.0;
  fast.time_unit = 0.5;  // distance unit v·τ = 1: identical geometry
  const auto quick = simulate_search(rv::search::make_search_program(), target,
                                     opts, fast);
  ASSERT_TRUE(slow.met);
  ASSERT_TRUE(quick.met);
  EXPECT_NEAR(quick.time, slow.time / 2.0, 1e-5 * slow.time);
}

TEST(SimProperties, ResultFieldsAreConsistent) {
  SimOptions opts;
  opts.visibility = 1.0;
  opts.max_time = 100.0;
  TwoRobotSimulator sim(
      {line_to({50.0, 0.0}), RobotAttributes{}, {0.0, 0.0}},
      {line_to({-50.0, 0.0}), RobotAttributes{}, {10.0, 0.0}}, opts);
  const SimResult res = sim.run();
  ASSERT_TRUE(res.met);
  EXPECT_NEAR(rv::geom::distance(res.position1, res.position2), res.distance,
              1e-12);
  EXPECT_LE(res.min_distance, res.distance + 1e-9);
  EXPECT_GE(res.time, 0.0);
  EXPECT_LE(res.time, opts.max_time);
}

TEST(SimProperties, HorizonFieldExactWhenNotMet) {
  SimOptions opts;
  opts.visibility = 0.5;
  opts.max_time = 42.0;
  TwoRobotSimulator sim(
      {std::make_shared<StationaryProgram>(), RobotAttributes{}, {0.0, 0.0}},
      {std::make_shared<StationaryProgram>(), RobotAttributes{},
       {100.0, 0.0}},
      opts);
  const SimResult res = sim.run();
  EXPECT_FALSE(res.met);
  EXPECT_LE(res.time, opts.max_time + 1e-9);
}

TEST(SimProperties, MirroredChiralityPairSymmetricApproach) {
  // Two robots with mirrored chirality running the same quarter-arc
  // program: their trajectories are reflections, so the y components
  // cancel symmetrically.  Verify the meet happens on the x axis
  // midline.
  Path quarter;
  quarter.line_to({5.0, 0.0});
  quarter.arc_around({0.0, 0.0}, rv::mathx::kPi / 2.0);
  RobotAttributes mirrored;
  mirrored.chirality = -1;
  SimOptions opts;
  opts.visibility = 0.5;
  opts.max_time = 50.0;
  TwoRobotSimulator sim(
      {std::make_shared<PathProgram>(quarter, "q1"), RobotAttributes{},
       {0.0, -4.0}},
      {std::make_shared<PathProgram>(quarter, "q2"), mirrored, {0.0, 4.0}},
      opts);
  const SimResult res = sim.run();
  if (res.met) {
    // Mirror symmetry about y = 0: the midpoint of the two robots sits
    // on the axis.
    EXPECT_NEAR(0.5 * (res.position1.y + res.position2.y), 0.0, 1e-6);
  }
  // Whether or not they meet, the separation history is symmetric —
  // smoke-assert the run completed within budget.
  EXPECT_LE(res.evals, 1000000u);
}

TEST(SimProperties, TinyTimeUnitRobotIsFastForward) {
  // τ = 0.01 compresses the peer's schedule 100×: its first zigs happen
  // almost immediately in global time.  Check the stream clock scaling
  // end to end: a unit local line takes 0.01 global units.
  RobotAttributes tiny;
  tiny.time_unit = 0.01;
  Path unit_line;
  unit_line.line_to({1.0, 0.0});
  rv::traj::GlobalSegmentStream stream(
      std::make_shared<PathProgram>(unit_line, "u"), tiny, {0.0, 0.0});
  const auto seg = stream.next();
  EXPECT_NEAR(seg.t1 - seg.t0, 0.01, 1e-12);
  EXPECT_NEAR(seg.speed(), 1.0, 1e-9);  // speed is still v = 1
}

TEST(SimProperties, SearchIsRotationallyCovariant) {
  // Rotating the target around the origin changes *when* it is found
  // but never *whether*; all rotations are found within the same
  // guaranteed round.
  const double d = 1.7, r = 0.2;
  const double guarantee = rv::search::time_first_rounds(
      rv::search::guaranteed_round(d, r));
  for (int i = 0; i < 12; ++i) {
    const double ang = rv::mathx::kTwoPi * i / 12.0;
    SimOptions opts;
    opts.visibility = r;
    opts.max_time = guarantee + 1.0;
    const auto res = simulate_search(rv::search::make_search_program(),
                                     rv::geom::polar(d, ang), opts);
    EXPECT_TRUE(res.met) << "angle " << ang;
    EXPECT_LE(res.time, guarantee + 1e-6) << "angle " << ang;
  }
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

/// A program that emits a poisoned segment after a few good ones.
class PoisonProgram final : public rv::traj::Program {
 public:
  explicit PoisonProgram(int poison_after) : remaining_(poison_after) {}
  [[nodiscard]] rv::traj::Segment next() override {
    if (remaining_-- > 0) {
      const rv::traj::Segment good =
          rv::traj::WaitSeg{{0.0, 0.0}, 1.0};
      return good;
    }
    return rv::traj::LineSeg{{0.0, 0.0}, {std::nan(""), 0.0}};
  }
  [[nodiscard]] std::string name() const override { return "poison"; }

 private:
  int remaining_;
};

TEST(FailureInjection, StreamRejectsNaNSegments) {
  rv::traj::GlobalSegmentStream stream(std::make_shared<PoisonProgram>(2),
                                       RobotAttributes{}, {0.0, 0.0});
  EXPECT_NO_THROW((void)stream.next());
  EXPECT_NO_THROW((void)stream.next());
  EXPECT_THROW((void)stream.next(), std::invalid_argument);
}

TEST(FailureInjection, SimulatorSurfacesProgramErrors) {
  SimOptions opts;
  opts.visibility = 0.5;
  opts.max_time = 100.0;
  TwoRobotSimulator sim(
      {std::make_shared<PoisonProgram>(1), RobotAttributes{}, {0.0, 0.0}},
      {std::make_shared<StationaryProgram>(), RobotAttributes{},
       {10.0, 0.0}},
      opts);
  EXPECT_THROW((void)sim.run(), std::invalid_argument);
}

TEST(FailureInjection, NegativeWaitRejected) {
  class NegativeWait final : public rv::traj::Program {
   public:
    [[nodiscard]] rv::traj::Segment next() override {
      return rv::traj::WaitSeg{{0.0, 0.0}, -5.0};
    }
    [[nodiscard]] std::string name() const override { return "negwait"; }
  };
  rv::traj::GlobalSegmentStream stream(std::make_shared<NegativeWait>(),
                                       RobotAttributes{}, {0.0, 0.0});
  EXPECT_THROW((void)stream.next(), std::invalid_argument);
}

}  // namespace
