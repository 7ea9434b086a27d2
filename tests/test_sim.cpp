// Tests for the continuous-time simulator: analytic contact cases,
// certified stepping, option validation, trace recording.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "mathx/constants.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/traj.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"

namespace {

using namespace rv::sim;
using rv::geom::RobotAttributes;
using rv::geom::Vec2;
using rv::mathx::kPi;
using rv::traj::Path;
using rv::traj::PathProgram;
using rv::traj::StationaryProgram;

std::shared_ptr<rv::traj::Program> straight_line(const Vec2& to) {
  Path p;
  p.line_to(to);
  return std::make_shared<PathProgram>(p, "line");
}

SimOptions options_with(double r, double horizon = 1e6) {
  SimOptions o;
  o.visibility = r;
  o.max_time = horizon;
  return o;
}

// ---------------------------------------------------------------------------
// Analytic contact cases
// ---------------------------------------------------------------------------

TEST(Simulator, HeadOnApproachMeetsAtClosedFormTime) {
  // Robots 10 apart, moving toward each other at speed 1 each, r = 2:
  // separation 10 − 2t = 2 at t = 4.
  RobotSpec a{straight_line({100.0, 0.0}), RobotAttributes{}, {0.0, 0.0}};
  RobotSpec b{straight_line({-100.0, 0.0}), RobotAttributes{}, {10.0, 0.0}};
  TwoRobotSimulator sim(std::move(a), std::move(b), options_with(2.0));
  const SimResult res = sim.run();
  ASSERT_TRUE(res.met);
  EXPECT_NEAR(res.time, 4.0, 1e-7);
  EXPECT_NEAR(res.distance, 2.0, 1e-6);
}

TEST(Simulator, ChaseWithDifferentSpeeds) {
  // Pursuer at speed 2 (v = 2) chasing a unit-speed runner 6 ahead,
  // r = 1: gap 6 − t = 1 at t = 5.
  RobotAttributes fast;
  fast.speed = 2.0;
  RobotSpec runner{straight_line({1000.0, 0.0}), RobotAttributes{}, {6.0, 0.0}};
  RobotSpec pursuer{straight_line({1000.0, 0.0}), fast, {0.0, 0.0}};
  TwoRobotSimulator sim(std::move(pursuer), std::move(runner),
                        options_with(1.0));
  const SimResult res = sim.run();
  ASSERT_TRUE(res.met);
  EXPECT_NEAR(res.time, 5.0, 1e-7);
}

TEST(Simulator, AlreadyInContactAtStart) {
  RobotSpec a{std::make_shared<StationaryProgram>(), RobotAttributes{},
              {0.0, 0.0}};
  RobotSpec b{std::make_shared<StationaryProgram>(), RobotAttributes{},
              {0.5, 0.0}};
  TwoRobotSimulator sim(std::move(a), std::move(b), options_with(1.0));
  const SimResult res = sim.run();
  ASSERT_TRUE(res.met);
  EXPECT_DOUBLE_EQ(res.time, 0.0);
}

TEST(Simulator, StationaryPairNeverMeets) {
  RobotSpec a{std::make_shared<StationaryProgram>(), RobotAttributes{},
              {0.0, 0.0}};
  RobotSpec b{std::make_shared<StationaryProgram>(), RobotAttributes{},
              {10.0, 0.0}};
  TwoRobotSimulator sim(std::move(a), std::move(b), options_with(1.0, 100.0));
  const SimResult res = sim.run();
  EXPECT_FALSE(res.met);
  EXPECT_NEAR(res.min_distance, 10.0, 1e-12);
  EXPECT_LE(res.evals, 100u);  // long waits are skipped in O(1) evals
}

TEST(Simulator, PerpendicularFlyby) {
  // Robot 2 crosses the x axis at x = 5 moving up; robot 1 stationary
  // at origin with r = 3.  Contact when sqrt(25 + y²)... never ≤ 3:
  // min distance is 5 — no contact.  With r = 6: contact at y = ±√11,
  // first contact at y = −√11, i.e. t = 10 − √11.
  Path crossing({0.0, 0.0});
  crossing.line_to({0.0, 20.0});
  auto make_crossing = [&] {
    return std::make_shared<PathProgram>(crossing, "crossing");
  };

  RobotSpec stat1{std::make_shared<StationaryProgram>(), RobotAttributes{},
                  {0.0, 0.0}};
  RobotSpec mover1{make_crossing(), RobotAttributes{}, {5.0, -10.0}};
  TwoRobotSimulator miss(std::move(stat1), std::move(mover1),
                         options_with(3.0, 50.0));
  const SimResult miss_res = miss.run();
  EXPECT_FALSE(miss_res.met);
  // min_distance is tracked at evaluation points only; near the closest
  // approach the Lipschitz steps are ~2 time units, so allow slack.
  EXPECT_NEAR(miss_res.min_distance, 5.0, 0.5);
  EXPECT_GE(miss_res.min_distance, 5.0 - 1e-9);

  RobotSpec stat2{std::make_shared<StationaryProgram>(), RobotAttributes{},
                  {0.0, 0.0}};
  RobotSpec mover2{make_crossing(), RobotAttributes{}, {5.0, -10.0}};
  TwoRobotSimulator hit(std::move(stat2), std::move(mover2),
                        options_with(6.0, 50.0));
  const SimResult hit_res = hit.run();
  ASSERT_TRUE(hit_res.met);
  EXPECT_NEAR(hit_res.time, 10.0 - std::sqrt(11.0), 1e-6);
}

TEST(Simulator, ArcContactMatchesGeometry) {
  // Robot 2 walks the unit circle around its origin (10, 0); robot 1
  // sits at the global origin with r = 9.5.  Contact when the circle
  // walker reaches distance 9.5, i.e. position angle θ with
  // |10 + e^{iθ}| = 9.5 → cosθ = (9.5² − 101)/20.
  Path circle;
  circle.line_to({1.0, 0.0});
  circle.arc_around({0.0, 0.0}, rv::mathx::kTwoPi);
  RobotSpec stat{std::make_shared<StationaryProgram>(), RobotAttributes{},
                 {0.0, 0.0}};
  RobotSpec walker{std::make_shared<PathProgram>(circle, "circle"),
                   RobotAttributes{}, {10.0, 0.0}};
  TwoRobotSimulator sim(std::move(stat), std::move(walker),
                        options_with(9.5, 50.0));
  const SimResult res = sim.run();
  ASSERT_TRUE(res.met);
  const double cos_theta = (9.5 * 9.5 - 101.0) / 20.0;
  const double theta = std::acos(cos_theta);
  // Contact time = 1 (line) + arc length to θ.
  EXPECT_NEAR(res.time, 1.0 + theta, 1e-6);
}

TEST(Simulator, RefinementAccuracyIsTight) {
  // Same head-on case with a very small r: the bisection refinement
  // must localise the contact to time_tol.
  RobotSpec a{straight_line({100.0, 0.0}), RobotAttributes{}, {0.0, 0.0}};
  RobotSpec b{straight_line({-100.0, 0.0}), RobotAttributes{}, {10.0, 0.0}};
  SimOptions o = options_with(1e-3);
  o.time_tol = 1e-12;
  TwoRobotSimulator sim(std::move(a), std::move(b), o);
  const SimResult res = sim.run();
  ASSERT_TRUE(res.met);
  EXPECT_NEAR(res.time, (10.0 - 1e-3) / 2.0, 5e-9);
}

TEST(Simulator, HorizonTruncatesSearch) {
  RobotSpec a{straight_line({100.0, 0.0}), RobotAttributes{}, {0.0, 0.0}};
  RobotSpec b{straight_line({100.0, 0.0}), RobotAttributes{}, {50.0, 0.0}};
  TwoRobotSimulator sim(std::move(a), std::move(b), options_with(1.0, 10.0));
  const SimResult res = sim.run();
  EXPECT_FALSE(res.met);
  EXPECT_NEAR(res.min_distance, 50.0, 1e-9);
}

TEST(Simulator, TimeUnitSlowsTrajectory) {
  // Robot 2 has τ = 2: its unit-length line takes 2 global time units,
  // at speed 1/... scale v·τ = 2 per local unit: it still moves at
  // speed v = 1.  Here we give it v = 1, τ = 2 and check the meet time
  // against the closed form.
  RobotAttributes slow;
  slow.time_unit = 2.0;
  // Both walk toward each other; robot 2's trajectory is identical in
  // shape (speed v = 1), so the meet time is the same as the symmetric
  // case.
  RobotSpec a{straight_line({100.0, 0.0}), RobotAttributes{}, {0.0, 0.0}};
  RobotSpec b{straight_line({-100.0, 0.0}), slow, {10.0, 0.0}};
  TwoRobotSimulator sim(std::move(a), std::move(b), options_with(2.0));
  const SimResult res = sim.run();
  ASSERT_TRUE(res.met);
  EXPECT_NEAR(res.time, 4.0, 1e-7);
}

// ---------------------------------------------------------------------------
// Option validation and bookkeeping
// ---------------------------------------------------------------------------

TEST(Simulator, RejectsBadOptions) {
  auto make = [] {
    return RobotSpec{std::make_shared<StationaryProgram>(), RobotAttributes{},
                     Vec2{0.0, 0.0}};
  };
  SimOptions bad_r;
  bad_r.visibility = 0.0;
  EXPECT_THROW(TwoRobotSimulator(make(), make(), bad_r),
               std::invalid_argument);
  SimOptions bad_t;
  bad_t.max_time = -1.0;
  EXPECT_THROW(TwoRobotSimulator(make(), make(), bad_t),
               std::invalid_argument);
  SimOptions bad_step;
  bad_step.min_step = 0.0;
  EXPECT_THROW(TwoRobotSimulator(make(), make(), bad_step),
               std::invalid_argument);
}

TEST(Simulator, NullProgramRejected) {
  RobotSpec bad{nullptr, RobotAttributes{}, {0.0, 0.0}};
  RobotSpec ok{std::make_shared<StationaryProgram>(), RobotAttributes{},
               {1.0, 0.0}};
  EXPECT_THROW(TwoRobotSimulator(std::move(bad), std::move(ok), SimOptions{}),
               std::invalid_argument);
}

TEST(Simulator, EvalAndSegmentCountsAreReported) {
  RobotSpec a{straight_line({100.0, 0.0}), RobotAttributes{}, {0.0, 0.0}};
  RobotSpec b{straight_line({-100.0, 0.0}), RobotAttributes{}, {10.0, 0.0}};
  TwoRobotSimulator sim(std::move(a), std::move(b), options_with(2.0));
  const SimResult res = sim.run();
  EXPECT_GE(res.evals, 2u);
  EXPECT_GE(res.segments, 2u);
}

// ---------------------------------------------------------------------------
// Convenience wrappers
// ---------------------------------------------------------------------------

TEST(SimulateSearch, FindsAdjacentTargetImmediately) {
  const SimResult res = simulate_search(std::make_shared<StationaryProgram>(),
                                        {0.1, 0.0}, options_with(0.5, 10.0));
  ASSERT_TRUE(res.met);
  EXPECT_DOUBLE_EQ(res.time, 0.0);
}

TEST(SimulateRendezvous, FactoryIsInvokedPerRobot) {
  int calls = 0;
  auto factory = [&calls]() -> std::shared_ptr<rv::traj::Program> {
    ++calls;
    Path p;
    p.line_to({100.0, 0.0});
    return std::make_shared<PathProgram>(p, "line");
  };
  RobotAttributes mirror;  // same speed: they march in parallel, never meet
  const SimResult res =
      simulate_rendezvous(factory, mirror, {10.0, 0.0}, options_with(1.0, 20.0));
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(res.met);
  EXPECT_NEAR(res.min_distance, 10.0, 1e-9);
}

TEST(SimulateRendezvous, NullFactoryRejected) {
  EXPECT_THROW((void)simulate_rendezvous({}, RobotAttributes{}, {1.0, 0.0},
                                         SimOptions{}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GlobalTrace
// ---------------------------------------------------------------------------

TEST(GlobalTrace, BuffersAndEvaluates) {
  Path p;
  p.line_to({4.0, 0.0});
  GlobalTrace trace(std::make_shared<PathProgram>(p, "t"), RobotAttributes{},
                    {1.0, 1.0}, 10.0);
  EXPECT_TRUE(
      rv::geom::approx_equal(rv::sim::position_at(trace, 0.0), {1.0, 1.0}));
  EXPECT_TRUE(
      rv::geom::approx_equal(rv::sim::position_at(trace, 2.0), {3.0, 1.0}));
  EXPECT_TRUE(
      rv::geom::approx_equal(rv::sim::position_at(trace, 9.0), {5.0, 1.0}));
  EXPECT_GE(trace.segments().size(), 2u);
}

TEST(GlobalTrace, Polyline) {
  Path p;
  p.line_to({1.0, 0.0});
  p.arc_around({0.0, 0.0}, kPi);
  GlobalTrace trace(std::make_shared<PathProgram>(p, "t"), RobotAttributes{},
                    {0.0, 0.0}, 1.0 + kPi);
  const auto poly = trace.polyline(1e-3);
  EXPECT_GE(poly.size(), 10u);
}

TEST(GlobalTrace, RejectsNonPositiveHorizon) {
  EXPECT_THROW(GlobalTrace(std::make_shared<StationaryProgram>(),
                           RobotAttributes{}, {0.0, 0.0}, 0.0),
               std::invalid_argument);
}

}  // namespace
