// Tests for the N-robot gathering extension: certified multi-robot
// sweeps, both event modes, validation, and consistency with the
// two-robot simulator.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "gather/multi_simulator.hpp"
#include "mathx/constants.hpp"
#include "rendezvous/algorithm7.hpp"
#include "sim/simulator.hpp"
#include "support/traj.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"

namespace {

using namespace rv::gather;
using rv::geom::RobotAttributes;
using rv::geom::Vec2;
using rv::sim::RobotSpec;
using rv::traj::Path;
using rv::traj::PathProgram;
using rv::traj::StationaryProgram;

std::shared_ptr<rv::traj::Program> line_program(const Vec2& to) {
  Path p;
  p.line_to(to);
  return std::make_shared<PathProgram>(p, "line");
}

GatherOptions opts_with(double r, GatherMode mode, double horizon = 1e5) {
  GatherOptions o;
  o.sweep.visibility = r;
  o.mode = mode;
  o.sweep.max_time = horizon;
  return o;
}

TEST(MultiRobot, RequiresAtLeastTwoRobots) {
  std::vector<RobotSpec> one;
  one.push_back({std::make_shared<StationaryProgram>(), RobotAttributes{},
                 Vec2{0.0, 0.0}});
  EXPECT_THROW(MultiRobotSimulator(std::move(one), GatherOptions{}),
               std::invalid_argument);
}

TEST(MultiRobot, RejectsNullProgramAndBadOptions) {
  auto mk = [] {
    return RobotSpec{std::make_shared<StationaryProgram>(), RobotAttributes{},
                     Vec2{0.0, 0.0}};
  };
  std::vector<RobotSpec> robots;
  robots.push_back(mk());
  robots.push_back({nullptr, RobotAttributes{}, Vec2{1.0, 0.0}});
  EXPECT_THROW(MultiRobotSimulator(std::move(robots), GatherOptions{}),
               std::invalid_argument);
  std::vector<RobotSpec> ok;
  ok.push_back(mk());
  ok.push_back(mk());
  GatherOptions bad;
  bad.sweep.visibility = 0.0;
  EXPECT_THROW(MultiRobotSimulator(std::move(ok), bad), std::invalid_argument);
}

TEST(MultiRobot, TwoRobotFirstContactMatchesPairSimulator) {
  // Head-on approach: multi-robot first contact must agree with the
  // dedicated two-robot sweep.
  auto build_specs = [&] {
    std::vector<RobotSpec> robots;
    robots.push_back({line_program({100.0, 0.0}), RobotAttributes{},
                      Vec2{0.0, 0.0}});
    robots.push_back({line_program({-100.0, 0.0}), RobotAttributes{},
                      Vec2{10.0, 0.0}});
    return robots;
  };
  MultiRobotSimulator multi(build_specs(),
                            opts_with(2.0, GatherMode::kFirstContact));
  const GatherResult res = multi.run();
  ASSERT_TRUE(res.achieved);
  EXPECT_NEAR(res.time, 4.0, 1e-6);
  EXPECT_EQ(res.pair_i, 0);
  EXPECT_EQ(res.pair_j, 1);
}

TEST(MultiRobot, ThreeRobotsFirstContactPicksClosestPair) {
  // Robots 0 and 1 converge quickly; robot 2 is far away and idle.
  std::vector<RobotSpec> robots;
  robots.push_back({line_program({100.0, 0.0}), RobotAttributes{},
                    Vec2{0.0, 0.0}});
  robots.push_back({line_program({-100.0, 0.0}), RobotAttributes{},
                    Vec2{6.0, 0.0}});
  robots.push_back({std::make_shared<StationaryProgram>(), RobotAttributes{},
                    Vec2{0.0, 500.0}});
  MultiRobotSimulator sim(std::move(robots),
                          opts_with(1.0, GatherMode::kFirstContact));
  const GatherResult res = sim.run();
  ASSERT_TRUE(res.achieved);
  EXPECT_NEAR(res.time, 2.5, 1e-6);
  EXPECT_EQ(res.pair_i, 0);
  EXPECT_EQ(res.pair_j, 1);
}

TEST(MultiRobot, AllPairsRequiresEveryPairClose) {
  // Three robots converging on the origin from a ring of radius 10:
  // all pairwise distances shrink together; gathering when the *max*
  // pair distance reaches r.
  std::vector<RobotSpec> robots;
  for (int i = 0; i < 3; ++i) {
    const Vec2 origin =
        rv::geom::polar(10.0, 2.0 * rv::mathx::kPi * i / 3.0);
    Path p;
    p.line_to({-origin.x, -origin.y});  // local line through the origin
    robots.push_back({std::make_shared<PathProgram>(p, "inbound"),
                      RobotAttributes{}, origin});
  }
  MultiRobotSimulator sim(std::move(robots),
                          opts_with(0.5, GatherMode::kAllPairsGathered));
  const GatherResult res = sim.run();
  ASSERT_TRUE(res.achieved);
  // Pairwise distance of ring robots at radius rho is rho·√3; they
  // reach the origin at t = 10 moving at speed 1, so max pair = 0.5
  // when rho = 0.5/√3, i.e. t = 10 − 0.5/√3.
  EXPECT_NEAR(res.time, 10.0 - 0.5 / std::sqrt(3.0), 1e-6);
  EXPECT_LE(res.max_pairwise, 0.5 + 1e-6);
}

TEST(MultiRobot, StationaryFleetSkipsToHorizonCheaply) {
  std::vector<RobotSpec> robots;
  for (int i = 0; i < 4; ++i) {
    robots.push_back({std::make_shared<StationaryProgram>(), RobotAttributes{},
                      rv::geom::polar(5.0, 1.3 * i)});
  }
  MultiRobotSimulator sim(std::move(robots),
                          opts_with(0.1, GatherMode::kFirstContact, 1e4));
  const GatherResult res = sim.run();
  EXPECT_FALSE(res.achieved);
  EXPECT_LE(res.evals, 200u);
}

TEST(MultiRobot, IdenticalFleetSeparationsInvariant) {
  // Identical robots running the same program: all pairwise distances
  // constant forever (the N-robot generalisation of the Theorem 4
  // 'only if' for identical attributes).
  std::vector<RobotAttributes> attrs(3);
  std::vector<Vec2> origins;
  for (int i = 0; i < 3; ++i) {
    origins.push_back(rv::geom::polar(1.0, 2.0 * rv::mathx::kPi * i / 3.0));
  }
  const auto res = simulate_gathering(
      [] { return rv::rendezvous::make_rendezvous_program(); }, attrs, origins,
      opts_with(0.2, GatherMode::kAllPairsGathered, 2e3));
  EXPECT_FALSE(res.achieved);
  // Ring of radius 1: every pair at distance √3, forever.
  EXPECT_NEAR(res.min_max_pairwise, std::sqrt(3.0), 1e-9);
}

TEST(MultiRobot, PairwiseDistinctSpeedsReachFirstContact) {
  std::vector<RobotAttributes> attrs(3);
  attrs[1].speed = 1.5;
  attrs[2].speed = 2.0;
  std::vector<Vec2> origins;
  for (int i = 0; i < 3; ++i) {
    origins.push_back(rv::geom::polar(1.0, 2.0 * rv::mathx::kPi * i / 3.0));
  }
  const auto res = simulate_gathering(
      [] { return rv::rendezvous::make_rendezvous_program(); }, attrs, origins,
      opts_with(0.2, GatherMode::kFirstContact, 1e6));
  EXPECT_TRUE(res.achieved);
  EXPECT_GE(res.pair_i, 0);
  EXPECT_GT(res.pair_j, res.pair_i);
}

TEST(MultiRobot, FactoryValidation) {
  EXPECT_THROW((void)simulate_gathering({}, {}, {}, GatherOptions{}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)simulate_gathering(
          [] { return rv::rendezvous::make_rendezvous_program(); },
          std::vector<RobotAttributes>(2), std::vector<Vec2>(3),
          GatherOptions{}),
      std::invalid_argument);
}

}  // namespace
