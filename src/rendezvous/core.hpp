#pragma once

/// \file core.hpp
/// High-level facade: "place two robots with these relative attributes
/// at distance d, give them visibility r, run the paper's algorithm,
/// report what happened."  This is the main entry point a downstream
/// user of the library calls; the examples and most benches go through
/// it.

#include <functional>
#include <memory>
#include <string>

#include "geom/attributes.hpp"
#include "rendezvous/feasibility.hpp"
#include "sim/simulator.hpp"

namespace rv::rendezvous {

/// Which common algorithm both robots execute.
enum class AlgorithmChoice {
  kAlgorithm4,  ///< the search trajectory used as rendezvous (Section 3)
  kAlgorithm7,  ///< the universal phase-schedule algorithm (Section 4)
};

/// A fully specified rendezvous scenario.  The reference robot R sits
/// at the origin with reference attributes; R′ starts at `offset` with
/// relative attributes `attrs`.
struct Scenario {
  geom::RobotAttributes attrs;   ///< attributes of R′ relative to R
  geom::Vec2 offset{1.0, 0.0};   ///< initial position of R′ (|offset| = d)
  double visibility = 0.05;      ///< r
  AlgorithmChoice algorithm = AlgorithmChoice::kAlgorithm7;
  double max_time = 1e9;         ///< simulation horizon
  /// Optional custom common program overriding `algorithm` (used by the
  /// ablation experiments, e.g. the A1 active-phase-order variants).
  /// Must return a fresh Program each call: invoked once per robot,
  /// plus once more to resolve the reported name when `program_name`
  /// is left empty.
  std::function<std::shared_ptr<traj::Program>()> program;
  std::string program_name;      ///< reported name when `program` is set
};

/// Scenario outcome: the simulator result plus derived quantities.
struct Outcome {
  sim::SimResult sim;             ///< raw simulation result
  FeasibilityClass feasibility{}; ///< Theorem 4 classification
  double initial_distance = 0.0;  ///< d = |offset|
  std::string algorithm_name;
};

/// Builds the program factory for an algorithm choice.
[[nodiscard]] std::function<std::shared_ptr<traj::Program>()>
program_factory(AlgorithmChoice choice);

/// Runs a scenario.  \throws std::invalid_argument on invalid
/// attributes or non-positive d/r.
[[nodiscard]] Outcome run_scenario(const Scenario& scenario);

/// Convenience: the paper's *universal* behaviour — always Algorithm 7,
/// which solves rendezvous whenever Theorem 4 says it is solvable,
/// without knowing which attribute differs.
[[nodiscard]] Outcome run_universal(const geom::RobotAttributes& attrs,
                                    double d, double r,
                                    double max_time = 1e9);

}  // namespace rv::rendezvous
