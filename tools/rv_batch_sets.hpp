#pragma once

/// \file rv_batch_sets.hpp
/// The built-in scenario sets of the `rv_batch` front-end.
///
/// `ScenarioSet`s are C++ declarations, so a batch *tool* needs a
/// registry of named sets it can materialise on request.  These five —
/// one per workload family — are deliberately small (they run in
/// seconds), fully deterministic, and built only from cacheable cells
/// (built-in programs, no anonymous factories, no components-only
/// items), so a sharded run can persist every outcome and a merge can
/// replay the whole set from cache files with zero recomputation.
/// Their single-process outputs are pinned byte-for-byte in
/// tests/test_golden_shard.cpp; treat any change to the declarations
/// as an output-breaking change (regenerate the pins).

#include <stdexcept>
#include <string>
#include <vector>

#include "engine/scenario_set.hpp"
#include "linear/zigzag.hpp"
#include "search/times.hpp"

namespace rv::batch {

/// One named, self-contained scenario declaration.
struct BuiltinSet {
  const char* name;
  const char* description;
  engine::ScenarioSet (*build)();
};

inline engine::ScenarioSet build_rendezvous_grid() {
  engine::ScenarioSet set;
  rendezvous::Scenario base;
  base.visibility = 0.25;
  base.max_time = 5e3;  // bounds the infeasible corners of the grid
  set.base(base)
      .speeds({1.0, 1.5})
      .time_units({1.0, 2.0})
      .orientations({0.0, 0.7})
      .chiralities({1, -1})
      .distances({1.0})
      .algorithm(rendezvous::AlgorithmChoice::kAlgorithm7);
  return set;
}

inline engine::ScenarioSet build_search_ring() {
  engine::SearchCell base;
  base.angles = 8;
  base.angle_offset = 0.03;
  engine::ScenarioSet set;
  set.search_base(base)
      .search_distances({1.0, 2.0})
      .search_radii({0.25, 0.125})
      .search_programs({engine::SearchProgram::kAlgorithm4,
                        engine::SearchProgram::kSquareSpiral})
      .search_horizon([](const engine::SearchCell& c) {
        return search::time_first_rounds(
                   search::guaranteed_round(c.distance, c.visibility)) +
               1.0;
      });
  return set;
}

inline engine::ScenarioSet build_heterogeneous_fleets() {
  const auto mk = [](double v, double tau) {
    geom::RobotAttributes a;
    a.speed = v;
    a.time_unit = tau;
    return a;
  };
  struct Fleet {
    const char* label;
    std::vector<geom::RobotAttributes> attrs;
  };
  const std::vector<Fleet> fleets{
      {"distinct speeds", {mk(1.0, 1.0), mk(1.5, 1.0), mk(2.0, 1.0)}},
      {"distinct clocks", {mk(1.0, 1.0), mk(1.0, 0.5), mk(1.0, 0.75)}},
      {"mixed quartet",
       {mk(1.0, 1.0), mk(2.0, 1.0), mk(1.0, 0.5), mk(1.5, 0.75)}},
  };
  engine::ScenarioSet set;
  for (const Fleet& fleet : fleets) {
    engine::GatherCell cell;
    cell.fleet = fleet.attrs;
    cell.ring_radius = 1.0;
    cell.visibility = 0.2;
    cell.algorithm = rendezvous::AlgorithmChoice::kAlgorithm7;
    cell.contact_max_time = 1e5;
    cell.gather_max_time = 2e5;
    set.add_gather(cell, fleet.label);
  }
  return set;
}

inline engine::ScenarioSet build_linear_line() {
  engine::LinearCell base;
  base.mode = engine::LinearMode::kZigZagSearch;
  base.visibility = 1e-3;
  engine::ScenarioSet set;
  set.linear_base(base)
      .linear_distances({1.0, -2.0, 4.0})
      .linear_horizon([](const engine::LinearCell& c) {
        return c.mode == engine::LinearMode::kZigZagSearch
                   ? linear::zigzag_reach_bound(c.target) + 1.0
                   : c.max_time;
      });
  engine::LinearCell rendezvous_cell;
  rendezvous_cell.mode = engine::LinearMode::kRendezvous;
  rendezvous_cell.attrs.speed = 1.5;
  rendezvous_cell.target = 1.0;
  rendezvous_cell.visibility = 0.05;
  rendezvous_cell.max_time = 1e4;
  set.add_linear(rendezvous_cell);
  return set;
}

inline engine::ScenarioSet build_coverage_disk() {
  engine::CoverageCell base;
  base.disk_radius = 1.5;
  base.visibility = 0.1;
  base.cell = 0.05;
  base.checkpoints = 16;
  engine::ScenarioSet set;
  set.coverage_base(base)
      .coverage_programs({engine::SearchProgram::kAlgorithm4,
                          engine::SearchProgram::kConcentric,
                          engine::SearchProgram::kSquareSpiral})
      .coverage_horizon([](const engine::CoverageCell& c) {
        return 2.0 * search::time_first_rounds(search::guaranteed_round(
                         c.disk_radius, c.visibility));
      });
  return set;
}

/// All built-in sets, in display order (one per workload family).
inline const std::vector<BuiltinSet>& builtin_sets() {
  static const std::vector<BuiltinSet> sets{
      {"rendezvous-grid",
       "2-robot attribute grid (v x tau x phi x chi), Algorithm 7",
       &build_rendezvous_grid},
      {"search-ring",
       "search (d x r x program) grid over an 8-angle target ring",
       &build_search_ring},
      {"gather-fleet", "three heterogeneous fleets on a unit origin ring",
       &build_heterogeneous_fleets},
      {"linear-line",
       "1-D zigzag search depths plus one linear-rendezvous cell",
       &build_linear_line},
      {"coverage-disk",
       "swept-area series of the three programs against one (R, r) disk",
       &build_coverage_disk},
  };
  return sets;
}

/// Builds the named set.  \throws std::invalid_argument (listing the
/// valid names) when `name` is unknown.
inline engine::ScenarioSet build_builtin_set(const std::string& name) {
  for (const BuiltinSet& set : builtin_sets()) {
    if (name == set.name) return set.build();
  }
  std::string message = "unknown set '" + name + "'; available:";
  for (const BuiltinSet& set : builtin_sets()) {
    message += " ";
    message += set.name;
  }
  throw std::invalid_argument(message);
}

}  // namespace rv::batch
