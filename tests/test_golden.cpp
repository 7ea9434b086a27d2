// Declaration-level golden pins: each test rebuilds the engine
// declaration of a ported bench (or a representative cell of a
// workload family) and compares the emitted ResultSet bytes — CSV,
// JSON, rendered table — against files committed under tests/golden/.
//
// These migrate the inline string pins that used to live in
// tests/test_engine.cpp (the run_universal seed capture and the
// E1/E9/X1/A1 ported-bench values) onto the reusable golden harness
// (tests/golden.hpp), and add pins for the linear and coverage
// families.  Regenerate intentionally
// changed outputs with RV_UPDATE_GOLDEN=1 (see golden.hpp).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/runner.hpp"
#include "engine/scenario_set.hpp"
#include "golden.hpp"
#include "io/csv.hpp"
#include "linear/linear_rendezvous.hpp"
#include "linear/zigzag.hpp"
#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "rendezvous/variants.hpp"
#include "search/times.hpp"
#include "search/variants.hpp"

namespace {

using namespace rv;
using rv::geom::RobotAttributes;

// Full-precision derived columns: format_double's default 12
// significant digits match the bench CSV artifacts, but the seed pins
// were bit-exact — 17 significant digits round-trip a double exactly,
// so the golden file preserves the full value.
engine::Column full_precision(const char* name,
                              double (*get)(const engine::RunRecord&)) {
  return {name, [get](const engine::RunRecord& rec) {
            return io::format_double(get(rec), 17);
          }};
}

// ---------------------------------------------------------------------------
// The pre-refactor seed capture (was RunUniversalRegression): six
// universal-rendezvous cells covering the speed/clock/compass/
// chirality families of E3/E4/E7/E8, d = 1, r = 0.2, horizon 1e6.
// ---------------------------------------------------------------------------

TEST(GoldenEngine, UniversalCellsMatchSeedCapture) {
  const struct {
    double v, tau, phi;
    int chi;
  } cases[] = {
      {2.0, 1.0, 0.0, 1},    {0.5, 1.0, 0.0, -1},
      {1.0, 0.5, 0.0, 1},    {1.0, 0.75, 0.0, 1},
      {1.0, 1.0, mathx::kPi / 2.0, 1}, {1.5, 0.6, 2.0, -1},
  };
  engine::ScenarioSet set;
  for (const auto& c : cases) {
    rendezvous::Scenario s;
    s.attrs.speed = c.v;
    s.attrs.time_unit = c.tau;
    s.attrs.orientation = c.phi;
    s.attrs.chirality = c.chi;
    s.offset = {1.0, 0.0};
    s.visibility = 0.2;
    s.max_time = 1e6;
    set.add(s);
  }
  const auto results = engine::run_scenarios(set);
  const std::vector<engine::Column> extras{
      full_precision("time17",
                     [](const engine::RunRecord& r) { return r.outcome.sim.time; }),
      full_precision("distance17",
                     [](const engine::RunRecord& r) {
                       return r.outcome.sim.distance;
                     }),
  };
  golden::compare(results.to_csv(extras), "engine/universal_cells.csv");
}

// ---------------------------------------------------------------------------
// Ported-bench declarations (reduced grids, as pinned since PR 2).
// ---------------------------------------------------------------------------

TEST(GoldenEngine, E1SearchCells) {
  engine::SearchCell base;
  base.angles = 16;
  base.angle_offset = 0.03;
  engine::ScenarioSet set;
  set.search_base(base)
      .search_distances({1.0})
      .search_radii({0.5, 0.25})
      .search_horizon([](const engine::SearchCell& c) {
        return search::theorem1_bound(c.distance, c.visibility) + 1.0;
      });
  const auto results = engine::run_scenarios(set);
  for (const engine::RunRecord& rec : results) {
    ASSERT_TRUE(rec.search_outcome.complete) << rec.label;
  }
  golden::compare(results.to_csv(), "engine/e1_cells.csv");
}

TEST(GoldenEngine, E9BaselineCells) {
  engine::ScenarioSet set;
  for (const auto prog :
       {engine::SearchProgram::kAlgorithm4, engine::SearchProgram::kConcentric,
        engine::SearchProgram::kSquareSpiral}) {
    engine::SearchCell cell;
    cell.distance = 2.0;
    cell.visibility = 0.25;
    cell.angles = 8;
    cell.angle_offset = 0.07;
    cell.program = prog;
    cell.max_time = 5e6;
    set.add_search(cell);
  }
  const auto results = engine::run_scenarios(set);
  for (const engine::RunRecord& rec : results) {
    ASSERT_TRUE(rec.search_outcome.complete) << rec.label;
  }
  golden::compare(results.to_csv(), "engine/e9_cells.csv");
}

TEST(GoldenEngine, X1GatherCells) {
  engine::GatherCell cell;
  cell.fleet = {RobotAttributes{}, [] {
                  RobotAttributes a;
                  a.time_unit = 0.5;
                  return a;
                }(),
                [] {
                  RobotAttributes a;
                  a.time_unit = 0.75;
                  return a;
                }()};
  cell.ring_radius = 1.0;
  cell.visibility = 0.2;
  cell.contact_max_time = 1e5;
  cell.gather_max_time = 2e5;
  engine::ScenarioSet set;
  set.add_gather(cell, "3 robots, distinct clocks");
  const auto results = engine::run_scenarios(set);
  golden::compare(results.to_csv(), "engine/x1_cells.csv");
}

TEST(GoldenEngine, A1VariantAndA3SpacingCells) {
  engine::ScenarioSet set;
  for (const auto order : {rendezvous::ActivePhaseOrder::kForwardThenReverse,
                           rendezvous::ActivePhaseOrder::kForwardTwice}) {
    rendezvous::Scenario s;
    s.attrs.time_unit = 0.5;
    s.offset = {1.0, 0.0};
    s.visibility = 0.1;
    s.max_time = 5e6;
    s.program = [order] {
      return rendezvous::make_variant_rendezvous_program(order);
    };
    s.program_name = "variant";
    set.add(s);
  }
  const auto a1 = engine::run_scenarios(set);
  for (const engine::RunRecord& rec : a1) {
    ASSERT_TRUE(rec.outcome.sim.met) << rec.label;
  }
  golden::compare(a1.to_csv(), "engine/a1_variant_cells.csv");

  rv::search::VariantOptions vopts;
  vopts.spacing_factor = 2.0;
  engine::SearchCell cell;
  cell.distance = 1.5;
  cell.visibility = 0.05;
  cell.angles = 8;
  cell.angle_offset = 0.11;
  cell.program_factory = [vopts] {
    return rv::search::make_variant_search_program(vopts);
  };
  cell.program_name = "algorithm4-spacing";
  cell.max_time = 4.0 * rv::search::time_first_rounds(
                            rv::search::guaranteed_round(1.5, 0.05));
  engine::ScenarioSet a3set;
  a3set.add_search(cell);
  const auto a3 = engine::run_scenarios(a3set);
  golden::compare(a3.to_csv(), "engine/a3_spacing_cells.csv");
}

// ---------------------------------------------------------------------------
// Linear family: the X2 truth table (1-D feasibility across the
// attribute families), pinned in all three emission forms.
// ---------------------------------------------------------------------------

engine::ScenarioSet linear_truth_table() {
  const struct {
    double v, tau;
    int dir;
  } cells[] = {{1.0, 1.0, 1},  {2.0, 1.0, 1},  {1.0, 0.5, 1},
               {1.0, 0.75, 1}, {1.0, 1.0, -1}, {0.5, 0.5, -1}};
  engine::ScenarioSet set;
  set.linear_horizon([](const engine::LinearCell& c) {
    return linear::linear_rendezvous_feasible(c.attrs) ? 1e6 : 2e4;
  });
  for (const auto& c : cells) {
    engine::LinearCell cell;
    cell.mode = engine::LinearMode::kRendezvous;
    cell.attrs.speed = c.v;
    cell.attrs.time_unit = c.tau;
    cell.attrs.direction = c.dir;
    cell.target = 1.0;
    cell.visibility = 0.05;
    set.add_linear(cell);
  }
  return set;
}

TEST(GoldenEngine, X2LinearTruthTable) {
  const auto results = engine::run_scenarios(linear_truth_table());
  golden::compare(results.to_csv(), "engine/linear_cells.csv");
  golden::compare(results.to_json(), "engine/linear_cells.json");
  golden::compare(results.to_table().to_ascii(), "engine/linear_cells.txt");
}

TEST(GoldenEngine, X2ZigzagSearchCells) {
  engine::LinearCell base;
  base.mode = engine::LinearMode::kZigZagSearch;
  base.visibility = 1e-3;
  engine::ScenarioSet set;
  set.linear_base(base)
      .linear_distances({1.0, 2.0, 4.0, 8.0})
      .linear_horizon([](const engine::LinearCell& c) {
        return linear::zigzag_reach_bound(c.target) + 1.0;
      });
  const auto results = engine::run_scenarios(set);
  for (const engine::RunRecord& rec : results) {
    ASSERT_TRUE(rec.linear_outcome.sim.met) << rec.label;
  }
  golden::compare(results.to_csv(), "engine/zigzag_cells.csv");
}

// ---------------------------------------------------------------------------
// Coverage family: two small cells (fast grid) in CSV + JSON.
// ---------------------------------------------------------------------------

TEST(GoldenEngine, CoverageCells) {
  engine::CoverageCell base;
  base.disk_radius = 1.0;
  base.visibility = 0.25;
  base.cell = 0.05;
  base.checkpoints = 8;
  engine::ScenarioSet set;
  set.coverage_base(base)
      .coverage_programs({engine::SearchProgram::kAlgorithm4,
                          engine::SearchProgram::kSquareSpiral})
      .coverage_horizon([](const engine::CoverageCell& c) {
        return 2.0 * search::time_first_rounds(search::guaranteed_round(
                         c.disk_radius, c.visibility));
      });
  const auto results = engine::run_scenarios(set);
  golden::compare(results.to_csv(), "engine/coverage_cells.csv");
  golden::compare(results.to_json(), "engine/coverage_cells.json");
}

}  // namespace
