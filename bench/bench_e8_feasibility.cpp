// E8 — Theorem 4: the feasibility characterisation, both directions.
//
//  * Feasible cells: run Algorithm 7 and report the meeting time.
//  * Infeasible cells: report the structural certificate (singular /
//    zero difference map, invariant separation component) plus a
//    long-horizon simulation whose minimum separation respects the
//    certified lower bound.  (Infeasibility cannot be *observed* in
//    finite time; the certificate is the paper's "only if" made
//    checkable.)
//
// The truth table is a declarative `engine::ScenarioSet`; the CSV is
// the engine `ResultSet`'s structured emission plus a derived
// lower-bound column.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "engine/runner.hpp"
#include "engine/scenario_set.hpp"
#include "geom/difference_map.hpp"
#include "io/table.hpp"
#include "mathx/constants.hpp"
#include "rendezvous/core.hpp"
#include "rendezvous/feasibility.hpp"

int main() {
  using namespace rv;
  using rendezvous::FeasibilityClass;
  bench::banner("E8", "feasibility truth table (both directions)",
                "Theorem 4 (rendezvous feasible iff tau!=1 or v!=1 or "
                "(chi=1 and 0<phi<2pi))");

  struct Cell {
    double v, tau, phi;
    int chi;
  };
  const std::vector<Cell> cells{
      // feasible: clocks
      {1.0, 0.5, 0.0, 1},
      {1.0, 0.8, 0.0, -1},
      // feasible: speeds
      {2.0, 1.0, 0.0, 1},
      {0.5, 1.0, 0.0, -1},
      // feasible: orientation with common chirality
      {1.0, 1.0, mathx::kPi / 2.0, 1},
      {1.0, 1.0, mathx::kPi, 1},
      // infeasible: identical
      {1.0, 1.0, 0.0, 1},
      // infeasible: mirror (any phi)
      {1.0, 1.0, 0.0, -1},
      {1.0, 1.0, 1.0, -1},
      {1.0, 1.0, mathx::kPi, -1},
  };

  const geom::Vec2 offset{1.0, 0.4};
  const double r = 0.05;

  engine::ScenarioSet set;
  for (const Cell& c : cells) {
    rendezvous::Scenario s;
    s.attrs.speed = c.v;
    s.attrs.time_unit = c.tau;
    s.attrs.orientation = c.phi;
    s.attrs.chirality = c.chi;
    s.offset = offset;
    s.visibility = r;
    s.algorithm = rendezvous::AlgorithmChoice::kAlgorithm7;
    set.add(s);
  }
  // Long horizon for feasible cells (they must meet), shorter for the
  // infeasible ones (they only need to witness the invariant bound).
  set.horizon([](const rendezvous::Scenario& s) {
    return rendezvous::rendezvous_feasible(s.attrs) ? 1e6 : 3e4;
  });

  const engine::ResultSet results = engine::run_scenarios(set);

  const auto lower_bound_of = [&](const engine::RunRecord& rec) {
    return rendezvous::separation_lower_bound(rec.scenario.attrs, offset);
  };

  io::Table table({"v", "tau", "phi", "chi", "Theorem 4", "det T_circ",
                   "sep. lower bound", "sim outcome", "min sep seen"});

  for (const engine::RunRecord& rec : results) {
    const geom::RobotAttributes& a = rec.scenario.attrs;
    const bool feasible = rendezvous::is_feasible(rec.outcome.feasibility);
    const double det =
        a.time_unit == 1.0
            ? geom::difference_determinant(a.speed, a.orientation, a.chirality)
            : std::nan("");  // the tau != 1 case has no static T∘
    const double lower = lower_bound_of(rec);
    const auto& sim = rec.outcome.sim;

    std::string sim_outcome;
    if (sim.met) {
      sim_outcome = "met t=" + io::format_fixed(sim.time, 1);
    } else {
      sim_outcome = feasible ? "NOT MET (unexpected)" : "no meet (horizon)";
    }
    table.add_row({io::format_fixed(a.speed, 2),
                   io::format_fixed(a.time_unit, 2),
                   io::format_fixed(a.orientation, 3),
                   std::to_string(a.chirality),
                   feasible ? "feasible" : "INFEASIBLE",
                   std::isnan(det) ? "-" : io::format_fixed(det, 4),
                   io::format_fixed(lower, 4), sim_outcome,
                   io::format_fixed(sim.min_distance, 4)});

    // Consistency checks: feasible must meet, infeasible must respect
    // the invariant lower bound.
    if (feasible && !sim.met) {
      std::cerr << "ERROR: feasible cell failed to meet\n";
      return 1;
    }
    if (!feasible && sim.min_distance < lower - 1e-6) {
      std::cerr << "ERROR: infeasible cell violated its separation "
                   "certificate\n";
      return 1;
    }
  }

  table.print(std::cout,
              "attribute grid, offset (1.0, 0.4), r = 0.05, Algorithm 7:");

  // Structured emission: the engine's standard columns plus the derived
  // certificate column.
  const std::vector<engine::Column> extras{
      {"lower_bound", [&](const engine::RunRecord& rec) {
         return io::format_double(lower_bound_of(rec));
       }}};
  bench::dump_csv("e8_feasibility.csv", results.to_csv(extras),
                  results.size());

  std::cout
      << "\nshape check: the three feasible families all meet; the identical "
         "cell keeps separation exactly |d|; the mirror cells keep the "
         "perpendicular separation component >= the certified invariant "
         "(det T_circ = 0 on every infeasible tau=1 cell).\n";
  return 0;
}
