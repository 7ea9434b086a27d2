// paper_walkthrough — the paper, executed: walks through Sections 2–4
// statement by statement, printing the live numbers this library
// computes for each.  Think of it as an executable abstract.
//
//   $ ./paper_walkthrough

#include <iostream>

#include "analysis/bounds.hpp"
#include "geom/difference_map.hpp"
#include "mathx/constants.hpp"
#include "rendezvous/core.hpp"
#include "rendezvous/schedule.hpp"
#include "search/algorithm4.hpp"
#include "search/times.hpp"
#include "sim/simulator.hpp"

namespace {

void heading(const char* text) {
  std::cout << "\n--- " << text << " ---------------------------------\n";
}

}  // namespace

int main() {
  using namespace rv;
  std::cout
      << "Symmetry Breaking in the Plane: Rendezvous by Robots with Unknown\n"
         "Attributes (PODC 2019) - an executable walkthrough\n";

  // =========================================================================
  heading("Section 2: search");
  {
    const double d = 2.0, r = 0.125;
    std::cout << "A robot with visibility r = " << r
              << " must find a target at unknown distance d = " << d << ".\n";
    std::cout << "Theorem 1 bound: 6(pi+1) log2(d^2/r) d^2/r = "
              << search::theorem1_bound(d, r) << "\n";
    sim::SimOptions opts;
    opts.visibility = r;
    opts.max_time = search::theorem1_bound(d, r) + 1.0;
    const auto res = sim::simulate_search(search::make_search_program(),
                                          geom::polar(d, 2.1), opts);
    std::cout << "Algorithm 4, simulated: found at t = " << res.time << " ("
              << 100.0 * res.time / search::theorem1_bound(d, r)
              << "% of the bound)\n";
    std::cout << "Lemma 2 check: Search(3) takes 3(pi+1)(3+1)2^4 = "
              << search::time_search_round(3) << " exactly.\n";
  }

  // =========================================================================
  heading("Section 3: rendezvous with symmetric clocks (tau = 1)");
  {
    geom::RobotAttributes attrs;
    attrs.speed = 1.0;
    attrs.orientation = mathx::kPi / 2.0;  // compasses disagree by 90 deg
    const double d = 1.0, r = 0.2;
    const double m = geom::mu(attrs.speed, attrs.orientation);
    std::cout << "Two robots, same speed and clock, compasses 90 degrees\n"
                 "apart (chi = +1).  Lemma 6: the separation follows a\n"
                 "mu-scaled copy of the common trajectory, mu = "
              << m << ".\n";
    std::cout << "Theorem 2 bound (equivalent search on d/mu, r/mu): "
              << analysis::theorem2_bound(attrs, d, r) << "\n";
    rendezvous::Scenario scenario;
    scenario.attrs = attrs;
    scenario.offset = {d, 0.0};
    scenario.visibility = r;
    scenario.algorithm = rendezvous::AlgorithmChoice::kAlgorithm4;
    scenario.max_time = analysis::theorem2_bound(attrs, d, r) + 1.0;
    const auto out = rendezvous::run_scenario(scenario);
    std::cout << "Algorithm 4 as rendezvous, simulated: met at t = "
              << out.sim.time << "\n";
    std::cout << "The infeasible corner: v = 1, phi = 0, chi = +1 has mu = "
              << geom::mu(1.0, 0.0)
              << " - the difference map is zero; Theorem 4 says no "
                 "algorithm exists.\n";
  }

  // =========================================================================
  heading("Section 4: rendezvous with asymmetric clocks (tau != 1)");
  {
    const double tau = 0.75, d = 1.0, r = 0.3;  // t = 3/4 > 2/3: Lemma 12 branch
    geom::RobotAttributes attrs;
    attrs.time_unit = tau;
    std::cout << "Identical robots except the clock: tau = " << tau << ".\n";
    std::cout << "Lemma 8 schedule: I(3) = " << rendezvous::inactive_start(3)
              << ", A(3) = " << rendezvous::active_start(3) << ".\n";
    const int n = search::guaranteed_round(d, r);
    std::cout << "Lemma 13: k* = " << rendezvous::rendezvous_round_bound(tau, n)
              << " (stationary-find round n = " << n << ")";
    std::cout << "; exact Lemma 12 (Lambert W): k = "
              << analysis::lemma12_exact_round_bound(tau, n) << ".\n";
    const double bound = analysis::theorem3_bound(tau, d, r);
    const auto out = rendezvous::run_universal(attrs, d, r, bound + 1.0);
    std::cout << "Algorithm 7, simulated: met at t = " << out.sim.time
              << " (Lemma 14 bound " << bound << ")\n";
  }

  // =========================================================================
  heading("Theorem 4: the feasibility frontier");
  {
    struct Probe {
      const char* label;
      geom::RobotAttributes a;
    };
    geom::RobotAttributes clocks, speeds, compass, identical, mirror;
    clocks.time_unit = 0.5;
    speeds.speed = 2.0;
    compass.orientation = mathx::kPi;
    mirror.chirality = -1;
    mirror.orientation = 1.0;
    for (const auto& probe :
         {Probe{"different clocks", clocks}, Probe{"different speeds", speeds},
          Probe{"different compasses", compass},
          Probe{"identical robots", identical},
          Probe{"mirror robots", mirror}}) {
      std::cout << "  " << probe.label << ": "
                << rendezvous::describe(rendezvous::classify(probe.a)) << '\n';
    }
  }

  std::cout << "\nEvery number above is recomputed live by the library; the\n"
               "full sweeps live in bench/ and EXPERIMENTS.md.\n";
  return 0;
}
