// trajectory_gallery — renders the geometric structure of the paper's
// algorithms as a set of SVG files:
//
//   gallery_algorithm1.svg  SearchCircle(δ): out, around, back
//   gallery_algorithm2.svg  SearchAnnulus: the 2ρ-spaced circle stack
//   gallery_algorithm3.svg  Search(k): all 2k annuli of round k
//   gallery_equivalent.svg  a rendezvous pair (S, S′) and the
//                           equivalent search trajectory T∘·S of
//                           Definition 1, drawn together
//
//   $ ./trajectory_gallery [--outdir .]

#include <iostream>
#include <string>

#include "geom/difference_map.hpp"
#include "io/args.hpp"
#include "mathx/constants.hpp"
#include "search/paths.hpp"
#include "sim/trace.hpp"
#include "search/algorithm4.hpp"
#include "traj/sampler.hpp"
#include "viz/plot.hpp"

int main(int argc, char** argv) {
  using namespace rv;

  io::Args args;
  args.declare("outdir", ".", "directory for the SVG files");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n' << args.usage("trajectory_gallery");
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage("trajectory_gallery");
    return 0;
  }
  const std::string dir = args.get("outdir");
  auto out = [&dir](const std::string& name) { return dir + "/" + name; };

  // --- Algorithm 1: one SearchCircle -------------------------------------
  {
    const auto path = search::search_circle_path(1.0);
    auto canvas = viz::plot_trajectories(
        {viz::series_from_path(path, "#1f77b4", "SearchCircle(1)")});
    canvas.save(out("gallery_algorithm1.svg"));
  }

  // --- Algorithm 2: one annulus ------------------------------------------
  {
    const auto path = search::search_annulus_path(0.5, 1.0, 0.0625);
    auto canvas = viz::plot_trajectories(
        {viz::series_from_path(path, "#1f77b4",
                               "SearchAnnulus(0.5, 1, 1/16)")});
    viz::Style annulus_style;
    annulus_style.stroke = "#d62728";
    annulus_style.dash = "4 3";
    canvas.circle({0.0, 0.0}, 0.5, annulus_style);
    canvas.circle({0.0, 0.0}, 1.0, annulus_style);
    canvas.save(out("gallery_algorithm2.svg"));
  }

  // --- Algorithm 3: Search(2) ---------------------------------------------
  {
    const auto path = search::search_round_path(2);
    auto canvas = viz::plot_trajectories(
        {viz::series_from_path(path, "#1f77b4", "Search(2)", 2e-3)});
    viz::draw_search_annuli(canvas, 2, "#bbbbbb");
    canvas.save(out("gallery_algorithm3.svg"));
  }

  // --- Definition 1: the equivalent-search reduction ----------------------
  {
    geom::RobotAttributes attrs;
    attrs.speed = 1.4;
    attrs.orientation = mathx::kPi / 3.0;
    attrs.chirality = -1;
    const geom::Vec2 offset{1.5, 0.8};
    const double horizon = 30.0;

    sim::GlobalTrace trace_r(search::make_search_program(),
                             geom::reference_attributes(), {0.0, 0.0},
                             horizon);
    sim::GlobalTrace trace_rp(search::make_search_program(), attrs, offset,
                              horizon);
    // Equivalent search trajectory: T∘·S(t), sampled densely.
    const geom::Mat2 t_circ = geom::difference_matrix(attrs);
    traj::BufferedTrajectory local(search::make_search_program());
    viz::TrajectorySeries equivalent;
    equivalent.color = "#2ca02c";
    equivalent.label = "T∘·S(t) — the equivalent search";
    for (int i = 0; i <= 3000; ++i) {
      const double t = horizon * i / 3000.0;
      equivalent.points.push_back(t_circ * local.position_at(t));
    }

    viz::TrajectorySeries sr;
    sr.points = trace_r.polyline(2e-3);
    sr.color = "#1f77b4";
    sr.label = "R: S(t)";
    viz::TrajectorySeries srp;
    srp.points = trace_rp.polyline(2e-3);
    srp.color = "#d62728";
    srp.label = "R': offset + v·R(φ)·C(χ)·S(t)";

    auto canvas = viz::plot_trajectories({sr, srp, equivalent});
    canvas.marker(offset, "#d62728");
    canvas.save(out("gallery_equivalent.svg"));
  }

  std::cout << "wrote gallery_algorithm1.svg, gallery_algorithm2.svg, "
               "gallery_algorithm3.svg, gallery_equivalent.svg to "
            << dir << '\n';
  return 0;
}
