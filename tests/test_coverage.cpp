// Tests for the coverage-accounting module: grid marking, disk
// fractions, the measured sweep of known trajectories, and the area
// budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/coverage.hpp"
#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "search/algorithm4.hpp"
#include "search/baselines.hpp"
#include "search/paths.hpp"
#include "search/times.hpp"
#include "traj/frame.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"

namespace {

using namespace rv::analysis;
using rv::geom::Vec2;

TEST(CoverageGrid, ValidationAndGeometry) {
  EXPECT_THROW(CoverageGrid(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(CoverageGrid(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(CoverageGrid(100.0, 0.01), std::invalid_argument);  // too fine
  const CoverageGrid grid(1.0, 0.1);
  EXPECT_EQ(grid.side(), 20);
  EXPECT_EQ(grid.marked_cells(), 0u);
}

TEST(CoverageGrid, MarkDiskCountsApproximateArea) {
  CoverageGrid grid(2.0, 0.02);
  grid.mark_disk({0.0, 0.0}, 1.0);
  // Marked area ≈ π·1² within a few percent at this resolution.
  EXPECT_NEAR(grid.covered_area(), rv::mathx::kPi, 0.05);
  // The unit disk itself is fully covered.
  EXPECT_NEAR(grid.covered_fraction_of_disk(0.99), 1.0, 1e-12);
  // The radius-2 disk is roughly a quarter covered (area ratio 1/4).
  EXPECT_NEAR(grid.covered_fraction_of_disk(2.0), 0.25, 0.02);
}

TEST(CoverageGrid, MarksAreIdempotent) {
  CoverageGrid grid(1.0, 0.05);
  grid.mark_disk({0.2, 0.1}, 0.3);
  const auto first = grid.marked_cells();
  grid.mark_disk({0.2, 0.1}, 0.3);
  EXPECT_EQ(grid.marked_cells(), first);
}

TEST(CoverageGrid, OutOfWindowMarksClip) {
  CoverageGrid grid(1.0, 0.1);
  grid.mark_disk({10.0, 10.0}, 0.5);  // fully outside
  EXPECT_EQ(grid.marked_cells(), 0u);
  grid.mark_disk({1.0, 0.0}, 0.3);  // straddles the boundary
  EXPECT_GT(grid.marked_cells(), 0u);
}

TEST(MeasureCoverage, SingleCirclePassCoversAnnulusBand) {
  // SearchCircle(1) with visibility 0.2 covers the band [0.8, 1.2]
  // plus the spoke along +x.  The fraction of the radius-2 disk is
  // the band area (π(1.2²−0.8²) = 0.8π) plus a thin spoke, over 4π.
  rv::traj::Path circle = rv::search::search_circle_path(1.0);
  CoverageOptions opts;
  opts.visibility = 0.2;
  opts.disk_radius = 2.0;
  opts.cell = 0.02;
  opts.horizon = circle.duration();
  opts.checkpoints = 4;
  const auto series = measure_coverage(
      std::make_shared<rv::traj::PathProgram>(circle, "circle"),
      rv::geom::reference_attributes(), opts);
  ASSERT_EQ(series.size(), 4u);
  // Band fraction 0.2 plus the swept spoke along +x (~0.03).
  EXPECT_GE(series.back().fraction, 0.19);
  EXPECT_LE(series.back().fraction, 0.28);
  // Coverage is monotone in time.
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].fraction, series[i - 1].fraction - 1e-12);
  }
}

TEST(MeasureCoverage, Algorithm4CoversTargetBandByGuaranteedRound) {
  // The guaranteed round covers the *distance band* of the target —
  // round k's innermost circle sits at 2^{−k}, so the deep interior is
  // only reached by later rounds.  Measured: by the end of the
  // guaranteed round for (d, r) the coverage of the radius-d disk is
  // high but not total (interior hole of radius ~2^{−k} − r remains).
  const double d = 1.0, r = 0.125;
  const int k = rv::search::guaranteed_round(d, r);  // k = 1 here
  CoverageOptions opts;
  opts.visibility = r;
  opts.disk_radius = d;
  opts.cell = 0.02;
  opts.horizon = rv::search::time_first_rounds(k);
  opts.checkpoints = 8;
  const auto series =
      measure_coverage(rv::search::make_search_program(),
                       rv::geom::reference_attributes(), opts);
  // Band [2^{−k}, d] covered; interior hole ≈ π(2^{−k} − r)²/πd².
  const double hole = std::pow(rv::mathx::pow2(-k) - r, 2.0) / (d * d);
  EXPECT_GE(series.back().fraction, 1.0 - hole - 0.05);
  EXPECT_LT(series.back().fraction, 1.0);  // the hole is real
}

TEST(MeasureCoverage, Algorithm4FullyCoversDiskOncePowersReachVisibility) {
  // Full-disk coverage needs the round k_full with 2^{−k} ≤ r (the
  // innermost circle passes within r of the origin) *and* band
  // granularity ≤ r out to d.  For d = 1, r = 0.125 that is k = 3.
  const double d = 1.0, r = 0.125;
  const int k_full = 3;
  CoverageOptions opts;
  opts.visibility = r;
  opts.disk_radius = d;
  opts.cell = 0.02;
  opts.horizon = rv::search::time_first_rounds(k_full);
  opts.checkpoints = 6;
  const auto series =
      measure_coverage(rv::search::make_search_program(),
                       rv::geom::reference_attributes(), opts);
  EXPECT_GE(series.back().fraction, 0.999);
}

TEST(MeasureCoverage, RespectsAreaBudget) {
  // No trajectory can cover area faster than 2r per unit time (plus
  // the initial disk πr²).  Check the invariant on Algorithm 4's
  // measured sweep.
  const double r = 0.15;
  CoverageOptions opts;
  opts.visibility = r;
  opts.disk_radius = 1.5;
  opts.cell = 0.02;
  opts.horizon = 300.0;
  opts.checkpoints = 16;
  const auto series =
      measure_coverage(rv::search::make_search_program(),
                       rv::geom::reference_attributes(), opts);
  for (const auto& pt : series) {
    EXPECT_LE(pt.covered_area,
              2.0 * r * pt.time + rv::mathx::kPi * r * r + 0.05)
        << "t=" << pt.time;
  }
}

TEST(AreaBudget, ClosedFormAndGuards) {
  EXPECT_NEAR(area_budget_time(2.0, 0.1), rv::mathx::kPi * 4.0 / 0.2, 1e-12);
  EXPECT_THROW((void)area_budget_time(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW((void)area_budget_time(1.0, 0.0), std::invalid_argument);
}

TEST(MeasureCoverage, OptionValidation) {
  CoverageOptions bad;
  bad.horizon = 0.0;
  EXPECT_THROW((void)measure_coverage(rv::search::make_search_program(),
                                      rv::geom::reference_attributes(), bad),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Far-segment skip: invisible in the output
// ---------------------------------------------------------------------------

// measure_coverage as it was before segments that cannot reach the
// grid were skipped: every segment is walked in cell/2 steps, marking
// at each.  The oracle the skipping sweep must match bit for bit.
std::vector<CoveragePoint> stepping_oracle(
    std::shared_ptr<rv::traj::Program> program,
    const rv::geom::RobotAttributes& attrs, const CoverageOptions& options) {
  const double extent = options.disk_radius + options.visibility + 1e-9;
  CoverageGrid grid(extent, options.cell);

  rv::traj::GlobalSegmentStream stream(std::move(program), attrs, {0.0, 0.0});
  std::vector<CoveragePoint> series;
  const double checkpoint_dt =
      options.horizon / static_cast<double>(options.checkpoints);
  double next_checkpoint = checkpoint_dt;

  double t = 0.0;
  rv::traj::TimedSegment seg = stream.next();
  grid.mark_disk(seg.position(0.0), options.visibility);
  while (t < options.horizon) {
    while (seg.t1 <= t) seg = stream.next();
    const double speed = seg.speed();
    double dt;
    if (speed <= 0.0) {
      dt = seg.t1 - t;
      if (dt <= 0.0) dt = options.cell;
    } else {
      dt = 0.5 * options.cell / speed;
    }
    t = std::min({t + dt, seg.t1, options.horizon});
    grid.mark_disk(seg.position(t), options.visibility);
    while (t >= next_checkpoint - 1e-12 &&
           series.size() <
               static_cast<std::size_t>(options.checkpoints)) {
      series.push_back(CoveragePoint{
          next_checkpoint,
          grid.covered_fraction_of_disk(options.disk_radius),
          grid.covered_area()});
      next_checkpoint += checkpoint_dt;
    }
    if (t >= options.horizon) break;
  }
  while (series.size() < static_cast<std::size_t>(options.checkpoints)) {
    series.push_back(CoveragePoint{
        options.horizon, grid.covered_fraction_of_disk(options.disk_radius),
        grid.covered_area()});
  }
  return series;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Runs both sweeps on fresh programs from `make` and requires the same
// series, compared as bit patterns.
template <typename Make>
void expect_matches_oracle(Make make, const rv::geom::RobotAttributes& attrs,
                           const CoverageOptions& opts,
                           const std::string& what) {
  const auto got = measure_coverage(make(), attrs, opts);
  const auto want = stepping_oracle(make(), attrs, opts);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i].time), bits(want[i].time)) << what << " #" << i;
    EXPECT_EQ(bits(got[i].fraction), bits(want[i].fraction))
        << what << " #" << i;
    EXPECT_EQ(bits(got[i].covered_area), bits(want[i].covered_area))
        << what << " #" << i;
  }
}

// The coverage-disk set's cell: R = 1.5, r = 0.1, cell 0.05.
CoverageOptions disk_options(double horizon, int checkpoints) {
  CoverageOptions opts;
  opts.disk_radius = 1.5;
  opts.visibility = 0.1;
  opts.cell = 0.05;
  opts.horizon = horizon;
  opts.checkpoints = checkpoints;
  return opts;
}

TEST(CoverageSkip, UniversalProgramsMatchSteppingAtRoundHorizons) {
  const std::pair<const char*, std::shared_ptr<rv::traj::Program> (*)()>
      programs[] = {
          {"algorithm4", &rv::search::make_search_program},
          {"concentric", &rv::search::make_concentric_baseline},
          {"square-spiral", &rv::search::make_square_spiral_baseline},
      };
  const double round_horizon = rv::search::time_first_rounds(
      rv::search::guaranteed_round(1.5, 0.1));
  for (const auto& [name, make] : programs) {
    for (const double scale : {1.0, 2.0, 4.0}) {
      expect_matches_oracle(make, rv::geom::reference_attributes(),
                            disk_options(scale * round_horizon, 16),
                            std::string(name) + " x" + std::to_string(scale));
    }
  }
}

TEST(CoverageSkip, RotatedReflectedRobotMatchesStepping) {
  rv::geom::RobotAttributes attrs;
  attrs.speed = 1.3;
  attrs.time_unit = 0.7;
  attrs.orientation = 2.3;
  attrs.chirality = -1;
  const double horizon = 2.0 * rv::search::time_first_rounds(
                                   rv::search::guaranteed_round(1.5, 0.1));
  expect_matches_oracle(&rv::search::make_search_program, attrs,
                        disk_options(horizon, 16), "algorithm4 rotated");
}

// Out along +x to radius 5, a full circle there (far outside the grid,
// skipped whole), and back: the circle occupies [5, 5 + 10π].
rv::traj::Path far_circle_path() {
  rv::traj::Path p;
  p.line_to({5.0, 0.0});
  p.arc_around({0.0, 0.0}, rv::mathx::kTwoPi);
  p.line_to({0.0, 0.0});
  return p;
}

TEST(CoverageSkip, CheckpointsAndHorizonInsideASkippedSegment) {
  const rv::traj::Path path = far_circle_path();
  auto make = [&path] {
    return std::make_shared<rv::traj::PathProgram>(path, "far-circle");
  };
  // Eight checkpoints over the whole path: several land mid-circle.
  expect_matches_oracle(make, rv::geom::reference_attributes(),
                        disk_options(path.duration(), 8), "checkpoints");
  // A horizon that ends mid-circle, with checkpoints before it.
  expect_matches_oracle(make, rv::geom::reference_attributes(),
                        disk_options(20.0, 7), "horizon mid-circle");
  // Past the path's end: the trailing waits at the origin count too.
  expect_matches_oracle(make, rv::geom::reference_attributes(),
                        disk_options(path.duration() + 3.0, 5), "tail");

  // A long far wait cut by the horizon.  Seven summed checkpoint steps
  // overshoot this horizon by more than the 1e-12 slack, so the last
  // checkpoint is padded at the horizon only if the jump stops there.
  rv::traj::Path far_wait;
  far_wait.line_to({5.0, 0.0});
  far_wait.wait(1e7);
  far_wait.line_to({0.0, 0.0});
  expect_matches_oracle(
      [&far_wait] {
        return std::make_shared<rv::traj::PathProgram>(far_wait, "far-wait");
      },
      rv::geom::reference_attributes(), disk_options(3000000.1, 7),
      "horizon mid-wait");
}

TEST(CoverageSkip, PathLeavingAndReenteringTheGridMatchesStepping) {
  // Leaves diagonally, waits far out (a skipped wait), sweeps a half
  // circle whose own circle passes the origin (never skipped), then an
  // off-grid chord (a skipped line) and home.
  rv::traj::Path p;
  p.line_to({4.0, 4.0});
  p.wait(2.5);
  p.arc_around({4.0, 0.0}, rv::mathx::kPi);
  p.line_to({-4.0, 4.0});
  p.line_to({0.0, 0.0});
  auto make = [&p] {
    return std::make_shared<rv::traj::PathProgram>(p, "excursion");
  };
  expect_matches_oracle(make, rv::geom::reference_attributes(),
                        disk_options(p.duration(), 9), "excursion");
  rv::geom::RobotAttributes attrs;
  attrs.orientation = -0.9;
  attrs.chirality = -1;
  expect_matches_oracle(make, attrs, disk_options(p.duration(), 9),
                        "excursion reflected");
}

TEST(CoverageSkip, SegmentsGrazingTheReachMarginMatchStepping) {
  // Circles and tangent lines at exactly the reach margin (stepped: the
  // skip needs a strictly larger approach) and one ulp either side.
  // The margin measure_coverage skips beyond, for disk_options().
  const CoverageOptions base = disk_options(1.0, 6);
  const double extent = base.disk_radius + base.visibility + 1e-9;
  const double reach = std::sqrt(2.0) * extent + base.visibility + base.cell;
  for (const double radius : {std::nextafter(reach, 0.0), reach,
                              std::nextafter(reach, 10.0)}) {
    rv::traj::Path circle;
    circle.line_to({radius, 0.0});
    circle.arc_around({0.0, 0.0}, rv::mathx::kTwoPi);
    circle.line_to({0.0, 0.0});
    rv::traj::Path tangent;
    tangent.line_to({radius, -3.0});
    tangent.line_to({radius, 3.0});
    tangent.line_to({0.0, 0.0});
    for (const rv::traj::Path* path : {&circle, &tangent}) {
      auto make = [path] {
        return std::make_shared<rv::traj::PathProgram>(*path, "graze");
      };
      expect_matches_oracle(make, rv::geom::reference_attributes(),
                            disk_options(path->duration(), 6), "graze");
    }
  }
}

}  // namespace
