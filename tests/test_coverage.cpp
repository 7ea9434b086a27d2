// Tests for the coverage-accounting module: grid marking, disk
// fractions, the measured sweep of known trajectories, and the area
// budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/coverage.hpp"
#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "search/algorithm4.hpp"
#include "search/baselines.hpp"
#include "search/paths.hpp"
#include "search/times.hpp"
#include "support/traj.hpp"
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

TEST(CoverageGrid, FarMarksAreNoOps) {
  // The cell index saturates instead of overflowing its int cast.
  CoverageGrid grid(1.0, 0.1);
  for (const double far : {1e12, -1e12, 1e300, -1e300}) {
    grid.mark_disk({far, 0.0}, 0.5);
    grid.mark_disk({0.0, far}, 0.5);
  }
  EXPECT_EQ(grid.marked_cells(), 0u);
}

TEST(CoverageGrid, AllMarkedChecksThePaddedRectangle) {
  using rv::traj::Box;
  CoverageGrid grid(1.0, 0.1);
  EXPECT_FALSE(grid.all_marked(Box{{0.0, 0.0}, {0.0, 0.0}}, 0.0));
  // Off the grid the rectangle is empty, hence all marked.
  EXPECT_TRUE(grid.all_marked(Box{{5.0, 5.0}, {6.0, 6.0}}, 0.5));
  EXPECT_TRUE(grid.all_marked(Box{{1e12, 0.0}, {1e300, 0.0}}, 0.1));
  // Edges far out on both sides clip to the whole grid, not to nothing.
  EXPECT_FALSE(grid.all_marked(Box{{-1e12, 0.0}, {1e12, 0.0}}, 0.1));
  EXPECT_FALSE(grid.all_marked(Box{{0.0, 0.0}, {1e12, 0.0}}, 0.1));

  // Cells 8..11 a side (centres within 0.22 of the origin) are marked;
  // a pad of 0.3 reaches cells 6..13, whose corners are not.
  grid.mark_disk({0.0, 0.0}, 0.35);
  EXPECT_TRUE(grid.all_marked(Box{{-0.05, -0.05}, {0.05, 0.05}}, 0.1));
  EXPECT_FALSE(grid.all_marked(Box{{-0.05, -0.05}, {0.05, 0.05}}, 0.3));
  grid.mark_disk({0.0, 0.0}, 2.0);
  EXPECT_TRUE(grid.all_marked(Box{{-1e12, -1e12}, {1e12, 1e12}}, 0.1));
}

// The grid as it was before bits were packed into words: one bool a
// cell, every cell of the bounding rows tested on every mark.
struct BoolGrid {
  double extent;
  double cell;
  int side;
  std::vector<bool> cells;
  std::uint64_t marked = 0;

  BoolGrid(double e, double c)
      : extent(e),
        cell(c),
        side(static_cast<int>(std::ceil(2.0 * e / c))),
        cells(static_cast<std::size_t>(side) * side, false) {}

  int index_of(double coord) const {
    return static_cast<int>(std::floor((coord + extent) / cell));
  }

  void mark_disk(const Vec2& p, double radius) {
    const int lo_x = std::max(0, index_of(p.x - radius));
    const int hi_x = std::min(side - 1, index_of(p.x + radius));
    const int lo_y = std::max(0, index_of(p.y - radius));
    const int hi_y = std::min(side - 1, index_of(p.y + radius));
    const double r2 = radius * radius;
    for (int iy = lo_y; iy <= hi_y; ++iy) {
      const double cy = -extent + (iy + 0.5) * cell;
      const double dy2 = (cy - p.y) * (cy - p.y);
      if (dy2 > r2) continue;
      for (int ix = lo_x; ix <= hi_x; ++ix) {
        const double cx = -extent + (ix + 0.5) * cell;
        if ((cx - p.x) * (cx - p.x) + dy2 > r2) continue;
        const std::size_t idx = static_cast<std::size_t>(iy) * side +
                                static_cast<std::size_t>(ix);
        if (!cells[idx]) {
          cells[idx] = true;
          ++marked;
        }
      }
    }
  }

  // Whether every cell of the clipped index rectangle of `box` grown
  // by `pad` is marked, cell by cell.
  bool all_marked(const rv::traj::Box& box, double pad) const {
    const int lo_x = std::max(0, index_of(box.lo.x - pad));
    const int hi_x = std::min(side - 1, index_of(box.hi.x + pad));
    const int lo_y = std::max(0, index_of(box.lo.y - pad));
    const int hi_y = std::min(side - 1, index_of(box.hi.y + pad));
    for (int iy = lo_y; iy <= hi_y; ++iy) {
      for (int ix = lo_x; ix <= hi_x; ++ix) {
        if (!cells[static_cast<std::size_t>(iy) * side +
                   static_cast<std::size_t>(ix)]) {
          return false;
        }
      }
    }
    return true;
  }

  double covered_fraction_of_disk(double disk_radius) const {
    const double r2 = disk_radius * disk_radius;
    std::uint64_t inside = 0, covered = 0;
    for (int iy = 0; iy < side; ++iy) {
      const double cy = -extent + (iy + 0.5) * cell;
      for (int ix = 0; ix < side; ++ix) {
        const double cx = -extent + (ix + 0.5) * cell;
        if (cx * cx + cy * cy > r2) continue;
        ++inside;
        if (cells[static_cast<std::size_t>(iy) * side +
                  static_cast<std::size_t>(ix)]) {
          ++covered;
        }
      }
    }
    if (inside == 0) return 0.0;
    return static_cast<double>(covered) / static_cast<double>(inside);
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(CoverageGrid, WordPackedGridMatchesPerCellGrid) {
  // Sides at and around the 64-bit word edges; seeded disks inside,
  // outside and straddling the grid, radii from below one cell to
  // beyond the grid.  Every cell, the count and the disk fractions
  // must agree after every mark.
  const double cell = 0.05;
  rv::mathx::Xoshiro256 rng(0xC0FFEE);
  for (const int side : {63, 64, 65, 130}) {
    const double extent = (side - 0.5) * cell / 2.0;
    for (int round = 0; round < 4; ++round) {
      CoverageGrid grid(extent, cell);
      BoolGrid want(extent, cell);
      ASSERT_EQ(grid.side(), side);
      ASSERT_EQ(want.side, side);
      for (int k = 0; k < 24; ++k) {
        const Vec2 p{rng.uniform(-1.5 * extent, 1.5 * extent),
                     rng.uniform(-1.5 * extent, 1.5 * extent)};
        const double radius = std::exp(
            rng.uniform(std::log(0.3 * cell), std::log(2.5 * extent)));
        grid.mark_disk(p, radius);
        want.mark_disk(p, radius);
        const std::string what = "side " + std::to_string(side) +
                                 " round " + std::to_string(round) +
                                 " mark " + std::to_string(k);
        ASSERT_EQ(grid.marked_cells(), want.marked) << what;
        for (int iy = 0; iy < side; ++iy) {
          for (int ix = 0; ix < side; ++ix) {
            ASSERT_EQ(grid.marked(ix, iy),
                      want.cells[static_cast<std::size_t>(iy) * side +
                                 static_cast<std::size_t>(ix)])
                << what << " cell " << ix << "," << iy;
          }
        }
        for (const double disk : {0.3 * extent, extent, 1.5 * extent}) {
          ASSERT_EQ(bits(grid.covered_fraction_of_disk(disk)),
                    bits(want.covered_fraction_of_disk(disk)))
              << what << " disk " << disk;
        }
        // Boxes about the disk just marked, some inside it and some
        // reaching past its edge, across word boundaries.
        for (int b = 0; b < 8; ++b) {
          const Vec2 below{rng.uniform(0.0, 1.5) * radius,
                           rng.uniform(0.0, 1.5) * radius};
          const Vec2 above{rng.uniform(0.0, 1.5) * radius,
                           rng.uniform(0.0, 1.5) * radius};
          const rv::traj::Box box{p - below, p + above};
          const double pad = rng.uniform(0.0, 2.0 * cell);
          ASSERT_EQ(grid.all_marked(box, pad), want.all_marked(box, pad))
              << what << " box " << b;
        }
      }
    }
  }
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
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<const char*, void (*)(CoverageOptions&)> rows[] = {
      {"horizon 0", [](CoverageOptions& o) { o.horizon = 0.0; }},
      {"horizon inf", [](CoverageOptions& o) { o.horizon = inf; }},
      {"horizon nan", [](CoverageOptions& o) { o.horizon = nan; }},
      {"visibility 0", [](CoverageOptions& o) { o.visibility = 0.0; }},
      {"visibility inf", [](CoverageOptions& o) { o.visibility = inf; }},
      {"disk_radius -1", [](CoverageOptions& o) { o.disk_radius = -1.0; }},
      {"disk_radius inf", [](CoverageOptions& o) { o.disk_radius = inf; }},
      {"cell 0", [](CoverageOptions& o) { o.cell = 0.0; }},
      {"cell inf", [](CoverageOptions& o) { o.cell = inf; }},
      {"cell nan", [](CoverageOptions& o) { o.cell = nan; }},
      {"checkpoints 0", [](CoverageOptions& o) { o.checkpoints = 0; }},
  };
  for (const auto& [what, spoil] : rows) {
    CoverageOptions bad;
    bad.horizon = 10.0;
    spoil(bad);
    // The message names the offending option.
    const std::string option(what, std::string(what).find(' '));
    try {
      (void)measure_coverage(rv::search::make_search_program(),
                             rv::geom::reference_attributes(), bad);
      ADD_FAILURE() << what << ": no throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
          << what << ": " << e.what();
    }
  }
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

// The coverage-disk set's cell: R = 1.5, r = 0.1, cell 0.05 (0.035 in
// the cold-sweep benchmark's perturbation).
CoverageOptions disk_options(double horizon, int checkpoints,
                             double cell = 0.05) {
  CoverageOptions opts;
  opts.disk_radius = 1.5;
  opts.visibility = 0.1;
  opts.cell = cell;
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
    for (const double cell : {0.05, 0.035}) {
      for (const double scale : {1.0, 2.0, 4.0}) {
        expect_matches_oracle(make, rv::geom::reference_attributes(),
                              disk_options(scale * round_horizon, 16, cell),
                              std::string(name) + " cell " +
                                  std::to_string(cell) + " x" +
                                  std::to_string(scale));
      }
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

// ---------------------------------------------------------------------------
// Covered-segment skip: invisible in the output
// ---------------------------------------------------------------------------

TEST(CoverageSkip, LineToAFarPointStillMarksItsNearEnd) {
  // The line's box reaches 1e12: its cell rectangle must clip to the
  // grid edge rather than wrap to an empty one and skip the line.
  rv::traj::Path p;
  p.line_to({1e12, 0.0});
  p.line_to({0.0, 0.0});
  auto make = [&p] {
    return std::make_shared<rv::traj::PathProgram>(p, "far-line");
  };
  expect_matches_oracle(make, rv::geom::reference_attributes(),
                        disk_options(5.0, 5), "far line");
}

// Concentric circles r-spaced out past the grid's edge, so the disk of
// radius 1.7 is covered; then `retraces` rounds of one ray to radius 1
// and the circle there, and a wait inside the covered disk.  Every
// retraced segment's padded box lies inside the covered disk.
rv::traj::Path retrace_path(int retraces, double* covered_at) {
  rv::traj::Path p;
  for (int i = 0; i < 11; ++i) {
    p.line_to({0.1 + 0.15 * i, 0.0});
    p.arc_around({0.0, 0.0}, rv::mathx::kTwoPi);
  }
  p.line_to({0.0, 0.0});
  *covered_at = p.duration();
  for (int i = 0; i < retraces; ++i) {
    p.line_to({1.0, 0.0});
    p.arc_around({0.0, 0.0}, (i % 2 == 0 ? 1.0 : -1.0) * rv::mathx::kTwoPi);
    p.line_to({0.0, 0.0});
  }
  p.line_to({0.5, 0.5});
  p.wait(3.0);
  // Out to the grid's uncovered corner and back twice: no leg's padded
  // box is all marked, so these are stepped again.
  for (int i = 0; i < 2; ++i) {
    p.line_to({1.55, 1.55});
    p.line_to({0.0, 0.0});
  }
  return p;
}

TEST(CoverageSkip, RetracedSegmentsInsideACoveredDiskMatchStepping) {
  double covered_at = 0.0;
  const rv::traj::Path path = retrace_path(4, &covered_at);
  auto make = [&path] {
    return std::make_shared<rv::traj::PathProgram>(path, "retrace");
  };
  const double round = 2.0 + rv::mathx::kTwoPi;  // ray out, circle, back
  // Many checkpoints over the whole path: most land in retraced
  // segments and the wait.
  expect_matches_oracle(make, rv::geom::reference_attributes(),
                        disk_options(path.duration(), 41), "whole path");
  // Horizons mid-ray, mid-circle and mid-wait.
  expect_matches_oracle(make, rv::geom::reference_attributes(),
                        disk_options(covered_at + round + 0.5, 13),
                        "horizon mid-ray");
  expect_matches_oracle(make, rv::geom::reference_attributes(),
                        disk_options(covered_at + 2.0 * round + 4.0, 17),
                        "horizon mid-circle");
  expect_matches_oracle(
      make, rv::geom::reference_attributes(),
      disk_options(covered_at + 4.0 * round + std::sqrt(0.5) + 1.5, 11),
      "horizon mid-wait");
  // The same path seen by a rotated, reflected, faster robot.
  rv::geom::RobotAttributes attrs;
  attrs.speed = 1.1;
  attrs.orientation = 0.7;
  attrs.chirality = -1;
  expect_matches_oracle(make, attrs, disk_options(path.duration(), 23),
                        "rotated");
}

TEST(CoverageSkip, SmallCircleBeyondALineEndIsStepped) {
  // The circle's own box lies in cells the line already marked, but
  // its marks reach up to 0.04 past the line's last one: only the pad
  // of r + cell keeps it from being skipped.
  rv::traj::Path p;
  p.line_to({0.5, 0.0});
  p.arc_around({0.52, 0.0}, rv::mathx::kTwoPi);
  p.line_to({0.0, 0.0});
  auto make = [&p] {
    return std::make_shared<rv::traj::PathProgram>(p, "small-circle");
  };
  expect_matches_oracle(make, rv::geom::reference_attributes(),
                        disk_options(p.duration(), 4), "small circle");
}

}  // namespace
