#pragma once

/// \file coverage.hpp
/// Swept-area coverage accounting.
///
/// The Ω(d²/r) search lower bound (Pelc [25], quoted in Section 2)
/// rests on an area argument: a robot with visibility r sweeps at most
/// 2r of new area per unit of travel, and the disk of radius d has area
/// πd² — so πd²/(2r) time is unavoidable.  This module *measures* the
/// sweep: it rasterises the r-neighbourhood of a trajectory onto a
/// grid and reports what fraction of a target disk has been covered
/// as a function of time.  The benches use it to show Algorithm 4
/// approaches the 2r·t area budget with small constant waste, while
/// mis-tuned variants (A3 spacing ablation) either re-cover or leave
/// gaps.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "geom/attributes.hpp"
#include "geom/vec2.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"

namespace rv::analysis {

/// A square occupancy grid over [−extent, extent]², one bit per cell in
/// row-major 64-bit words (⌈side/64⌉ words a row).
class CoverageGrid {
 public:
  /// `extent` is the half-width of the window; `cell` the cell size.
  /// \throws std::invalid_argument on non-positive sizes or absurd
  /// resolutions (> 4096² cells).
  CoverageGrid(double extent, double cell);

  /// Marks every cell whose centre lies within `radius` of `p`.  Only
  /// the unmarked cells of the disk's bounding rows are tested.
  void mark_disk(const geom::Vec2& p, double radius);

  /// True when every cell of the index rectangle spanned by `box`
  /// grown by `pad` on each side, clipped to the grid, is marked (an
  /// empty rectangle is).  A mark of radius ≤ `pad` centred in `box`
  /// then changes nothing.
  [[nodiscard]] bool all_marked(const traj::Box& box, double pad) const;

  /// Fraction of cells inside the disk of radius `disk_radius`
  /// (centred at the origin) that are marked.
  [[nodiscard]] double covered_fraction_of_disk(double disk_radius) const;

  /// Total marked area (cells × cell²).
  [[nodiscard]] double covered_area() const;

  /// Number of marked cells.
  [[nodiscard]] std::uint64_t marked_cells() const { return marked_; }

  /// Whether cell (ix, iy) is marked; both indices in [0, side).
  [[nodiscard]] bool marked(int ix, int iy) const;

  /// Grid geometry.
  [[nodiscard]] double extent() const { return extent_; }
  [[nodiscard]] double cell() const { return cell_; }
  [[nodiscard]] int side() const { return side_; }

 private:
  double extent_;
  double cell_;
  int side_;
  std::size_t words_per_row_;
  std::vector<std::uint64_t> bits_;
  std::uint64_t marked_ = 0;

  /// An inclusive cell-index rectangle (empty when lo > hi).
  struct CellRect {
    int lo_x, hi_x, lo_y, hi_y;
  };

  /// Cell index of `coord` on either axis, saturated to [−1, side]:
  /// monotone in `coord` and exact inside the grid.
  [[nodiscard]] int index_of(double coord) const;

  /// The cells whose indices lie between those of `lo` and `hi`,
  /// clipped to the grid.
  [[nodiscard]] CellRect cells_between(const geom::Vec2& lo,
                                       const geom::Vec2& hi) const;
};

/// One point of a coverage-vs-time series.
struct CoveragePoint {
  double time = 0.0;
  double fraction = 0.0;      ///< covered fraction of the target disk
  double covered_area = 0.0;  ///< absolute marked area
};

/// Options for the sweep measurement.
struct CoverageOptions {
  double visibility = 0.1;   ///< r: neighbourhood radius of the robot
  double horizon = 1e4;      ///< how long to run the program
  double disk_radius = 2.0;  ///< the target disk for fractions
  double cell = 0.02;        ///< grid resolution
  int checkpoints = 32;      ///< series points returned
};

/// Runs `program` (with `attrs`, from the origin) for `horizon` time,
/// marking the r-neighbourhood along the way, and returns the coverage
/// series.  Positions are sampled every cell/2 of travel so no cell
/// on the path can be skipped.
///
/// A segment is skipped whole, by either of two rules decided when it
/// is fetched: the sweep jumps straight to its end (or the horizon),
/// still recording every checkpoint it passes.
///
/// 1. It cannot reach the grid: its closest approach to the origin
///    exceeds √2·extent + r + cell.  The approach is |radius − |center||
///    for an arc (its whole circle, a lower bound), the point-to-segment
///    distance for a line and the point for a wait.  The margin is
///    certified: the grid has ⌈2·extent/cell⌉ cells a side starting at
///    −extent, so every cell centre lies within √2·(extent + cell/2) of
///    the origin, and a mark of radius r at a farther point than
///    √2·extent + r + cell misses every centre by more than
///    (1 − √2/2)·cell — far above floating-point rounding.
/// 2. Every cell it could touch is already marked:
///    `all_marked(box, r + cell)` holds for its box (a line's endpoint
///    min/max, an arc's centre ± radius, a wait's point).  A mark at p
///    only tests cells in the index rectangle of p ∓ r, and the cell
///    index is monotone (saturated off the grid), so every mark on the
///    segment lands in that padded rectangle; the extra cell of pad
///    absorbs the rounding of sampled positions.  The grid only grows,
///    so a rectangle marked at fetch stays marked.
///
/// Either way the skipped marks would not have changed the grid, so the
/// series is bitwise the one full stepping produces.
/// \throws std::invalid_argument when horizon, visibility, disk_radius
/// or cell is not finite and > 0, or checkpoints < 1.
[[nodiscard]] std::vector<CoveragePoint> measure_coverage(
    std::shared_ptr<traj::Program> program,
    const geom::RobotAttributes& attrs, const CoverageOptions& options);

/// The area-budget lower bound on the time to cover a disk of radius R
/// at visibility r: πR²/(2r) (the [25] accounting, up to constants).
[[nodiscard]] double area_budget_time(double disk_radius, double r);

/// First checkpoint of the series with covered fraction ≥ `fraction`,
/// or nullptr when the series never reaches it.
[[nodiscard]] const CoveragePoint* first_at_fraction(
    const std::vector<CoveragePoint>& series, double fraction);

/// Time of that checkpoint, or −1.0 when the fraction is never reached
/// (the benches' ">horizon" sentinel).
[[nodiscard]] double time_to_fraction(
    const std::vector<CoveragePoint>& series, double fraction);

}  // namespace rv::analysis
