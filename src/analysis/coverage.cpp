#include "analysis/coverage.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "mathx/constants.hpp"
#include "traj/frame.hpp"

namespace rv::analysis {

using geom::Vec2;

namespace {
// Distance from the origin to the nearest point of `seg`, or a lower
// bound on it: an arc reports the approach of its whole circle.
double closest_approach(const traj::Segment& seg) {
  if (const auto* line = std::get_if<traj::LineSeg>(&seg)) {
    const Vec2 d = line->to - line->from;
    const double len2 = geom::norm_sq(d);
    const double u =
        len2 > 0.0 ? std::clamp(-geom::dot(line->from, d) / len2, 0.0, 1.0)
                   : 0.0;
    return geom::norm(line->from + u * d);
  }
  if (const auto* arc = std::get_if<traj::ArcSeg>(&seg)) {
    return std::abs(arc->radius - geom::norm(arc->center));
  }
  return geom::norm(std::get<traj::WaitSeg>(seg).at);
}

// A box holding every point of `seg`: a line's endpoint min/max, an
// arc's whole circle, a wait's point.
traj::Box segment_box(const traj::Segment& seg) {
  if (const auto* line = std::get_if<traj::LineSeg>(&seg)) {
    return {{std::min(line->from.x, line->to.x),
             std::min(line->from.y, line->to.y)},
            {std::max(line->from.x, line->to.x),
             std::max(line->from.y, line->to.y)}};
  }
  if (const auto* arc = std::get_if<traj::ArcSeg>(&seg)) {
    const Vec2 half{arc->radius, arc->radius};
    return {arc->center - half, arc->center + half};
  }
  const Vec2 at = std::get<traj::WaitSeg>(seg).at;
  return {at, at};
}

// The bits of row word `w` that hold columns lo..hi (inclusive; the
// range meets the word).
std::uint64_t word_span(int w, int lo, int hi) {
  const int base = w << 6;
  const int first = std::max(lo, base) - base;
  const int last = std::min(hi, base + 63) - base;
  return (~std::uint64_t{0} >> (63 - last)) & (~std::uint64_t{0} << first);
}
}  // namespace

CoverageGrid::CoverageGrid(double extent, double cell)
    : extent_(extent), cell_(cell) {
  if (!(extent > 0.0) || !(cell > 0.0)) {
    throw std::invalid_argument("CoverageGrid: non-positive sizes");
  }
  const double cells = std::ceil(2.0 * extent / cell);
  if (cells > 4096.0) {
    throw std::invalid_argument("CoverageGrid: resolution too fine");
  }
  side_ = static_cast<int>(cells);
  words_per_row_ = (static_cast<std::size_t>(side_) + 63) / 64;
  bits_.assign(words_per_row_ * static_cast<std::size_t>(side_), 0);
}

int CoverageGrid::index_of(double coord) const {
  // Clamped in double so a far (or NaN) coordinate never overflows the
  // int cast; −1 and side both lie off the grid, so clipping is exact.
  const double i = std::floor((coord + extent_) / cell_);
  if (!(i >= -1.0)) return -1;
  return i > side_ ? side_ : static_cast<int>(i);
}

bool CoverageGrid::marked(int ix, int iy) const {
  const std::uint64_t word =
      bits_[static_cast<std::size_t>(iy) * words_per_row_ +
            static_cast<std::size_t>(ix >> 6)];
  return (word >> (ix & 63)) & 1u;
}

CoverageGrid::CellRect CoverageGrid::cells_between(const Vec2& lo,
                                                  const Vec2& hi) const {
  return {std::max(0, index_of(lo.x)), std::min(side_ - 1, index_of(hi.x)),
          std::max(0, index_of(lo.y)), std::min(side_ - 1, index_of(hi.y))};
}

void CoverageGrid::mark_disk(const Vec2& p, double radius) {
  const CellRect c = cells_between({p.x - radius, p.y - radius},
                                   {p.x + radius, p.y + radius});
  if (c.lo_x > c.hi_x) return;
  const double r2 = radius * radius;
  for (int iy = c.lo_y; iy <= c.hi_y; ++iy) {
    const double cy = -extent_ + (iy + 0.5) * cell_;
    const double dy2 = (cy - p.y) * (cy - p.y);
    if (dy2 > r2) continue;
    std::uint64_t* row =
        bits_.data() + static_cast<std::size_t>(iy) * words_per_row_;
    for (int w = c.lo_x >> 6; w <= c.hi_x >> 6; ++w) {
      // Only the cells not yet marked are tested.
      std::uint64_t todo = word_span(w, c.lo_x, c.hi_x) & ~row[w];
      while (todo != 0) {
        const int ix = (w << 6) + std::countr_zero(todo);
        todo &= todo - 1;
        const double cx = -extent_ + (ix + 0.5) * cell_;
        if ((cx - p.x) * (cx - p.x) + dy2 > r2) continue;
        row[w] |= std::uint64_t{1} << (ix & 63);
        ++marked_;
      }
    }
  }
}

bool CoverageGrid::all_marked(const traj::Box& box, double pad) const {
  const CellRect c = cells_between({box.lo.x - pad, box.lo.y - pad},
                                   {box.hi.x + pad, box.hi.y + pad});
  if (c.lo_x > c.hi_x) return true;
  for (int iy = c.lo_y; iy <= c.hi_y; ++iy) {
    const std::uint64_t* row =
        bits_.data() + static_cast<std::size_t>(iy) * words_per_row_;
    for (int w = c.lo_x >> 6; w <= c.hi_x >> 6; ++w) {
      if ((word_span(w, c.lo_x, c.hi_x) & ~row[w]) != 0) return false;
    }
  }
  return true;
}

double CoverageGrid::covered_fraction_of_disk(double disk_radius) const {
  if (!(disk_radius > 0.0)) {
    throw std::invalid_argument("covered_fraction_of_disk: radius <= 0");
  }
  const double r2 = disk_radius * disk_radius;
  std::uint64_t inside = 0, covered = 0;
  for (int iy = 0; iy < side_; ++iy) {
    const double cy = -extent_ + (iy + 0.5) * cell_;
    for (int ix = 0; ix < side_; ++ix) {
      const double cx = -extent_ + (ix + 0.5) * cell_;
      if (cx * cx + cy * cy > r2) continue;
      ++inside;
      if (marked(ix, iy)) ++covered;
    }
  }
  if (inside == 0) return 0.0;
  return static_cast<double>(covered) / static_cast<double>(inside);
}

double CoverageGrid::covered_area() const {
  return static_cast<double>(marked_) * cell_ * cell_;
}

std::vector<CoveragePoint> measure_coverage(
    std::shared_ptr<traj::Program> program,
    const geom::RobotAttributes& attrs, const CoverageOptions& options) {
  // std::isfinite beside the sign checks, as in ContactSweep: +inf
  // passes `> 0`, and an infinite horizon would never finish.
  const auto require = [](double v, const char* what) {
    if (!std::isfinite(v) || !(v > 0.0)) {
      throw std::invalid_argument(std::string("measure_coverage: ") + what +
                                  " must be finite > 0");
    }
  };
  require(options.horizon, "horizon");
  require(options.visibility, "visibility");
  require(options.disk_radius, "disk_radius");
  require(options.cell, "cell");
  if (options.checkpoints < 1) {
    throw std::invalid_argument("measure_coverage: checkpoints must be >= 1");
  }
  // Window must include everything the robot can reach plus its
  // visibility halo, clipped to the disk of interest for economy.
  const double extent = options.disk_radius + options.visibility + 1e-9;
  CoverageGrid grid(extent, options.cell);

  traj::GlobalSegmentStream stream(std::move(program), attrs, {0.0, 0.0});
  std::vector<CoveragePoint> series;
  series.reserve(static_cast<std::size_t>(options.checkpoints));
  const double checkpoint_dt =
      options.horizon / static_cast<double>(options.checkpoints);
  double next_checkpoint = checkpoint_dt;

  // Every cell centre lies within √2·(extent + cell/2) of the origin,
  // so a segment that stays farther than `reach` from it marks nothing
  // anywhere along its length (see coverage.hpp).
  const double reach =
      std::sqrt(2.0) * grid.extent() + options.visibility + grid.cell();

  // A segment whose every mark would land on marked cells is skipped
  // like a far one (see coverage.hpp); the pad covers the mark radius
  // plus a cell for rounding of the sampled positions.
  const double pad = options.visibility + grid.cell();
  const auto skippable = [&](const traj::TimedSegment& s) {
    return closest_approach(s.geometry) > reach ||
           grid.all_marked(segment_box(s.geometry), pad);
  };

  // A stepped segment's duration is computed once, on arrival, for
  // its speed and every mark position along it.
  double t = 0.0;
  traj::TimedSegment seg;
  stream.next_into(seg);
  bool skip = skippable(seg);
  double dur = traj::duration(seg.geometry);
  grid.mark_disk(seg.position(0.0, dur), options.visibility);
  while (t < options.horizon) {
    while (seg.t1 <= t) {
      stream.next_into(seg);
      skip = skippable(seg);
      if (!skip) dur = traj::duration(seg.geometry);
    }
    if (skip) {
      // Jump to the segment's end: the marks in between would not
      // change the grid, and the checkpoints passed below see the same
      // grid state they would have seen stepping.
      t = std::min(seg.t1, options.horizon);
    } else {
      // Step so the robot moves at most cell/2 between marks.
      const double speed = seg.speed(dur);
      double dt;
      if (speed <= 0.0) {
        dt = seg.t1 - t;  // waiting: nothing new to mark until the end
        if (dt <= 0.0) dt = options.cell;
      } else {
        dt = 0.5 * options.cell / speed;
      }
      t = std::min({t + dt, seg.t1, options.horizon});
      grid.mark_disk(seg.position(t, dur), options.visibility);
    }
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

double area_budget_time(double disk_radius, double r) {
  if (!(disk_radius > 0.0) || !(r > 0.0)) {
    throw std::invalid_argument("area_budget_time: need positive sizes");
  }
  return rv::mathx::kPi * disk_radius * disk_radius / (2.0 * r);
}

const CoveragePoint* first_at_fraction(
    const std::vector<CoveragePoint>& series, double fraction) {
  for (const CoveragePoint& pt : series) {
    if (pt.fraction >= fraction) return &pt;
  }
  return nullptr;
}

double time_to_fraction(const std::vector<CoveragePoint>& series,
                        double fraction) {
  const CoveragePoint* pt = first_at_fraction(series, fraction);
  return pt ? pt->time : -1.0;
}

}  // namespace rv::analysis
