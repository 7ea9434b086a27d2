#include "analysis/coverage.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
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
  cells_.assign(static_cast<std::size_t>(side_) * side_, false);
}

int CoverageGrid::index_of(double coord) const {
  return static_cast<int>(std::floor((coord + extent_) / cell_));
}

void CoverageGrid::mark_disk(const Vec2& p, double radius) {
  const int lo_x = std::max(0, index_of(p.x - radius));
  const int hi_x = std::min(side_ - 1, index_of(p.x + radius));
  const int lo_y = std::max(0, index_of(p.y - radius));
  const int hi_y = std::min(side_ - 1, index_of(p.y + radius));
  const double r2 = radius * radius;
  for (int iy = lo_y; iy <= hi_y; ++iy) {
    const double cy = -extent_ + (iy + 0.5) * cell_;
    const double dy2 = (cy - p.y) * (cy - p.y);
    if (dy2 > r2) continue;
    for (int ix = lo_x; ix <= hi_x; ++ix) {
      const double cx = -extent_ + (ix + 0.5) * cell_;
      if ((cx - p.x) * (cx - p.x) + dy2 > r2) continue;
      const std::size_t idx =
          static_cast<std::size_t>(iy) * side_ + static_cast<std::size_t>(ix);
      if (!cells_[idx]) {
        cells_[idx] = true;
        ++marked_;
      }
    }
  }
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
      if (cells_[static_cast<std::size_t>(iy) * side_ +
                 static_cast<std::size_t>(ix)]) {
        ++covered;
      }
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
  if (!(options.horizon > 0.0) || !(options.visibility > 0.0) ||
      options.checkpoints < 1) {
    throw std::invalid_argument("measure_coverage: bad options");
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

  double t = 0.0;
  traj::TimedSegment seg = stream.next();
  bool far = closest_approach(seg.geometry) > reach;
  grid.mark_disk(seg.position(0.0), options.visibility);
  while (t < options.horizon) {
    while (seg.t1 <= t) {
      seg = stream.next();
      far = closest_approach(seg.geometry) > reach;
    }
    if (far) {
      // Jump to the segment's end: the marks in between would not
      // change the grid, and the checkpoints passed below see the same
      // grid state they would have seen stepping.
      t = std::min(seg.t1, options.horizon);
    } else {
      // Step so the robot moves at most cell/2 between marks.
      const double speed = seg.speed();
      double dt;
      if (speed <= 0.0) {
        dt = seg.t1 - t;  // waiting: nothing new to mark until the end
        if (dt <= 0.0) dt = options.cell;
      } else {
        dt = 0.5 * options.cell / speed;
      }
      t = std::min({t + dt, seg.t1, options.horizon});
      grid.mark_disk(seg.position(t), options.visibility);
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
