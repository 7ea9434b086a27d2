#include "traj/batch.hpp"

#include <algorithm>
#include <cmath>
#include <variant>

#include "traj/segment.hpp"

namespace rv::traj {

void BatchedPositions::assemble(const std::vector<TimedSegment>& segments) {
  const std::size_t n = segments.size();
  kind_.resize(n);
  t0_.resize(n);
  span_.resize(n);
  dur_.resize(n);
  ax_.resize(n);
  ay_.resize(n);
  bx_.resize(n);
  by_.resize(n);
  radius_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    assemble_one(i, segments[i], duration(segments[i].geometry));
  }
}

void BatchedPositions::assemble_one(std::size_t i, const TimedSegment& seg,
                                    double dur) {
  const double span = seg.t1 - seg.t0;
  // TimedSegment::position collapses zero-span and zero-duration
  // segments to their start point before any interpolation.
  if (span <= 0.0 || dur == 0.0) {
    const geom::Vec2 p = start_point(seg.geometry);
    kind_[i] = Kind::kConstant;
    ax_[i] = p.x;
    ay_[i] = p.y;
    return;
  }
  t0_[i] = seg.t0;
  span_[i] = span;
  dur_[i] = dur;
  if (const auto* line = std::get_if<LineSeg>(&seg.geometry)) {
    kind_[i] = Kind::kLine;
    ax_[i] = line->from.x;
    ay_[i] = line->from.y;
    bx_[i] = line->to.x - line->from.x;
    by_[i] = line->to.y - line->from.y;
  } else if (const auto* arc = std::get_if<ArcSeg>(&seg.geometry)) {
    kind_[i] = Kind::kArc;
    ax_[i] = arc->center.x;
    ay_[i] = arc->center.y;
    bx_[i] = arc->start_angle;
    by_[i] = arc->sweep;
    radius_[i] = arc->radius;
  } else {
    // A wait with positive duration: constant position.
    const geom::Vec2 p = std::get<WaitSeg>(seg.geometry).at;
    kind_[i] = Kind::kConstant;
    ax_[i] = p.x;
    ay_[i] = p.y;
  }
}

void BatchedPositions::positions(double t, geom::Vec2* out) const {
  const std::size_t n = kind_.size();
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind_[i]) {
      case Kind::kConstant:
        out[i] = {ax_[i], ay_[i]};
        break;
      case Kind::kLine: {
        // Exact replay of TimedSegment::position → position_at for a
        // line: progress fraction, clamp, local arc length, clamp,
        // normalized lerp parameter.
        double frac = (t - t0_[i]) / span_[i];
        frac = std::clamp(frac, 0.0, 1.0);
        const double s = std::clamp(frac * dur_[i], 0.0, dur_[i]);
        const double u = s / dur_[i];
        out[i] = {ax_[i] + u * bx_[i], ay_[i] + u * by_[i]};
        break;
      }
      case Kind::kArc: {
        double frac = (t - t0_[i]) / span_[i];
        frac = std::clamp(frac, 0.0, 1.0);
        const double s = std::clamp(frac * dur_[i], 0.0, dur_[i]);
        const double theta = bx_[i] + by_[i] * (s / dur_[i]);
        out[i] = {ax_[i] + radius_[i] * std::cos(theta),
                  ay_[i] + radius_[i] * std::sin(theta)};
        break;
      }
    }
  }
}

}  // namespace rv::traj
