#include "traj/frame.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace rv::traj {

using geom::Mat2;
using geom::RobotAttributes;
using geom::Vec2;

Vec2 TimedSegment::position(double t, double dur) const {
  const double span = t1 - t0;
  if (span <= 0.0 || dur == 0.0) return start_point(geometry);
  double frac = (t - t0) / span;
  frac = std::clamp(frac, 0.0, 1.0);
  return position_at(geometry, frac * dur, dur);
}

double TimedSegment::speed(double dur) const {
  if (std::holds_alternative<WaitSeg>(geometry)) return 0.0;
  const double span = t1 - t0;
  if (span <= 0.0) return 0.0;
  return dur / span;
}

namespace {
// The frame map, written into `out`, with the matrix m =
// frame_matrix(attrs) supplied by the caller, so a stream can build m
// once instead of once per segment.
void map_to_global(const Segment& local, const RobotAttributes& attrs,
                   const Mat2& m, const Vec2& origin, Segment& out) {
  if (const auto* line = std::get_if<LineSeg>(&local)) {
    out.emplace<LineSeg>(
        LineSeg{origin + m * line->from, origin + m * line->to});
  } else if (const auto* arc = std::get_if<ArcSeg>(&local)) {
    // Under x ↦ s·R(φ)·diag(1,χ)·x a point at angle θ on the circle
    // maps to a point at angle φ + χ·θ on the scaled circle: the
    // chirality flip conjugates the angle, the rotation shifts it.
    const double chi = static_cast<double>(attrs.chirality);
    out.emplace<ArcSeg>(ArcSeg{origin + m * arc->center,
                               attrs.speed * attrs.time_unit * arc->radius,
                               attrs.orientation + chi * arc->start_angle,
                               chi * arc->sweep});
  } else {
    const auto& wait = std::get<WaitSeg>(local);
    out.emplace<WaitSeg>(
        WaitSeg{origin + m * wait.at, attrs.time_unit * wait.duration});
  }
}
}  // namespace

Segment to_global_geometry(const Segment& local, const RobotAttributes& attrs,
                           const Vec2& origin) {
  Segment global;
  map_to_global(local, attrs, frame_matrix(attrs), origin, global);
  return global;
}

GlobalSegmentStream::GlobalSegmentStream(std::shared_ptr<Program> program,
                                         RobotAttributes attrs, Vec2 origin)
    : program_(std::move(program)),
      attrs_(geom::validated(attrs)),
      origin_(origin),
      frame_(frame_matrix(attrs_)) {
  if (!program_) {
    throw std::invalid_argument("GlobalSegmentStream: null program");
  }
}

void GlobalSegmentStream::next_into(TimedSegment& out) {
  for (;;) {
    const Segment local = program_->next();
    // Failure injection barrier: a buggy program must fail loudly here
    // rather than corrupt the contact sweep with NaN geometry.
    validate(local);
    const double global_dur = attrs_.time_unit * duration(local);
    if (global_dur <= 0.0) continue;  // skip degenerate segments

    map_to_global(local, attrs_, frame_, origin_, out.geometry);
    out.t0 = clock_ + clock_comp_;
    // Kahan-compensated clock advance.
    const double x = global_dur;
    const double t = clock_ + x;
    if (std::abs(clock_) >= std::abs(x)) {
      clock_comp_ += (clock_ - t) + x;
    } else {
      clock_comp_ += (x - t) + clock_;
    }
    clock_ = t;
    out.t1 = clock_ + clock_comp_;
    return;
  }
}

}  // namespace rv::traj
