#include "traj/segment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rv::traj {

namespace {
using geom::Vec2;

struct DurationVisitor {
  double operator()(const LineSeg& s) const {
    const Vec2 d = s.from - s.to;
    if (d.y == 0.0) return std::abs(d.x);
    if (d.x == 0.0) return std::abs(d.y);
    return std::hypot(d.x, d.y);
  }
  double operator()(const ArcSeg& s) const {
    return s.radius * std::abs(s.sweep);
  }
  double operator()(const WaitSeg& s) const { return s.duration; }
};

struct StartVisitor {
  Vec2 operator()(const LineSeg& s) const { return s.from; }
  Vec2 operator()(const ArcSeg& s) const {
    return s.center + geom::polar(s.radius, s.start_angle);
  }
  Vec2 operator()(const WaitSeg& s) const { return s.at; }
};

struct EndVisitor {
  Vec2 operator()(const LineSeg& s) const { return s.to; }
  Vec2 operator()(const ArcSeg& s) const {
    return s.center + geom::polar(s.radius, s.start_angle + s.sweep);
  }
  Vec2 operator()(const WaitSeg& s) const { return s.at; }
};
}  // namespace

double duration(const Segment& seg) {
  return std::visit(DurationVisitor{}, seg);
}

geom::Vec2 start_point(const Segment& seg) {
  return std::visit(StartVisitor{}, seg);
}

geom::Vec2 end_point(const Segment& seg) {
  return std::visit(EndVisitor{}, seg);
}

geom::Vec2 position_at(const Segment& seg, double s) {
  return position_at(seg, s, duration(seg));
}

geom::Vec2 position_at(const Segment& seg, double s, double dur) {
  const double t = std::clamp(s, 0.0, dur);
  if (const auto* line = std::get_if<LineSeg>(&seg)) {
    if (dur == 0.0) return line->from;
    return geom::lerp(line->from, line->to, t / dur);
  }
  if (const auto* arc = std::get_if<ArcSeg>(&seg)) {
    if (dur == 0.0) return start_point(seg);
    const double theta = arc->start_angle + arc->sweep * (t / dur);
    return arc->center + geom::polar(arc->radius, theta);
  }
  return std::get<WaitSeg>(seg).at;
}

void validate(const Segment& seg) {
  if (const auto* line = std::get_if<LineSeg>(&seg)) {
    if (!geom::is_finite(line->from) || !geom::is_finite(line->to)) {
      throw std::invalid_argument("LineSeg: non-finite endpoint");
    }
    return;
  }
  if (const auto* arc = std::get_if<ArcSeg>(&seg)) {
    if (!geom::is_finite(arc->center) || !std::isfinite(arc->radius) ||
        !std::isfinite(arc->start_angle) || !std::isfinite(arc->sweep)) {
      throw std::invalid_argument("ArcSeg: non-finite parameter");
    }
    if (arc->radius < 0.0) {
      throw std::invalid_argument("ArcSeg: negative radius");
    }
    return;
  }
  const auto& wait = std::get<WaitSeg>(seg);
  if (!geom::is_finite(wait.at) || !std::isfinite(wait.duration)) {
    throw std::invalid_argument("WaitSeg: non-finite parameter");
  }
  if (wait.duration < 0.0) {
    throw std::invalid_argument("WaitSeg: negative duration");
  }
}

}  // namespace rv::traj
