#include "sim/trace.hpp"

#include <stdexcept>

#include "traj/sampler.hpp"

namespace rv::sim {

using geom::Vec2;
using traj::TimedSegment;

GlobalTrace::GlobalTrace(std::shared_ptr<traj::Program> program,
                         const geom::RobotAttributes& attrs,
                         const Vec2& origin, double horizon)
    : horizon_(horizon) {
  if (!(horizon > 0.0)) {
    throw std::invalid_argument("GlobalTrace: horizon must be > 0");
  }
  traj::GlobalSegmentStream stream(std::move(program), attrs, origin);
  while (stream.clock() < horizon_) {
    stream.next_into(segments_.emplace_back());
  }
}

std::vector<Vec2> GlobalTrace::polyline(double max_error) const {
  std::vector<Vec2> pts;
  for (const TimedSegment& seg : segments_) {
    const std::vector<Vec2> part = traj::flatten_segment(seg.geometry, max_error);
    for (const Vec2& p : part) {
      if (pts.empty() || !geom::approx_equal(pts.back(), p, 1e-12)) {
        pts.push_back(p);
      }
    }
  }
  return pts;
}

}  // namespace rv::sim
