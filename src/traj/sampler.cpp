#include "traj/sampler.hpp"

#include <cmath>
#include <stdexcept>

#include "mathx/constants.hpp"

namespace rv::traj {

using geom::Vec2;

std::vector<Vec2> flatten_segment(const Segment& seg, double max_error) {
  if (!(max_error > 0.0)) {
    throw std::invalid_argument("flatten_segment: max_error must be > 0");
  }
  std::vector<Vec2> pts;
  if (const auto* arc = std::get_if<ArcSeg>(&seg)) {
    if (arc->radius <= 0.0 || arc->sweep == 0.0) {
      pts.push_back(start_point(seg));
      pts.push_back(end_point(seg));
      return pts;
    }
    // Chord error of a circular arc subdivided at step θ is
    // r·(1 − cos(θ/2)); solve for θ.
    const double cos_target = 1.0 - max_error / arc->radius;
    double step = rv::mathx::kPi / 2.0;
    if (cos_target > -1.0 && cos_target < 1.0) {
      step = 2.0 * std::acos(cos_target);
    }
    const int n = std::max(
        2, static_cast<int>(std::ceil(std::abs(arc->sweep) / step)) + 1);
    pts.reserve(static_cast<std::size_t>(n) + 1);
    for (int i = 0; i <= n; ++i) {
      const double theta =
          arc->start_angle +
          arc->sweep * static_cast<double>(i) / static_cast<double>(n);
      pts.push_back(arc->center + geom::polar(arc->radius, theta));
    }
    return pts;
  }
  pts.push_back(start_point(seg));
  pts.push_back(end_point(seg));
  return pts;
}

std::vector<Vec2> flatten_path(const Path& path, double max_error) {
  std::vector<Vec2> pts;
  pts.push_back(path.start());
  for (const Segment& seg : path.segments()) {
    const std::vector<Vec2> part = flatten_segment(seg, max_error);
    // Skip the first point of each part: it coincides with the last
    // point already emitted (paths are continuous).
    for (std::size_t i = 1; i < part.size(); ++i) pts.push_back(part[i]);
  }
  return pts;
}

}  // namespace rv::traj
