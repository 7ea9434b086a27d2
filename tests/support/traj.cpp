#include "support/traj.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rv::traj {

using geom::Vec2;

PathProgram::PathProgram(Path path, std::string name, double tail_chunk)
    : path_(std::move(path)), name_(std::move(name)), tail_chunk_(tail_chunk) {
  if (!(tail_chunk > 0.0)) {
    throw std::invalid_argument("PathProgram: tail_chunk must be > 0");
  }
  if (!path_.empty() && !geom::approx_equal(path_.start(), Vec2{})) {
    throw std::invalid_argument("PathProgram: path must start at the origin");
  }
}

Segment PathProgram::next() {
  if (index_ < path_.size()) {
    return path_.segments()[index_++];
  }
  return WaitSeg{path_.end(), tail_chunk_};
}

Vec2 position_at(const Path& path, double t) {
  if (path.empty() || t <= 0.0) return path.start();
  if (t >= path.duration()) return path.end();
  // The last segment starting at or before t, with start times summed
  // in the order `Path` sums its duration.
  const std::vector<Segment>& segments = path.segments();
  std::size_t idx = 0;
  double start = 0.0;
  while (idx + 1 < segments.size() && start + duration(segments[idx]) <= t) {
    start += duration(segments[idx]);
    ++idx;
  }
  return position_at(segments[idx], t - start);
}

}  // namespace rv::traj

namespace rv::sim {

using geom::Vec2;
using traj::TimedSegment;

Vec2 position_at(const GlobalTrace& trace, double t) {
  const std::vector<TimedSegment>& segments = trace.segments();
  if (segments.empty()) return {};
  if (t <= segments.front().t0) return segments.front().position(t);
  if (t >= segments.back().t1) return segments.back().position(t);
  // Binary search for the segment with t0 <= t.
  const auto it = std::upper_bound(
      segments.begin(), segments.end(), t,
      [](double value, const TimedSegment& seg) { return value < seg.t0; });
  const auto idx = static_cast<std::size_t>(
      std::distance(segments.begin(), it)) - 1;
  return segments[idx].position(t);
}

}  // namespace rv::sim
