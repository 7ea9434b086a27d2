#pragma once

/// \file trace.hpp
/// Global-frame trajectory recording for visualisation: buffers the
/// timed segments of a robot up to a horizon and evaluates/flattens
/// them.  Kept separate from the contact sweep so simulation accuracy
/// never depends on a sampling grid.

#include <memory>
#include <vector>

#include "geom/attributes.hpp"
#include "traj/frame.hpp"
#include "traj/program.hpp"

namespace rv::sim {

/// A robot's global trajectory buffered up to some horizon.
class GlobalTrace {
 public:
  /// Buffers segments of `program` (with `attrs`, starting at `origin`)
  /// until global time `horizon`.
  GlobalTrace(std::shared_ptr<traj::Program> program,
              const geom::RobotAttributes& attrs, const geom::Vec2& origin,
              double horizon);

  /// The buffered horizon.
  [[nodiscard]] double horizon() const { return horizon_; }

  /// Buffered segments.
  [[nodiscard]] const std::vector<traj::TimedSegment>& segments() const {
    return segments_;
  }

  /// Flattens the whole trace into a polyline with the given chordal
  /// tolerance (world units); consecutive duplicate points removed.
  [[nodiscard]] std::vector<geom::Vec2> polyline(double max_error) const;

 private:
  std::vector<traj::TimedSegment> segments_;
  double horizon_;
};

}  // namespace rv::sim
