#pragma once

/// \file path.hpp
/// A `Path` is a finite, position-continuous sequence of segments.
/// Paths are the building blocks the search/rendezvous programs emit
/// round by round; the simulator consumes them through the `Program`
/// interface.

#include <cstddef>
#include <vector>

#include "traj/segment.hpp"

namespace rv::traj {

/// Axis-aligned bounding box.
struct Box {
  geom::Vec2 lo;
  geom::Vec2 hi;
};

/// Finite position-continuous trajectory starting at a given point.
class Path {
 public:
  /// An empty path anchored at `start` (defaults to the origin).
  explicit Path(geom::Vec2 start = {});

  /// Appends a straight move from the current end point to `target`.
  Path& line_to(const geom::Vec2& target);

  /// Appends a full circle (CCW for sweep > 0) around `center`; the
  /// current end point must lie on the circle (within `tol`).
  /// \throws std::invalid_argument otherwise.
  Path& arc_around(const geom::Vec2& center, double sweep, double tol = 1e-9);

  /// Appends a wait of `dur` time units at the current end point.
  Path& wait(double dur);

  /// Appends an arbitrary segment; it must start at the current end
  /// point (within `tol`).  \throws std::invalid_argument otherwise.
  Path& append(Segment seg, double tol = 1e-9);

  /// Appends all segments of another path (must start at our end).
  Path& extend(const Path& other, double tol = 1e-9);

  /// Total local duration.
  [[nodiscard]] double duration() const { return total_; }

  /// Number of segments.
  [[nodiscard]] std::size_t size() const { return segments_.size(); }
  [[nodiscard]] bool empty() const { return segments_.empty(); }

  /// First point of the path.
  [[nodiscard]] geom::Vec2 start() const { return start_; }
  /// Last point of the path.
  [[nodiscard]] geom::Vec2 end() const { return end_; }

  /// Segment list (in order).
  [[nodiscard]] const std::vector<Segment>& segments() const {
    return segments_;
  }

 private:
  geom::Vec2 start_;
  geom::Vec2 end_;
  std::vector<Segment> segments_;
  double total_ = 0.0;
};

}  // namespace rv::traj
