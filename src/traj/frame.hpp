#pragma once

/// \file frame.hpp
/// Mapping local trajectory programs into the global frame.
///
/// A robot with attributes (v, τ, φ, χ) placed at `origin` executes a
/// local program S(·).  Its global position at global time t is
///     origin + (v·τ)·R(φ)·diag(1,χ) · S(t/τ).
/// Under this map each local primitive stays a primitive of the same
/// kind: lines map to lines, circular arcs to circular arcs (radius
/// scaled by v·τ, angles reflected for χ = −1), waits to waits.  The
/// traversal *speed* in the global frame is v (scale v·τ over time
/// dilation τ).
///
/// `GlobalSegmentStream` applies this map lazily to a `Program`,
/// producing the timed global segments the simulator sweeps over.  It
/// builds the frame matrix once, at construction; each segment it emits
/// is bitwise equal to `to_global_geometry` of the local segment.
///
/// The per-segment path never passes a `Segment` or `TimedSegment`
/// through a temporary.  Programs return the alternative they build
/// (`return LineSeg{...}`), never a named `Segment` assigned on several
/// paths; `next_into` writes the mapped geometry and the clock straight
/// into a caller-owned `TimedSegment`.  Each copy of the variant costs
/// about 10 ns with GCC 12: it is stored with 8-byte writes and reloaded
/// with 16-byte reads, which stalls store forwarding.  Algorithm 7
/// sweeps pull a segment at nearly every step (gather-fleet's three
/// cells pull 1.84M), so those copies were most of their per-segment
/// cost.

#include <memory>

#include "geom/attributes.hpp"
#include "traj/program.hpp"
#include "traj/segment.hpp"

namespace rv::traj {

/// A segment placed on the global timeline: the robot occupies
/// `position_at(geometry, progress)` where progress advances uniformly
/// from 0 to duration(geometry) as t goes from t0 to t1.
struct TimedSegment {
  Segment geometry;   ///< global-frame geometry
  double t0 = 0.0;    ///< global start time
  double t1 = 0.0;    ///< global end time (t1 ≥ t0)

  /// Global position at global time t ∈ [t0, t1] (clamped).
  [[nodiscard]] geom::Vec2 position(double t) const {
    return position(t, duration(geometry));
  }

  /// `position(t)` for a caller that already holds `dur ==
  /// duration(geometry)`.
  [[nodiscard]] geom::Vec2 position(double t, double dur) const;

  /// Constant traversal speed on this segment (0 for waits).
  [[nodiscard]] double speed() const { return speed(duration(geometry)); }

  /// `speed()` for a caller that already holds `dur ==
  /// duration(geometry)`, so a segment's duration is computed once.
  [[nodiscard]] double speed(double dur) const;
};

/// Maps one local segment to global geometry for a robot with the given
/// attributes and origin.  Time fields are *not* filled in (the stream
/// assigns them); the returned segment carries only geometry.
[[nodiscard]] Segment to_global_geometry(const Segment& local,
                                         const geom::RobotAttributes& attrs,
                                         const geom::Vec2& origin);

/// Lazily converts a local `Program` into a stream of global
/// `TimedSegment`s for a robot with given attributes and origin.
class GlobalSegmentStream {
 public:
  GlobalSegmentStream(std::shared_ptr<Program> program,
                      geom::RobotAttributes attrs, geom::Vec2 origin);

  /// Writes the next timed global segment into `out`, in place.
  /// Degenerate (zero-time) segments are skipped automatically.
  void next_into(TimedSegment& out);

  /// `next_into` a fresh segment.
  [[nodiscard]] TimedSegment next() {
    TimedSegment seg;
    next_into(seg);
    return seg;
  }

  /// Global time reached so far.
  [[nodiscard]] double clock() const { return clock_; }

  /// The robot's attributes.
  [[nodiscard]] const geom::RobotAttributes& attributes() const {
    return attrs_;
  }

  /// The robot's starting position in the global frame.
  [[nodiscard]] const geom::Vec2& origin() const { return origin_; }

 private:
  std::shared_ptr<Program> program_;
  geom::RobotAttributes attrs_;
  geom::Vec2 origin_;
  geom::Mat2 frame_;  ///< frame_matrix(attrs_), built once
  double clock_ = 0.0;
  double clock_comp_ = 0.0;  ///< Kahan compensation
};

}  // namespace rv::traj
