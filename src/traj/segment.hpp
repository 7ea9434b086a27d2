#pragma once

/// \file segment.hpp
/// Trajectory primitives.
///
/// Every algorithm in the paper (Algorithms 1–7) is a concatenation of
/// three primitive motions, all at the robot's unit speed in its own
/// frame: straight line moves, circular arc traversals, and waiting in
/// place.  A `Segment` is the sum type of those three primitives; the
/// *local duration* of a segment equals its arc length (unit speed), or
/// the explicit duration for waits.

#include <variant>

#include "geom/vec2.hpp"

namespace rv::traj {

/// Straight move from `from` to `to` at unit speed.
struct LineSeg {
  geom::Vec2 from;
  geom::Vec2 to;

  bool operator==(const LineSeg&) const = default;
};

/// Circular arc at unit speed.  The position at arc-length s is
/// `center + radius·(cos θ(s), sin θ(s))` with
/// θ(s) = start_angle + sweep·s/(radius·|sweep|); `sweep` is signed
/// (positive = counter-clockwise).
struct ArcSeg {
  geom::Vec2 center;
  double radius = 0.0;       ///< ≥ 0
  double start_angle = 0.0;  ///< radians
  double sweep = 0.0;        ///< signed total angle (radians)

  bool operator==(const ArcSeg&) const = default;
};

/// Remain at `at` for `duration` local time units.
struct WaitSeg {
  geom::Vec2 at;
  double duration = 0.0;  ///< ≥ 0

  bool operator==(const WaitSeg&) const = default;
};

/// A trajectory primitive.
using Segment = std::variant<LineSeg, ArcSeg, WaitSeg>;

/// Local duration: arc length for moves (unit speed), explicit time for
/// waits.  An axis-parallel line returns |Δ| without calling `hypot`,
/// which is the same value: C Annex F (F.10.4.3) defines hypot(x, ±0)
/// as fabs(x).
[[nodiscard]] double duration(const Segment& seg);

/// Position at the start of the segment.
[[nodiscard]] geom::Vec2 start_point(const Segment& seg);

/// Position at the end of the segment.
[[nodiscard]] geom::Vec2 end_point(const Segment& seg);

/// Position after s ∈ [0, duration] local time units into the segment.
/// Values outside the range are clamped.
[[nodiscard]] geom::Vec2 position_at(const Segment& seg, double s);

/// `position_at` for a caller that already holds `dur == duration(seg)`.
[[nodiscard]] geom::Vec2 position_at(const Segment& seg, double s, double dur);

/// Validates geometric sanity (finite coordinates, radius ≥ 0,
/// duration ≥ 0).  \throws std::invalid_argument on violation.
void validate(const Segment& seg);

}  // namespace rv::traj
