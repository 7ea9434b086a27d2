#pragma once

/// \file batch.hpp
/// SoA batched position evaluation over a fleet's current segments.
///
/// The certified sweep (engine/contact_sweep.hpp) evaluates every
/// robot's position at every sweep/bisection point.  Doing that through
/// `TimedSegment::position` costs a `std::variant` dispatch, a
/// `duration()` recompute and several branches per robot per
/// evaluation.  `BatchedPositions` holds one slot per robot in
/// struct-of-arrays coefficient buffers (a one-byte kind tag plus
/// contiguous doubles); a slot is rewritten only when that robot pulls
/// a new segment (`assemble_one`), and one query advances all
/// n positions for a query time in a single pass — a dense switch over
/// the tag array with no variant or virtual dispatch, the loop the
/// compiler can keep in registers and vectorize across the line-heavy
/// common case.
///
/// The evaluator is a *bitwise* drop-in: for every segment kind it
/// replays the exact floating-point operation sequence of
/// `TimedSegment::position` / `traj::position_at` (same divisions, same
/// clamps, same order), so positions — and therefore every downstream
/// metric, event time and golden byte — are identical to the scalar
/// path.  Pinned by tests/test_traj.cpp on randomized segment soups.

#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"
#include "traj/frame.hpp"

namespace rv::traj {

/// Batched evaluator of one position per assembled segment.
class BatchedPositions {
 public:
  /// Sizes the SoA buffers to the fleet and fills every slot from its
  /// current timed segment (`assemble_one` over all i).
  void assemble(const std::vector<TimedSegment>& segments);

  /// Rewrites slot i alone from `seg`, whose duration `dur ==
  /// duration(seg.geometry)` the caller already holds; every other slot
  /// is untouched.  `i` must be below `size()`.  Call when robot i's
  /// current segment changes, not per evaluation.
  void assemble_one(std::size_t i, const TimedSegment& seg, double dur);

  /// Writes position i of every assembled segment at global time t into
  /// `out[i]`.  `out` must hold at least `size()` elements.  Bitwise
  /// identical to calling `segments[i].position(t)` for each i.
  void positions(double t, geom::Vec2* out) const;

  /// Number of assembled segments.
  [[nodiscard]] std::size_t size() const { return kind_.size(); }

 private:
  // One-byte dispatch tag per robot.
  enum class Kind : std::uint8_t {
    kConstant,  ///< waits and degenerate segments: position is fixed
    kLine,      ///< p(t) = a + u(t)·b with b = to − from
    kArc,       ///< p(t) = a + radius·(cos θ(t), sin θ(t))
  };

  std::vector<Kind> kind_;
  std::vector<double> t0_;    ///< segment start time (kLine/kArc)
  std::vector<double> span_;  ///< t1 − t0 (kLine/kArc)
  std::vector<double> dur_;   ///< local duration (kLine/kArc)
  std::vector<double> ax_, ay_;  ///< kConstant: the point; kLine: from;
                                 ///< kArc: center
  std::vector<double> bx_, by_;  ///< kLine: to − from; kArc: start angle,
                                 ///< sweep
  std::vector<double> radius_;   ///< kArc only
};

}  // namespace rv::traj
