#pragma once

/// \file emitter.hpp
/// O(1)-memory segment generator for Search(k) (Algorithm 3).
///
/// Search(k) contains Θ(4ᵏ) circles; materialising a Path would need
/// gigabytes for the round counts the rendezvous experiments reach.
/// `SearchRoundEmitter` walks the (j, i, phase) state machine instead,
/// emitting one segment at a time:
///   for j = 0..2k−1:  for i = 0..2^{2k−j}:  out, arc, back
/// followed by the round-final wait.

#include <cstdint>

#include "mathx/constants.hpp"
#include "traj/segment.hpp"

namespace rv::search {

/// Leg `phase` of the search circle of the given radius about the local
/// origin: 0 = line out along +x, 1 = the full counter-clockwise circle,
/// 2 = line back.  Built as the returned alternative, with no `Segment`
/// temporary (see traj/frame.hpp).
[[nodiscard]] inline traj::Segment circle_leg(double radius, int phase) {
  switch (phase) {
    case 0: return traj::LineSeg{{0.0, 0.0}, {radius, 0.0}};
    case 1: return traj::ArcSeg{{0.0, 0.0}, radius, 0.0, mathx::kTwoPi};
    default: return traj::LineSeg{{radius, 0.0}, {0.0, 0.0}};
  }
}

/// Emits the segments of one Search(k) round, in order, in O(1) space.
class SearchRoundEmitter {
 public:
  /// \throws std::invalid_argument for k < 1 (or k > 30, where the
  /// circle counter would overflow practical limits).
  explicit SearchRoundEmitter(int k);

  /// True when all segments (including the final wait) were emitted.
  [[nodiscard]] bool done() const { return done_; }

  /// Next segment.  \throws std::logic_error when done().
  [[nodiscard]] traj::Segment next();

  /// Round parameter k.
  [[nodiscard]] int k() const { return k_; }

  /// Total number of segments this emitter will produce.
  [[nodiscard]] std::uint64_t total_segments() const;

 private:
  int k_;
  int j_ = 0;               ///< sub-round (annulus) index, 0..2k−1
  std::uint64_t i_ = 0;     ///< circle index within the sub-round
  std::uint64_t m_ = 0;     ///< last circle index of this sub-round
  int phase_ = 0;           ///< 0 = line out, 1 = arc, 2 = line back
  double inner_ = 0.0;      ///< 2^{−k+j}: the sub-round's first radius
  double rho_ = 0.0;        ///< ρ = 2^{−3k+2j−1}: circles lie 2ρ apart
  bool wait_pending_ = true;
  bool done_ = false;

  [[nodiscard]] double circle_radius() const;
  void advance_counters();
  void load_sub_round();
};

}  // namespace rv::search
