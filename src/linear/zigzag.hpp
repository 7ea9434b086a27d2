#pragma once

/// \file zigzag.hpp
/// The 1-D (infinite line) setting of the paper's predecessor:
/// J. Czyzowicz, R. Killick, E. Kranakis, "Linear rendezvous with
/// asymmetric clocks", OPODIS 2018 — reference [11] of the paper.
///
/// On the line the universal *search* trajectory is the classic
/// doubling zigzag: round k visits +2ᵏ and −2ᵏ and returns to the
/// origin, taking 4·2ᵏ time.  Any point at distance d is reached by
/// round ⌈log₂ d⌉ — linear search is Θ(d), in contrast to the plane's
/// Θ(d²/r·log) (no visibility radius is needed to *cross* a point on a
/// line; r only widens the catch window).
///
/// The module reuses the 2-D substrate with all motion on the x axis,
/// so the same certified simulator, frame maps and attribute model
/// apply (1-D "orientation" is the direction convention δ = ±1,
/// i.e. φ ∈ {0, π}).

#include <memory>
#include <string>

#include "traj/program.hpp"

namespace rv::linear {

/// Leg `phase` (0..3) of zigzag round k: 0 → +2ᵏ, back, 0 → −2ᵏ, back.
/// Built as the returned alternative, with no `Segment` temporary (see
/// traj/frame.hpp).
[[nodiscard]] traj::Segment zigzag_leg(int k, int phase);

/// Doubling zigzag on the x axis: for k = 1, 2, ...:
/// 0 → +2ᵏ → 0 → −2ᵏ → 0.
class ZigZagProgram final : public traj::Program {
 public:
  ZigZagProgram() = default;
  [[nodiscard]] traj::Segment next() override;
  [[nodiscard]] std::string name() const override { return "zigzag"; }
  [[nodiscard]] int current_round() const { return k_; }

 private:
  int k_ = 1;
  int phase_ = 0;  ///< 0: to +2^k, 1: back, 2: to −2^k, 3: back
};

/// Duration of rounds 1..k: 8(2ᵏ − 1).
[[nodiscard]] double zigzag_prefix_time(int k);

/// Upper bound on the time for the zigzag to *reach* the point at
/// signed coordinate x (|x| > 0): completed by round ⌈log₂|x|⌉, so
/// ≤ 8(2^⌈log₂|x|⌉ − 1) + slack for the in-round leg.  We return the
/// end of the guaranteed round (simple and sufficient): 8(2ᵏ − 1) with
/// k = max(1, ⌈log₂|x|⌉).
[[nodiscard]] double zigzag_reach_bound(double x);

/// Factory for the simulator interface.
[[nodiscard]] std::shared_ptr<traj::Program> make_zigzag_program();

}  // namespace rv::linear
