#pragma once

/// \file linear_rendezvous.hpp
/// Universal rendezvous on the infinite line with unknown attributes —
/// the [11] setting, rebuilt on this library's substrate with the same
/// inactive/active phase trick as Algorithm 7:
///
///   round n:  wait 2·Z(n);  zigzag rounds 1..n;  zigzag rounds n..1
///
/// where Z(n) = 8(2ⁿ − 1) is the duration of zigzag rounds 1..n.  The
/// schedule algebra mirrors Lemma 8 with Z in place of S:
///   I_lin(n) = 32(2ⁿ − n − 1),   A_lin(n) = 48·2ⁿ − 32n − 48,
/// and the same growing-overlap argument applies for τ ≠ 1.
///
/// 1-D feasibility (τ = 1): the separation is
/// (1 − v·δ)·Z(t) − offset, so rendezvous is feasible iff v·δ ≠ 1,
/// i.e. v ≠ 1 or the robots disagree on the +x direction (δ = −1);
/// with asymmetric clocks it is always feasible — matching [11].

#include <memory>
#include <string>

#include "geom/attributes.hpp"
#include "traj/program.hpp"

namespace rv::linear {

/// One robot's hidden attributes on the line.
struct LinearAttributes {
  double speed = 1.0;      ///< v > 0
  double time_unit = 1.0;  ///< τ > 0
  int direction = 1;       ///< δ = ±1: the robot's notion of +x

  bool operator==(const LinearAttributes&) const = default;
};

/// Lifts 1-D attributes into the 2-D attribute model (δ = −1 becomes
/// φ = π; chirality is irrelevant on the x axis and stays +1).
[[nodiscard]] geom::RobotAttributes to_planar(const LinearAttributes& attrs);

/// Theorem-4 analogue on the line: feasible iff τ ≠ 1 ∨ v ≠ 1 ∨ δ = −1.
[[nodiscard]] bool linear_rendezvous_feasible(const LinearAttributes& attrs);

/// The duration Z(n) of zigzag rounds 1..n (= zigzag_prefix_time(n)).
[[nodiscard]] double linear_search_all_time(int n);

/// The universal linear rendezvous program (phase-scheduled zigzag).
class LinearRendezvousProgram final : public traj::Program {
 public:
  LinearRendezvousProgram() = default;
  [[nodiscard]] traj::Segment next() override;
  [[nodiscard]] std::string name() const override {
    return "linear-rendezvous";
  }
  [[nodiscard]] int current_round() const { return n_; }

 private:
  enum class Stage { kWait, kForward, kReverse };
  int n_ = 0;
  Stage stage_ = Stage::kWait;
  int k_ = 1;     ///< zigzag round within the pass
  int phase_ = 0; ///< leg within the zigzag round (0..3)

  void advance_leg();
};

/// Factory for the simulator interface.
[[nodiscard]] std::shared_ptr<traj::Program> make_linear_rendezvous_program();

}  // namespace rv::linear
