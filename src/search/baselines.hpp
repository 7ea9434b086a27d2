#pragma once

/// \file baselines.hpp
/// Baseline universal search strategies for experiment E9.
///
/// The paper's related work compares against the optimal-search result
/// of Pelc [25] (no public code).  We implement two natural doubling
/// baselines with the same unknown-(d, r) interface as Algorithm 4:
///
///  * `ConcentricSweepProgram` — round m assumes d ≤ 2^m, r ≥ 2^{−m}
///    and sweeps concentric circles spaced 2·2^{−m} out to radius 2^m.
///    Per-round time Θ(4^m / 2^{−m}) = Θ(8^m): a *coupled* doubling of
///    range and granularity.  Algorithm 4's decoupled (d, r) coverage
///    beats it whenever d²/r is unbalanced — exactly the shape the
///    paper's analysis predicts.
///
///  * `SquareSpiralProgram` — round m walks a boustrophedon (square
///    spiral) on the lattice with step 2^{−m}·√2 covering the square
///    [−2^m, 2^m]²; exercises line-only trajectories.
///
/// Both baselines *solve* search (they are correct universal
/// strategies); they are asymptotically slower, which E9 measures by
/// declaring them as `engine::SearchProgram` choices of the engine's
/// search workload family (engine/families.hpp).

#include <cstdint>
#include <memory>
#include <string>

#include "traj/program.hpp"

namespace rv::search {

/// Doubling concentric-circle sweep (see file comment).
class ConcentricSweepProgram final : public traj::Program {
 public:
  ConcentricSweepProgram();
  [[nodiscard]] traj::Segment next() override;
  [[nodiscard]] std::string name() const override {
    return "baseline-concentric";
  }

 private:
  int m_ = 1;               ///< round (doubling) index
  std::uint64_t i_ = 0;     ///< circle index within the round
  std::uint64_t count_ = 0; ///< circles in this round
  int phase_ = 0;           ///< 0 out, 1 arc, 2 back

  void load_round();
  [[nodiscard]] double radius() const;
};

/// Doubling square-spiral (boustrophedon) sweep (see file comment).
class SquareSpiralProgram final : public traj::Program {
 public:
  SquareSpiralProgram();
  [[nodiscard]] traj::Segment next() override;
  [[nodiscard]] std::string name() const override {
    return "baseline-square-spiral";
  }

 private:
  int m_ = 1;
  std::int64_t row_ = 0;      ///< current scan row
  std::int64_t rows_ = 0;     ///< rows in this round
  int phase_ = 0;             ///< 0 = to row start, 1 = scan row, 2 = home
  geom::Vec2 cursor_{};

  void load_round();
  [[nodiscard]] double half_extent() const;
  [[nodiscard]] double step() const;
};

/// Factory helpers.
[[nodiscard]] std::shared_ptr<traj::Program> make_concentric_baseline();
[[nodiscard]] std::shared_ptr<traj::Program> make_square_spiral_baseline();

}  // namespace rv::search
