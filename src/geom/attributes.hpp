#pragma once

/// \file attributes.hpp
/// The hidden robot attributes of the paper's model (Section 1.1) and
/// the reference-frame map they induce (Lemma 4).
///
/// All coordinates in the library are expressed in the global frame of
/// robot R, which is normalised to unit speed, unit clock, identity
/// compass and chirality +1.  Robot R′ carries:
///   * speed v > 0              — distance per global time unit,
///   * time unit τ > 0          — one R′ clock tick lasts τ global units,
///   * orientation φ ∈ [0, 2π)  — R′ axes rotated CCW by φ,
///   * chirality χ = ±1         — χ = −1 flips R′'s +y axis.
///
/// A robot executing the common algorithm S(·) interprets it in its own
/// frame: at global time t its displacement from its origin is
///     s·Q·S(t/τ)   with   s = v·τ  (its distance unit)  and
///     Q = R(φ)·diag(1, χ).
/// For τ = 1 this is exactly Lemma 4: S′(t) = v·R(φ)·diag(1,χ)·S(t).

#include <iosfwd>

#include "geom/mat2.hpp"
#include "geom/vec2.hpp"

namespace rv::geom {

/// The four hidden attributes (v, τ, φ, χ) of one robot.
struct RobotAttributes {
  double speed = 1.0;        ///< v > 0
  double time_unit = 1.0;    ///< τ > 0
  double orientation = 0.0;  ///< φ ∈ [0, 2π) (stored normalised)
  int chirality = 1;         ///< χ ∈ {+1, −1}

  bool operator==(const RobotAttributes&) const = default;
};

/// The reference robot R: v = τ = 1, φ = 0, χ = +1.
[[nodiscard]] constexpr RobotAttributes reference_attributes() {
  return RobotAttributes{};
}

/// Validates and normalises attributes (orientation mapped into
/// [0, 2π)).  \throws std::invalid_argument on non-positive speed or
/// time unit, non-finite values, or χ ∉ {−1, +1}.
[[nodiscard]] RobotAttributes validated(RobotAttributes attrs);

/// The spatial linear map Q·s of the frame: s·R(φ)·diag(1, χ) with
/// s = v·τ (the robot's distance unit measured in global units).
[[nodiscard]] Mat2 frame_matrix(const RobotAttributes& attrs);

/// The orientation/chirality part only: R(φ)·diag(1, χ).
[[nodiscard]] Mat2 frame_rotation_reflection(const RobotAttributes& attrs);

std::ostream& operator<<(std::ostream& os, const RobotAttributes& a);

}  // namespace rv::geom
