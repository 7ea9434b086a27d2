#pragma once

/// \file angle.hpp
/// Angle normalisation.  The robot orientation φ lives in
/// [0, 2π); arc segments carry start angles and signed sweeps.

namespace rv::geom {

/// Normalises an angle to [0, 2π).
[[nodiscard]] double normalize_angle(double theta);

}  // namespace rv::geom
