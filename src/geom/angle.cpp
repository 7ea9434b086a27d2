#include "geom/angle.hpp"

#include <cmath>

#include "mathx/constants.hpp"

namespace rv::geom {

double normalize_angle(double theta) {
  double t = std::fmod(theta, rv::mathx::kTwoPi);
  if (t < 0.0) t += rv::mathx::kTwoPi;
  // fmod can return exactly 2π after the correction when theta is a
  // tiny negative number; map that back to 0.
  if (t >= rv::mathx::kTwoPi) t = 0.0;
  return t;
}

}  // namespace rv::geom
