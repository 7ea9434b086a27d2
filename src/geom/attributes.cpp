#include "geom/attributes.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "geom/angle.hpp"

namespace rv::geom {

RobotAttributes validated(RobotAttributes attrs) {
  if (!std::isfinite(attrs.speed) || attrs.speed <= 0.0) {
    throw std::invalid_argument("RobotAttributes: speed must be finite and > 0");
  }
  if (!std::isfinite(attrs.time_unit) || attrs.time_unit <= 0.0) {
    throw std::invalid_argument(
        "RobotAttributes: time_unit must be finite and > 0");
  }
  if (!std::isfinite(attrs.orientation)) {
    throw std::invalid_argument("RobotAttributes: orientation must be finite");
  }
  if (attrs.chirality != 1 && attrs.chirality != -1) {
    throw std::invalid_argument("RobotAttributes: chirality must be +1 or -1");
  }
  attrs.orientation = normalize_angle(attrs.orientation);
  return attrs;
}

Mat2 frame_matrix(const RobotAttributes& attrs) {
  const double s = attrs.speed * attrs.time_unit;
  return s * frame_rotation_reflection(attrs);
}

Mat2 frame_rotation_reflection(const RobotAttributes& attrs) {
  return rotation(attrs.orientation) * chirality(attrs.chirality);
}

std::ostream& operator<<(std::ostream& os, const RobotAttributes& a) {
  return os << "{v=" << a.speed << ", tau=" << a.time_unit
            << ", phi=" << a.orientation << ", chi=" << a.chirality << '}';
}

}  // namespace rv::geom
