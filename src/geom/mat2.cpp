#include "geom/mat2.hpp"

#include <cmath>
#include <stdexcept>

namespace rv::geom {

Mat2 rotation(double theta) {
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  return {c, -s, s, c};
}

Mat2 chirality(int chi) {
  if (chi != 1 && chi != -1) {
    throw std::invalid_argument("chirality: chi must be +1 or -1");
  }
  return {1.0, 0.0, 0.0, static_cast<double>(chi)};
}

}  // namespace rv::geom
