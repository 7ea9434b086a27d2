#include "linear/zigzag.hpp"

#include <cmath>
#include <stdexcept>

#include "mathx/binary.hpp"

namespace rv::linear {

using rv::mathx::pow2;
using traj::LineSeg;
using traj::Segment;

Segment ZigZagProgram::next() {
  const double amp = pow2(k_);
  Segment seg;
  switch (phase_) {
    case 0:
      seg = LineSeg{{0.0, 0.0}, {amp, 0.0}};
      break;
    case 1:
      seg = LineSeg{{amp, 0.0}, {0.0, 0.0}};
      break;
    case 2:
      seg = LineSeg{{0.0, 0.0}, {-amp, 0.0}};
      break;
    default:
      seg = LineSeg{{-amp, 0.0}, {0.0, 0.0}};
      break;
  }
  if (++phase_ == 4) {
    phase_ = 0;
    if (++k_ > 60) throw std::logic_error("ZigZagProgram: round overflow");
  }
  return seg;
}

double zigzag_prefix_time(int k) {
  if (k < 0) throw std::invalid_argument("zigzag_prefix_time: k must be >= 0");
  return 8.0 * (pow2(k) - 1.0);
}

double zigzag_reach_bound(double x) {
  const double ax = std::abs(x);
  if (!(ax > 0.0)) {
    throw std::invalid_argument("zigzag_reach_bound: need |x| > 0");
  }
  const int k = std::max(1, rv::mathx::ceil_log2(ax));
  return zigzag_prefix_time(k);
}

std::shared_ptr<traj::Program> make_zigzag_program() {
  return std::make_shared<ZigZagProgram>();
}

}  // namespace rv::linear
