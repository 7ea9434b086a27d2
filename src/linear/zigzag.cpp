#include "linear/zigzag.hpp"

#include <cmath>
#include <stdexcept>

#include "mathx/binary.hpp"

namespace rv::linear {

using rv::mathx::pow2;
using traj::LineSeg;
using traj::Segment;

Segment zigzag_leg(int k, int phase) {
  const double amp = pow2(k);
  switch (phase) {
    case 0: return LineSeg{{0.0, 0.0}, {amp, 0.0}};
    case 1: return LineSeg{{amp, 0.0}, {0.0, 0.0}};
    case 2: return LineSeg{{0.0, 0.0}, {-amp, 0.0}};
    default: return LineSeg{{-amp, 0.0}, {0.0, 0.0}};
  }
}

Segment ZigZagProgram::next() {
  const int k = k_;
  const int phase = phase_;
  if (++phase_ == 4) {
    phase_ = 0;
    if (++k_ > 60) throw std::logic_error("ZigZagProgram: round overflow");
  }
  return zigzag_leg(k, phase);
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
