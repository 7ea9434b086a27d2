#include "linear/linear_rendezvous.hpp"

#include <stdexcept>

#include "linear/zigzag.hpp"
#include "mathx/constants.hpp"

namespace rv::linear {

using traj::Segment;
using traj::WaitSeg;

geom::RobotAttributes to_planar(const LinearAttributes& attrs) {
  geom::RobotAttributes a;
  a.speed = attrs.speed;
  a.time_unit = attrs.time_unit;
  a.orientation = attrs.direction == 1 ? 0.0 : rv::mathx::kPi;
  a.chirality = 1;
  if (attrs.direction != 1 && attrs.direction != -1) {
    throw std::invalid_argument("to_planar: direction must be +1 or -1");
  }
  return geom::validated(a);
}

bool linear_rendezvous_feasible(const LinearAttributes& attrs) {
  return attrs.time_unit != 1.0 || attrs.speed != 1.0 ||
         attrs.direction == -1;
}

double linear_search_all_time(int n) { return zigzag_prefix_time(n); }

void LinearRendezvousProgram::advance_leg() {
  if (++phase_ < 4) return;
  phase_ = 0;
  if (stage_ == Stage::kForward) {
    if (k_ < n_) {
      ++k_;
    } else {
      stage_ = Stage::kReverse;
      k_ = n_;
    }
  } else {  // kReverse
    if (k_ > 1) {
      --k_;
    } else {
      stage_ = Stage::kWait;
    }
  }
}

Segment LinearRendezvousProgram::next() {
  if (stage_ == Stage::kWait) {
    ++n_;
    stage_ = Stage::kForward;
    k_ = 1;
    phase_ = 0;
    return WaitSeg{{0.0, 0.0}, 2.0 * linear_search_all_time(n_)};
  }
  const int k = k_;
  const int phase = phase_;
  advance_leg();
  return zigzag_leg(k, phase);
}

std::shared_ptr<traj::Program> make_linear_rendezvous_program() {
  return std::make_shared<LinearRendezvousProgram>();
}

}  // namespace rv::linear
