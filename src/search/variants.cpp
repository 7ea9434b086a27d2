#include "search/variants.hpp"

#include <cmath>
#include <stdexcept>

#include "mathx/binary.hpp"
#include "search/emitter.hpp"
#include "search/times.hpp"

namespace rv::search {

using rv::mathx::pow2;
using traj::LineSeg;
using traj::Segment;
using traj::WaitSeg;

VariantRoundEmitter::VariantRoundEmitter(int k, const VariantOptions& options)
    : k_(k), opts_(options) {
  if (k < 1 || k > 30) {
    throw std::invalid_argument("VariantRoundEmitter: k must be in [1, 30]");
  }
  if (!(options.spacing_factor > 0.0)) {
    throw std::invalid_argument(
        "VariantRoundEmitter: spacing_factor must be > 0");
  }
  load_sub_round();
}

void VariantRoundEmitter::load_sub_round() {
  // Number of circle steps needed to cross the annulus at spacing c·ρ:
  // ⌈(outer − inner)/(c·ρ)⌉, plus the inner boundary circle.
  const double inner = pow2(-k_ + j_);
  const double outer = pow2(-k_ + j_ + 1);
  const double rho = pow2(-3 * k_ + 2 * j_ - 1);
  const double steps =
      std::ceil((outer - inner) / (opts_.spacing_factor * rho));
  count_ = static_cast<std::uint64_t>(steps) + 1;
  i_ = 0;
  phase_ = 0;
}

double VariantRoundEmitter::circle_radius() const {
  const double inner = pow2(-k_ + j_);
  const double rho = pow2(-3 * k_ + 2 * j_ - 1);
  return inner + opts_.spacing_factor * static_cast<double>(i_) * rho;
}

Segment VariantRoundEmitter::next() {
  if (done_) throw std::logic_error("VariantRoundEmitter: exhausted");
  if (j_ > 2 * k_ - 1) {
    done_ = true;
    if (opts_.include_wait) {
      return WaitSeg{{0.0, 0.0}, search_round_wait(k_)};
    }
    // No-wait ablation: emit a zero-length stand-in so callers still
    // get a final segment (the frame stream drops zero-duration
    // segments automatically).
    return LineSeg{{0.0, 0.0}, {0.0, 0.0}};
  }
  const double radius = circle_radius();
  const int phase = phase_;
  if (++phase_ == 3) {
    phase_ = 0;
    if (++i_ >= count_) {
      ++j_;
      if (j_ <= 2 * k_ - 1) load_sub_round();
    }
  }
  return circle_leg(radius, phase);
}

VariantSearchProgram::VariantSearchProgram(VariantOptions options)
    : opts_(options), emitter_(1, options) {}

Segment VariantSearchProgram::next() {
  if (emitter_.done()) {
    ++round_;
    emitter_ = VariantRoundEmitter(round_, opts_);
  }
  return emitter_.next();
}

std::string VariantSearchProgram::name() const {
  return "algorithm4-variant(spacing=" + std::to_string(opts_.spacing_factor) +
         (opts_.include_wait ? ",wait" : ",nowait") + ")";
}

std::shared_ptr<traj::Program> make_variant_search_program(
    const VariantOptions& options) {
  return std::make_shared<VariantSearchProgram>(options);
}

}  // namespace rv::search
