#include "rendezvous/variants.hpp"

#include "rendezvous/schedule.hpp"

namespace rv::rendezvous {

using traj::Segment;
using traj::WaitSeg;

VariantRendezvousProgram::VariantRendezvousProgram(ActivePhaseOrder order)
    : order_(order) {
  begin_round();
}

void VariantRendezvousProgram::begin_round() {
  ++n_;
  stage_ = Stage::kWait;
}

int VariantRendezvousProgram::second_pass_first_k() const {
  return order_ == ActivePhaseOrder::kForwardThenReverse ? n_ : 1;
}

Segment VariantRendezvousProgram::next() {
  for (;;) {
    switch (stage_) {
      case Stage::kWait: {
        const double wait_time = 2.0 * search_all_time(n_);
        stage_ = Stage::kFirstPass;
        k_ = 1;
        emitter_ = search::SearchRoundEmitter(k_);
        return WaitSeg{{0.0, 0.0}, wait_time};
      }
      case Stage::kFirstPass: {
        if (!emitter_.done()) return emitter_.next();
        if (k_ < n_) {
          emitter_ = search::SearchRoundEmitter(++k_);
          continue;
        }
        stage_ = Stage::kSecondPass;
        k_ = second_pass_first_k();
        emitter_ = search::SearchRoundEmitter(k_);
        continue;
      }
      case Stage::kSecondPass: {
        if (!emitter_.done()) return emitter_.next();
        const bool reverse =
            order_ == ActivePhaseOrder::kForwardThenReverse;
        if (reverse ? (k_ > 1) : (k_ < n_)) {
          emitter_ = search::SearchRoundEmitter(reverse ? --k_ : ++k_);
          continue;
        }
        begin_round();
        continue;
      }
    }
  }
}

std::string VariantRendezvousProgram::name() const {
  return order_ == ActivePhaseOrder::kForwardThenReverse
             ? "algorithm7-variant(fwd+rev)"
             : "algorithm7-variant(fwd+fwd)";
}

std::shared_ptr<traj::Program> make_variant_rendezvous_program(
    ActivePhaseOrder order) {
  return std::make_shared<VariantRendezvousProgram>(order);
}

}  // namespace rv::rendezvous
