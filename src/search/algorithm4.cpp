#include "search/algorithm4.hpp"

#include <stdexcept>

namespace rv::search {

SearchProgram::SearchProgram(int first_round, traj::MarkRecorder* recorder)
    : round_(first_round), emitter_(first_round), recorder_(recorder) {
  if (first_round < 1) {
    throw std::invalid_argument("SearchProgram: first_round must be >= 1");
  }
  if (recorder_) {
    recorder_->record(0.0, "round " + std::to_string(round_) + " begin");
  }
}

traj::Segment SearchProgram::next() {
  if (emitter_.done()) {
    ++round_;
    emitter_ = SearchRoundEmitter(round_);
    if (recorder_) {
      recorder_->record(local_clock_,
                        "round " + std::to_string(round_) + " begin");
    }
  }
  traj::Segment seg = emitter_.next();
  // Only marks read the local clock.
  if (recorder_) local_clock_ += traj::duration(seg);
  return seg;
}

std::shared_ptr<traj::Program> make_search_program() {
  return std::make_shared<SearchProgram>();
}

}  // namespace rv::search
