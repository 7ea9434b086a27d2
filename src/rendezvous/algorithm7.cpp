#include "rendezvous/algorithm7.hpp"

#include "rendezvous/schedule.hpp"

namespace rv::rendezvous {

using traj::Segment;
using traj::WaitSeg;

RendezvousProgram::RendezvousProgram(traj::MarkRecorder* recorder)
    : recorder_(recorder) {
  begin_round();
}

void RendezvousProgram::mark(const char* phase) {
  if (recorder_) {
    recorder_->record(local_clock_,
                      std::string(phase) + " " + std::to_string(n_));
  }
}

void RendezvousProgram::begin_round() {
  ++n_;
  stage_ = Stage::kWait;
  mark("inactive");
}

Segment RendezvousProgram::emitted() {
  // Without a recorder the emitter's segment is returned as is, with no
  // named copy (see traj/frame.hpp).
  if (!recorder_) return emitter_.next();
  Segment seg = emitter_.next();
  local_clock_ += traj::duration(seg);
  return seg;
}

Segment RendezvousProgram::next() {
  for (;;) {
    switch (stage_) {
      case Stage::kWait: {
        const double wait_time = 2.0 * search_all_time(n_);
        stage_ = Stage::kSearchAll;
        k_ = 1;
        emitter_ = search::SearchRoundEmitter(k_);
        // Only marks read the local clock, so it advances only when a
        // recorder is attached.
        if (recorder_) local_clock_ += wait_time;
        // The active phase begins when this wait ends.
        mark("searchall");
        return WaitSeg{{0.0, 0.0}, wait_time};
      }
      case Stage::kSearchAll: {
        if (!emitter_.done()) return emitted();
        if (k_ < n_) {
          emitter_ = search::SearchRoundEmitter(++k_);
          continue;
        }
        stage_ = Stage::kSearchAllRev;
        k_ = n_;
        emitter_ = search::SearchRoundEmitter(k_);
        mark("searchallrev");
        continue;
      }
      case Stage::kSearchAllRev: {
        if (!emitter_.done()) return emitted();
        if (k_ > 1) {
          emitter_ = search::SearchRoundEmitter(--k_);
          continue;
        }
        begin_round();
        continue;
      }
    }
  }
}

std::shared_ptr<traj::Program> make_rendezvous_program() {
  return std::make_shared<RendezvousProgram>();
}

}  // namespace rv::rendezvous
