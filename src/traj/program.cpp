#include "traj/program.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rv::traj {

using geom::Vec2;

void MarkRecorder::record(double local_time, std::string label) {
  marks_.push_back(Mark{local_time, std::move(label)});
}

const Mark* MarkRecorder::find(const std::string& label) const {
  for (const Mark& m : marks_) {
    if (m.label == label) return &m;
  }
  return nullptr;
}

StationaryProgram::StationaryProgram(double chunk) : chunk_(chunk) {
  if (!(chunk > 0.0)) {
    throw std::invalid_argument("StationaryProgram: chunk must be > 0");
  }
}

Segment StationaryProgram::next() { return WaitSeg{{0.0, 0.0}, chunk_}; }

BufferedTrajectory::BufferedTrajectory(std::shared_ptr<Program> program)
    : program_(std::move(program)) {
  if (!program_) {
    throw std::invalid_argument("BufferedTrajectory: null program");
  }
}

void BufferedTrajectory::ensure(double t) {
  while (total_ < t) {
    Segment seg = program_->next();
    starts_.push_back(total_);
    total_ += duration(seg);
    segments_.push_back(std::move(seg));
  }
}

Vec2 BufferedTrajectory::position_at(double t) {
  if (t < 0.0) t = 0.0;
  ensure(t);
  if (segments_.empty()) return {};
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), t);
  const std::size_t idx =
      static_cast<std::size_t>(std::distance(starts_.begin(), it)) - 1;
  return traj::position_at(segments_[idx], t - starts_[idx]);
}

}  // namespace rv::traj
