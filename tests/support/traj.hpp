#pragma once

/// \file traj.hpp
/// Trajectory helpers for tests: a program that replays a fixed path,
/// and position lookups by time over paths and global traces, so tests
/// can sample what the engine only ever streams.

#include <string>

#include "sim/trace.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"

namespace rv::traj {

/// Replays a finite path, then waits at its end point forever.
class PathProgram final : public Program {
 public:
  explicit PathProgram(Path path, std::string name = "path",
                       double tail_chunk = 1e12);
  [[nodiscard]] Segment next() override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  Path path_;
  std::string name_;
  std::size_t index_ = 0;
  double tail_chunk_;
};

/// Position on `path` at local time t ∈ [0, duration()]; clamped
/// outside.
[[nodiscard]] geom::Vec2 position_at(const Path& path, double t);

}  // namespace rv::traj

namespace rv::sim {

/// Global position on `trace` at time t ∈ [0, horizon] (clamped).
[[nodiscard]] geom::Vec2 position_at(const GlobalTrace& trace, double t);

}  // namespace rv::sim
