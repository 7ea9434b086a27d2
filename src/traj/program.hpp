#pragma once

/// \file program.hpp
/// Lazy, conceptually infinite trajectory programs.
///
/// The paper's Algorithm 4 and Algorithm 7 never terminate on their
/// own — they run "until target found" / "until rendezvous occurs".
/// A `Program` is therefore a pull-based generator of position-
/// continuous segments: the simulator pulls exactly as much trajectory
/// as the detection horizon requires.
///
/// Conventions:
///  * every program starts at the local origin (0, 0);
///  * consecutive segments are position-continuous;
///  * all geometry is in the robot's own frame and units (the frame
///    map of `traj/frame.hpp` converts to global coordinates).

#include <memory>
#include <string>
#include <vector>

#include "traj/path.hpp"
#include "traj/segment.hpp"

namespace rv::traj {

/// A labelled instant on a program's local clock, e.g. "round 3 active
/// phase begins".  Used by tests/benches to check the schedule algebra
/// of Lemma 8 against the emitted trajectory.
struct Mark {
  double local_time = 0.0;
  std::string label;

  bool operator==(const Mark&) const = default;
};

/// Collects marks in emission order.
class MarkRecorder {
 public:
  /// Appends a mark.
  void record(double local_time, std::string label);
  /// All marks recorded so far.
  [[nodiscard]] const std::vector<Mark>& marks() const { return marks_; }
  /// First mark with the given label, or nullptr.
  [[nodiscard]] const Mark* find(const std::string& label) const;

 private:
  std::vector<Mark> marks_;
};

/// Pull-based infinite trajectory generator.
class Program {
 public:
  virtual ~Program() = default;

  /// Produces the next segment.  Must never run out: infinite programs
  /// keep generating; finite behaviours pad with waits.
  [[nodiscard]] virtual Segment next() = 0;

  /// Human-readable program name (for logs and benchmark tables).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// A program that stays at the origin forever (the stationary target of
/// the search problem, emitted as long waits).
class StationaryProgram final : public Program {
 public:
  /// `chunk` is the wait duration per emitted segment.
  explicit StationaryProgram(double chunk = 1e12);
  [[nodiscard]] Segment next() override;
  [[nodiscard]] std::string name() const override { return "stationary"; }

 private:
  double chunk_;
};

/// Evaluates any program as a function of local time by buffering the
/// emitted segments.  Intended for tests and visualisation — the
/// simulator streams segments instead of buffering.
class BufferedTrajectory {
 public:
  explicit BufferedTrajectory(std::shared_ptr<Program> program);

  /// Position at local time t ≥ 0 (generates on demand).
  [[nodiscard]] geom::Vec2 position_at(double t);

  /// Total duration buffered so far.
  [[nodiscard]] double buffered_duration() const { return total_; }

  /// Ensures at least `t` time units are buffered.
  void ensure(double t);

  /// Buffered segments, in order.
  [[nodiscard]] const std::vector<Segment>& segments() const {
    return segments_;
  }

 private:
  std::shared_ptr<Program> program_;
  std::vector<Segment> segments_;
  std::vector<double> starts_;
  double total_ = 0.0;
};

}  // namespace rv::traj
