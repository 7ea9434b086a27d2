#pragma once

/// \file algorithm4.hpp
/// Algorithm 4 — the paper's universal search trajectory: repeat
/// Search(k) for k = 1, 2, 3, ... until the target is discovered.
/// (Termination is the simulator's concern; the program is an infinite
/// segment stream.)

#include <memory>
#include <string>

#include "search/emitter.hpp"
#include "traj/program.hpp"

namespace rv::search {

/// The universal search program of Algorithm 4.
class SearchProgram final : public traj::Program {
 public:
  /// `first_round` lets callers resume from a later round (used by the
  /// rendezvous schedule analysis); normally 1.
  /// An optional `MarkRecorder` receives "round k begin" marks with the
  /// local time at which each Search(k) starts.
  explicit SearchProgram(int first_round = 1,
                         traj::MarkRecorder* recorder = nullptr);

  [[nodiscard]] traj::Segment next() override;
  [[nodiscard]] std::string name() const override { return "algorithm4"; }

  /// The round currently being emitted.
  [[nodiscard]] int current_round() const { return round_; }

 private:
  int round_;
  SearchRoundEmitter emitter_;
  traj::MarkRecorder* recorder_;
  double local_clock_ = 0.0;  ///< maintained only with a recorder
};

/// Factory helper matching the simulator's program-factory interface.
[[nodiscard]] std::shared_ptr<traj::Program> make_search_program();

}  // namespace rv::search
