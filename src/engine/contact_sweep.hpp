#pragma once

/// \file contact_sweep.hpp
/// The certified first-contact sweep — the single implementation of the
/// Lipschitz-step/bisection argument shared by every simulator in the
/// repository.
///
/// Between trajectory breakpoints each robot moves along one primitive,
/// so every pairwise separation d_ij(t) is Lipschitz with constant
/// v_i + v_j (the sum of the traversal speeds on the current
/// primitives).  Consequently both sweep metrics
///   * min over pairs of d_ij  (first contact / 2-robot rendezvous) and
///   * max over pairs of d_ij  (all-pairs gathering)
/// are Lipschitz with constant  L = max over pairs of (v_i + v_j), and
/// the sweep may advance by Δt = (metric − r)/L — the largest step that
/// provably cannot skip a crossing — then refine by bisection once the
/// metric dips below r.  This yields *certified* event times up to a
/// tolerance, without trusting any fixed sampling grid.
///
/// Both per-step quantities come from engine/metric_kernel.hpp: the
/// metric from one O(n²) squared-distance pair loop and L from the two
/// largest current segment speeds.  Both equal the historical hypot
/// loops bit for bit.  Shipped fleets have n ≤ 4 robots; larger ones
/// pay the quadratic loop (docs/ARCHITECTURE.md records the cost).
///
/// Positions are evaluated through the SoA batched evaluator
/// (traj/batch.hpp) — one pass over the fleet's current segments,
/// bitwise identical to the per-robot variant dispatch it replaces.
///
/// Stepping plus bisection is the only way the sweep advances.  Every
/// reported meeting, search and gathering time comes from it, and every
/// golden byte is pinned against it.  Closed-form per-window pair
/// solvers were measured and deleted: they were slower end to end on
/// every built-in set, because Algorithm 4/7 trajectories are
/// arc-heavy.
///
/// Cost model per step: a step pays for what changed since the last
/// step and, unless the bound below decides it, for one metric
/// evaluation; a decided step costs the pull and the bound check only.
/// When no current segment ends by the step time the pull returns at
/// once; otherwise it advances only the robots whose segments ended,
/// streaming each new segment in place into the robot's current slot
/// (`GlobalSegmentStream::next_into`, no `Segment` temporary; see
/// traj/frame.hpp), computes its duration once (for its speed and its
/// batch slot), and recomputes the window end and the Lipschitz
/// constant L.  Batch slots are rewritten lazily
/// (`BatchedPositions::assemble_one`), just before the next computed
/// evaluation, so a step that computes nothing never touches them.
///
/// Decided steps.  The sweep keeps a certified lower bound on the
/// metric, carried from its last computed evaluation and lowered by
/// L·Δt over every window it crosses (plus a rounding allowance).  A
/// step point where that bound already exceeds both the best metric so
/// far and r + contact_tol, and already certifies a step to the window
/// end, is *decided*: evaluating it could update nothing, report no
/// event and take no other step, so it is counted in `evals` (and in
/// `bounded`) without computing positions or the metric.  The step
/// schedule and every reported value are the same as computing every
/// point (tests/test_engine_sweep.cpp holds that loop as an oracle).
/// On gather-fleet, whose all-pairs metric stays far above r while
/// nearly every step is clamped to a segment end, 1,323,925 of its
/// 1,702,861 evaluation points (78%) are decided.
///
/// Tangential touches shallower than L·min_step can be passed over (a
/// Zeno guard forces progress); all experiments in this repository
/// involve transversal crossings, and `contact_tol` absorbs grazing
/// contacts to within 1e−9 world units.
///
/// `sim::TwoRobotSimulator` (2-robot rendezvous) and
/// `gather::MultiRobotSimulator` (n-robot gathering) are thin adapters
/// over this class; neither carries its own stepping logic.

#include <cstdint>
#include <memory>
#include <vector>

#include "geom/attributes.hpp"
#include "geom/vec2.hpp"
#include "traj/batch.hpp"
#include "traj/frame.hpp"
#include "traj/program.hpp"

namespace rv::engine {

/// One robot: a local program, hidden attributes, and a global origin.
struct RobotSpec {
  std::shared_ptr<traj::Program> program;
  geom::RobotAttributes attributes;
  geom::Vec2 origin;
};

/// The shared sweep controls.  `sim::SimOptions` is an alias of this
/// struct, and `gather::GatherOptions` embeds it, so every simulator in
/// the repository consumes the same tolerance knobs.
struct SweepOptions {
  double visibility = 1.0;      ///< r > 0, finite: event at metric ≤ r
  double max_time = 1e9;        ///< give-up horizon (global time), finite
  double contact_tol = 1e-9;    ///< accept the event when metric ≤ r + contact_tol
  double time_tol = 1e-9;       ///< bisection tolerance on the event time
  double min_step = 1e-9;       ///< Zeno guard: forced progress per step
  std::uint64_t max_evals = 500'000'000;  ///< hard cap on metric evaluations
};

/// Which pairwise statistic the sweep watches for the event metric ≤ r.
enum class SweepMetric {
  kMinPairwise,  ///< any pair within r (first contact / rendezvous)
  kMaxPairwise,  ///< every pair within r simultaneously (gathering)
};

/// Outcome of a sweep.
struct SweepResult {
  bool event = false;        ///< true iff the metric reached r before max_time
  double time = 0.0;         ///< certified event time (or the horizon)
  double metric = 0.0;       ///< metric value at `time`
  double best_metric = 0.0;  ///< smallest metric seen at sweep evaluations
  double best_metric_time = 0.0;  ///< when the best metric was seen
  int pair_i = -1;  ///< extremal pair at `time` (consistent with `metric`
  int pair_j = -1;  ///< and `positions`; set on event and at the horizon)
  std::vector<geom::Vec2> positions;  ///< all robot positions at `time`
  /// Evaluation points of the step schedule plus bisection points, of
  /// which `bounded` were decided by the certified bound without
  /// computing.
  std::uint64_t evals = 0;
  std::uint64_t segments = 0;  ///< timed segments consumed (all robots)
  /// Step points decided by the bound (a work counter; not emitted).
  std::uint64_t bounded = 0;
};

/// Sweeps n ≥ 2 robots forward in global time and reports the first
/// time the chosen pairwise metric reaches the visibility radius.
class ContactSweep {
 public:
  /// \throws std::invalid_argument for fewer than 2 robots, null
  /// programs, or bad options.
  ContactSweep(std::vector<RobotSpec> robots, SweepMetric metric,
               SweepOptions options);

  /// Runs until the event or the horizon; single use (the segment
  /// streams are consumed).
  [[nodiscard]] SweepResult run();

  /// Number of robots.
  [[nodiscard]] std::size_t size() const { return streams_.size(); }

 private:
  /// Pulls every robot's first segment and fills every slot.
  void start(SweepResult& res);
  /// Advances each robot whose current segment ends at or before t,
  /// updates only those robots' speeds and marks their batch slots
  /// stale; a no-op when no segment ends by t.
  void pull(double t, SweepResult& res);
  /// Rewrites the stale batch slots.
  void flush();
  /// Recomputes `next_end_` and `lipschitz_` after the fleet changed.
  void refresh_window();
  /// The sweep metric over `pos`; fills the extremal pair.
  [[nodiscard]] double metric_of(const std::vector<geom::Vec2>& pos,
                                 int* out_i, int* out_j) const;
  /// Counted evaluation at a sweep/bisection point (into `pos_`).
  [[nodiscard]] double evaluate(double at, SweepResult& res);
  /// Final positions, metric and extremal pair at `at` (not counted).
  void finalize(double at, SweepResult& res);

  std::vector<traj::GlobalSegmentStream> streams_;
  std::vector<traj::TimedSegment> current_;
  traj::BatchedPositions batch_;  ///< SoA evaluator over `current_`
  std::vector<geom::Vec2> pos_;
  std::vector<double> speeds_;  ///< current_[i].speed(), per robot
  std::vector<double> durs_;    ///< duration(current_[i].geometry)
  std::vector<std::uint8_t> stale_;  ///< batch slot i lags current_[i]
  bool any_stale_ = false;
  double next_end_ = 0.0;   ///< earliest t1 over `current_`
  double lipschitz_ = 0.0;  ///< lipschitz_speed_sum(speeds_)
  SweepMetric metric_;
  SweepOptions opts_;
};

}  // namespace rv::engine
