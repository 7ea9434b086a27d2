#include "engine/contact_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "engine/metric_kernel.hpp"

namespace rv::engine {

using geom::Vec2;
using traj::TimedSegment;

namespace {
void validate_options(const SweepOptions& o) {
  // std::isfinite guards alongside the sign checks: a NaN fails a
  // `> 0` comparison (and is caught), but +inf passes it, and an
  // infinite radius/horizon/tolerance would silently break the
  // certified stepping arithmetic (inf − inf, 0·inf).
  if (!std::isfinite(o.visibility) || !(o.visibility > 0.0)) {
    throw std::invalid_argument("ContactSweep: visibility must be finite > 0");
  }
  if (!std::isfinite(o.max_time) || !(o.max_time > 0.0)) {
    throw std::invalid_argument("ContactSweep: max_time must be finite > 0");
  }
  if (!std::isfinite(o.contact_tol) || !(o.contact_tol >= 0.0) ||
      !std::isfinite(o.time_tol) || !(o.time_tol > 0.0) ||
      !std::isfinite(o.min_step) || !(o.min_step > 0.0)) {
    throw std::invalid_argument("ContactSweep: bad tolerances");
  }
}
}  // namespace

ContactSweep::ContactSweep(std::vector<RobotSpec> robots, SweepMetric metric,
                           SweepOptions options)
    : metric_(metric), opts_(options) {
  validate_options(opts_);
  if (robots.size() < 2) {
    throw std::invalid_argument("ContactSweep: need >= 2 robots");
  }
  streams_.reserve(robots.size());
  for (RobotSpec& spec : robots) {
    if (!spec.program) {
      throw std::invalid_argument("ContactSweep: null program");
    }
    streams_.emplace_back(std::move(spec.program), spec.attributes,
                          spec.origin);
  }
}

void ContactSweep::start(SweepResult& res) {
  res.best_metric = std::numeric_limits<double>::infinity();
  const std::size_t n = streams_.size();
  current_.clear();
  current_.reserve(n);
  speeds_.clear();
  speeds_.reserve(n);
  for (auto& stream : streams_) {
    current_.push_back(stream.next());
    speeds_.push_back(current_.back().speed());
    ++res.segments;
  }
  batch_.assemble(current_);
  pos_.resize(n);
  refresh_window();
}

void ContactSweep::pull(double t, SweepResult& res) {
  // No current segment ends at or before t: nothing to pull, and the
  // window end and Lipschitz constant still hold.
  if (t < next_end_) return;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (current_[i].t1 > t) continue;
    do {
      current_[i] = streams_[i].next();
      ++res.segments;
    } while (current_[i].t1 <= t);
    batch_.assemble_one(i, current_[i]);
    speeds_[i] = current_[i].speed();
  }
  refresh_window();
}

void ContactSweep::refresh_window() {
  next_end_ = current_[0].t1;
  for (const TimedSegment& seg : current_) {
    next_end_ = std::min(next_end_, seg.t1);
  }
  // The pair maximum of v_i + v_j is the sum of the two largest
  // speeds — computed in O(n), identical value.
  lipschitz_ = lipschitz_speed_sum(speeds_);
}

double ContactSweep::metric_of(const std::vector<Vec2>& pos, int* out_i,
                               int* out_j) const {
  // Same value and same lexicographically-first pair as the historical
  // hypot loop (engine/metric_kernel.hpp).
  const geom::ExtremalPair p = metric_ == SweepMetric::kMinPairwise
                                   ? min_pairwise(pos)
                                   : max_pairwise(pos);
  if (out_i) *out_i = p.i;
  if (out_j) *out_j = p.j;
  return p.distance;
}

double ContactSweep::evaluate(double at, SweepResult& res) {
  // The batched SoA evaluator replays the scalar per-robot arithmetic
  // bitwise (see traj/batch.hpp), so the metric stream is unchanged.
  batch_.positions(at, pos_.data());
  ++res.evals;
  return metric_of(pos_, nullptr, nullptr);
}

void ContactSweep::finalize(double at, SweepResult& res) {
  // Reporting only — not a counted eval.  The pair is recomputed here,
  // at the *certified* time, so the reported pair, metric and positions
  // are mutually consistent: the detection evaluation happens at a
  // sweep point strictly after the bisected event time, where a
  // different pair may be extremal.
  res.positions.resize(streams_.size());
  batch_.positions(at, res.positions.data());
  res.metric = metric_of(res.positions, &res.pair_i, &res.pair_j);
}

SweepResult ContactSweep::run() {
  SweepResult res;
  const double r = opts_.visibility;
  start(res);

  double t = 0.0;
  double prev_t = 0.0;  // last evaluated time with metric > r
  bool have_prev = false;

  while (t < opts_.max_time && res.evals < opts_.max_evals) {
    // Pull segments forward so every robot covers time t.
    pull(t, res);
    const double window_end = std::min(opts_.max_time, next_end_);

    const double m = evaluate(t, res);
    if (m < res.best_metric) {
      res.best_metric = m;
      res.best_metric_time = t;
    }

    if (m <= r + opts_.contact_tol) {
      // Event (or a graze within tolerance).  If we are strictly inside
      // the disk and have a previous outside point, bisect for the
      // first crossing.
      double event_time = t;
      if (m < r && have_prev) {
        double lo = prev_t, hi = t;
        while (hi - lo > opts_.time_tol) {
          const double mid = 0.5 * (lo + hi);
          if (evaluate(mid, res) <= r) {
            hi = mid;
          } else {
            lo = mid;
          }
        }
        event_time = hi;
      }
      res.event = true;
      res.time = event_time;
      finalize(event_time, res);
      return res;
    }

    prev_t = t;
    have_prev = true;

    // Certified advance: the metric is Lipschitz with constant
    // L = max over pairs of (v_i + v_j) on this window, so it cannot
    // reach r before t + (m − r)/L.
    double step;
    if (lipschitz_ <= 0.0) {
      // Everybody stationary: the metric is constant until the window
      // ends.
      step = window_end - t;
      if (step <= 0.0) step = opts_.min_step;
    } else {
      step = (m - r) / lipschitz_;
    }
    step = std::max(step, opts_.min_step);
    const double next_t = std::min(t + step, window_end);
    // Always make progress even at window boundaries.
    t = (next_t > t) ? next_t : t + opts_.min_step;
  }

  // Horizon or eval budget reached without the event.
  res.event = false;
  res.time = std::min(t, opts_.max_time);
  finalize(res.time, res);
  return res;
}

}  // namespace rv::engine
