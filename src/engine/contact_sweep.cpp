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
/// Relative rounding slack of the certified bound in `run` (see there).
constexpr double kRounding = 1e-12;

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
  current_.resize(n);
  speeds_.assign(n, 0.0);
  durs_.assign(n, 0.0);
  stale_.assign(n, 0);
  any_stale_ = false;
  for (std::size_t i = 0; i < n; ++i) {
    streams_[i].next_into(current_[i]);
    ++res.segments;
    durs_[i] = traj::duration(current_[i].geometry);
    speeds_[i] = current_[i].speed(durs_[i]);
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
      streams_[i].next_into(current_[i]);
      ++res.segments;
    } while (current_[i].t1 <= t);
    durs_[i] = traj::duration(current_[i].geometry);
    speeds_[i] = current_[i].speed(durs_[i]);
    stale_[i] = 1;
  }
  any_stale_ = true;
  refresh_window();
}

void ContactSweep::flush() {
  if (!any_stale_) return;
  for (std::size_t i = 0; i < stale_.size(); ++i) {
    if (!stale_[i]) continue;
    batch_.assemble_one(i, current_[i], durs_[i]);
    stale_[i] = 0;
  }
  any_stale_ = false;
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
  flush();
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
  flush();
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
  // A certified lower bound on the metric the sweep would compute at t:
  // `bound`, the last computed metric less L·Δt for every window crossed
  // since (scaled by 1 + kRounding, which covers the few-ulp gap between
  // a computed speed and the slope of the computed positions, and the
  // rounding of L·Δt), less allowance(t) for every step point and every
  // segment hand-off since that evaluation (allowance grows with t, so
  // charging each at the current t covers it).
  //
  // allowance(t) is kRounding·(1 + M(t)), where M(t) = max ‖origin‖₁ +
  // 2·v_max·t bounds every coordinate at t: local programs start at
  // their origin and move at unit speed, and the frame map scales space
  // by v·τ and time by τ.  Each error it must cover is below
  // 1e-13·M(t): a computed position (line lerp: a few roundings; arc:
  // about 60 ulps of angle error over |θ| ≤ 4π, as every program here
  // emits arcs from angle 0 with |sweep| ≤ 2π, plus libm's ulp), the
  // metric's roundings, the gap between a segment's computed end point
  // and its successor's computed start point, and the bound's own
  // subtractions.
  double reach = 0.0;
  double v_max = 0.0;
  for (const traj::GlobalSegmentStream& stream : streams_) {
    reach = std::max(reach, std::abs(stream.origin().x) +
                                std::abs(stream.origin().y));
    v_max = std::max(v_max, stream.attributes().speed);
  }
  const auto allowance = [&](double at) {
    return kRounding * (1.0 + reach + 2.0 * v_max * at);
  };
  double bound = -std::numeric_limits<double>::infinity();
  std::uint64_t charged = 0;  // res.evals + res.segments at that evaluation

  while (t < opts_.max_time && res.evals < opts_.max_evals) {
    // Pull segments forward so every robot covers time t.
    pull(t, res);
    const double window_end = std::min(opts_.max_time, next_end_);

    // The bound decides t when the computed metric m ≥ lb could not be
    // a new best or an event, and would step to the window end
    // ((m − r)/L ≥ window_end − t, with 1e-9 of slack for the step's
    // roundings; with L ≤ 0 the step ignores m).  Then m = +∞ takes the
    // very same branches below, without computing positions or m.
    bool decided = false;
    if (bound > res.best_metric) {  // lb ≤ bound: the cheap test first
      const double lb =
          bound - allowance(t) * static_cast<double>(
                                     1 + res.evals + res.segments - charged);
      decided = lb > res.best_metric && lb > r + opts_.contact_tol &&
                (lipschitz_ <= 0.0 ||
                 lb - r >= lipschitz_ * (window_end - t) * (1.0 + 1e-9));
    }
    double m;
    if (decided) {
      ++res.evals;
      ++res.bounded;
      m = std::numeric_limits<double>::infinity();
    } else {
      m = evaluate(t, res);
      bound = m;
      charged = res.evals + res.segments;
    }
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
    const double advanced = (next_t > t) ? next_t : t + opts_.min_step;
    // The window just crossed is this one: L is still its constant.
    bound -= lipschitz_ * (advanced - t) * (1.0 + kRounding);
    t = advanced;
  }

  // Horizon or eval budget reached without the event.
  res.event = false;
  res.time = std::min(t, opts_.max_time);
  finalize(res.time, res);
  return res;
}

}  // namespace rv::engine
