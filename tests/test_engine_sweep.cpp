// Oracle test of the certified sweep's decided steps: ContactSweep::run
// skips computing the step points that its Lipschitz bound decides, and
// must give bit for bit the SweepResult of the loop that computes every
// point.  That loop is kept below, in this file only.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/contact_sweep.hpp"
#include "engine/families.hpp"
#include "engine/metric_kernel.hpp"
#include "geom/attributes.hpp"
#include "linear/linear_rendezvous.hpp"
#include "linear/zigzag.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "rendezvous/core.hpp"
#include "rv_batch_sets.hpp"
#include "search/algorithm4.hpp"
#include "search/baselines.hpp"
#include "support/traj.hpp"
#include "traj/batch.hpp"
#include "traj/frame.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"

namespace {

using rv::engine::ContactSweep;
using rv::engine::RobotSpec;
using rv::engine::SweepMetric;
using rv::engine::SweepOptions;
using rv::engine::SweepResult;
using rv::geom::RobotAttributes;
using rv::geom::Vec2;

/// The sweep loop that computes every step point: positions and the
/// metric at each one.  The oracle that ContactSweep::run must match.
SweepResult compute_every_step(std::vector<RobotSpec> robots,
                               SweepMetric metric, const SweepOptions& opts) {
  const std::size_t n = robots.size();
  std::vector<rv::traj::GlobalSegmentStream> streams;
  for (RobotSpec& spec : robots) {
    streams.emplace_back(std::move(spec.program), spec.attributes,
                         spec.origin);
  }
  SweepResult res;
  res.best_metric = std::numeric_limits<double>::infinity();
  std::vector<rv::traj::TimedSegment> current;
  std::vector<double> speeds;
  for (auto& stream : streams) {
    current.push_back(stream.next());
    speeds.push_back(current.back().speed());
    ++res.segments;
  }
  rv::traj::BatchedPositions batch;
  batch.assemble(current);
  std::vector<Vec2> pos(n);
  double next_end = 0.0;
  double lipschitz = 0.0;
  const auto refresh_window = [&] {
    next_end = current[0].t1;
    for (const auto& seg : current) next_end = std::min(next_end, seg.t1);
    lipschitz = rv::engine::lipschitz_speed_sum(speeds);
  };
  refresh_window();
  const auto pull = [&](double t) {
    if (t < next_end) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (current[i].t1 > t) continue;
      do {
        current[i] = streams[i].next();
        ++res.segments;
      } while (current[i].t1 <= t);
      batch.assemble_one(i, current[i],
                         rv::traj::duration(current[i].geometry));
      speeds[i] = current[i].speed();
    }
    refresh_window();
  };
  const auto extremal = [&](const std::vector<Vec2>& p) {
    return metric == SweepMetric::kMinPairwise ? rv::engine::min_pairwise(p)
                                               : rv::engine::max_pairwise(p);
  };
  const auto evaluate = [&](double at) {
    batch.positions(at, pos.data());
    ++res.evals;
    return extremal(pos).distance;
  };
  const auto finalize = [&](double at) {
    res.positions.resize(n);
    batch.positions(at, res.positions.data());
    const rv::geom::ExtremalPair p = extremal(res.positions);
    res.metric = p.distance;
    res.pair_i = p.i;
    res.pair_j = p.j;
  };

  const double r = opts.visibility;
  double t = 0.0;
  double prev_t = 0.0;
  bool have_prev = false;
  while (t < opts.max_time && res.evals < opts.max_evals) {
    pull(t);
    const double window_end = std::min(opts.max_time, next_end);
    const double m = evaluate(t);
    if (m < res.best_metric) {
      res.best_metric = m;
      res.best_metric_time = t;
    }
    if (m <= r + opts.contact_tol) {
      double event_time = t;
      if (m < r && have_prev) {
        double lo = prev_t, hi = t;
        while (hi - lo > opts.time_tol) {
          const double mid = 0.5 * (lo + hi);
          if (evaluate(mid) <= r) {
            hi = mid;
          } else {
            lo = mid;
          }
        }
        event_time = hi;
      }
      res.event = true;
      res.time = event_time;
      finalize(event_time);
      return res;
    }
    prev_t = t;
    have_prev = true;
    double step;
    if (lipschitz <= 0.0) {
      step = window_end - t;
      if (step <= 0.0) step = opts.min_step;
    } else {
      step = (m - r) / lipschitz;
    }
    step = std::max(step, opts.min_step);
    const double next_t = std::min(t + step, window_end);
    t = (next_t > t) ? next_t : t + opts.min_step;
  }
  res.event = false;
  res.time = std::min(t, opts.max_time);
  finalize(res.time);
  return res;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every field but `bounded`, bit for bit.
void expect_same(const SweepResult& got, const SweepResult& want,
                 const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.event, want.event);
  EXPECT_EQ(bits(got.time), bits(want.time));
  EXPECT_EQ(bits(got.metric), bits(want.metric));
  EXPECT_EQ(bits(got.best_metric), bits(want.best_metric));
  EXPECT_EQ(bits(got.best_metric_time), bits(want.best_metric_time));
  EXPECT_EQ(got.pair_i, want.pair_i);
  EXPECT_EQ(got.pair_j, want.pair_j);
  ASSERT_EQ(got.positions.size(), want.positions.size());
  for (std::size_t i = 0; i < got.positions.size(); ++i) {
    EXPECT_EQ(bits(got.positions[i].x), bits(want.positions[i].x));
    EXPECT_EQ(bits(got.positions[i].y), bits(want.positions[i].y));
  }
  EXPECT_EQ(got.evals, want.evals);
  EXPECT_EQ(got.segments, want.segments);
}

using ProgramFactory = std::function<std::shared_ptr<rv::traj::Program>()>;

/// One sweep's inputs; `robots` builds fresh programs on every call.
struct SweepCase {
  std::function<std::vector<RobotSpec>()> robots;
  SweepMetric metric = SweepMetric::kMinPairwise;
  SweepOptions opts;
};

SweepCase fleet_case(ProgramFactory factory, std::vector<RobotAttributes> attrs,
                     std::vector<Vec2> origins, SweepMetric metric,
                     SweepOptions opts) {
  return {[factory, attrs, origins] {
            std::vector<RobotSpec> robots;
            for (std::size_t i = 0; i < attrs.size(); ++i) {
              robots.push_back({factory(), attrs[i], origins[i]});
            }
            return robots;
          },
          metric, opts};
}

/// One searcher from the origin against a stationary target, as
/// sim::simulate_search builds it.
SweepCase search_case(ProgramFactory searcher, RobotAttributes attrs,
                      Vec2 target, SweepOptions opts) {
  return {[searcher, attrs, target] {
            std::vector<RobotSpec> robots;
            robots.push_back({searcher(), attrs, {0.0, 0.0}});
            robots.push_back({std::make_shared<rv::traj::StationaryProgram>(),
                              rv::geom::reference_attributes(), target});
            return robots;
          },
          SweepMetric::kMinPairwise, opts};
}

/// Both runs of one case; fails on any difference.  Returns the
/// sweep's result.
SweepResult check_case(const SweepCase& c, const std::string& what) {
  ContactSweep sweep(c.robots(), c.metric, c.opts);
  const SweepResult got = sweep.run();
  expect_same(got, compute_every_step(c.robots(), c.metric, c.opts), what);
  EXPECT_LE(got.bounded, got.evals) << what;
  return got;
}

// ---------------------------------------------------------------------------
// The built-in sets: every sweep of every cell
// ---------------------------------------------------------------------------

SweepOptions sweep_options(double visibility, double max_time) {
  SweepOptions opts;
  opts.visibility = visibility;
  opts.max_time = max_time;
  return opts;
}

ProgramFactory search_factory(const rv::engine::SearchCell& cell) {
  if (cell.program_factory) return cell.program_factory;
  switch (cell.program) {
    case rv::engine::SearchProgram::kAlgorithm4:
      return [] { return rv::search::make_search_program(); };
    case rv::engine::SearchProgram::kConcentric:
      return [] { return rv::search::make_concentric_baseline(); };
    case rv::engine::SearchProgram::kSquareSpiral:
      return [] { return rv::search::make_square_spiral_baseline(); };
  }
  return {};
}

/// The sweeps a cell runs, in the order its family runs them (as
/// rendezvous::run_scenario, run_search_cell, run_gather_cell and
/// run_linear_cell build them).
std::vector<SweepCase> cell_sweeps(const rv::engine::WorkItem& item) {
  using rv::engine::Family;
  const RobotAttributes ref = rv::geom::reference_attributes();
  std::vector<SweepCase> cases;
  switch (item.family) {
    case Family::kRendezvous: {
      const auto& s = item.scenario;
      const ProgramFactory factory =
          s.program ? s.program : rv::rendezvous::program_factory(s.algorithm);
      cases.push_back(fleet_case(
          factory, {ref, s.attrs}, {{0.0, 0.0}, s.offset},
          SweepMetric::kMinPairwise, sweep_options(s.visibility, s.max_time)));
      break;
    }
    case Family::kSearch: {
      const auto& c = item.search;
      const bool explicit_targets = !c.targets.empty();
      const int count =
          explicit_targets ? static_cast<int>(c.targets.size()) : c.angles;
      for (int a = 0; a < count; ++a) {
        const Vec2 target =
            explicit_targets
                ? c.targets[static_cast<std::size_t>(a)]
                : rv::geom::polar(c.distance, 2.0 * rv::mathx::kPi * a /
                                                      c.angles +
                                                  c.angle_offset);
        cases.push_back(search_case(search_factory(c), c.attrs, target,
                                    sweep_options(c.visibility, c.max_time)));
      }
      break;
    }
    case Family::kGather: {
      const auto& c = item.gather;
      std::vector<Vec2> origins;
      for (std::size_t i = 0; i < c.fleet.size(); ++i) {
        origins.push_back(rv::engine::gather_origin(c, i));
      }
      const ProgramFactory factory =
          rv::rendezvous::program_factory(c.algorithm);
      cases.push_back(
          fleet_case(factory, c.fleet, origins, SweepMetric::kMinPairwise,
                     sweep_options(c.visibility, c.contact_max_time)));
      cases.push_back(
          fleet_case(factory, c.fleet, origins, SweepMetric::kMaxPairwise,
                     sweep_options(c.visibility, c.gather_max_time)));
      break;
    }
    case Family::kLinear: {
      const auto& c = item.linear;
      const SweepOptions opts = sweep_options(c.visibility, c.max_time);
      const RobotAttributes planar = rv::linear::to_planar(c.attrs);
      if (c.mode == rv::engine::LinearMode::kZigZagSearch) {
        cases.push_back(search_case(rv::linear::make_zigzag_program, planar,
                                    {c.target, 0.0}, opts));
      } else {
        cases.push_back(fleet_case(rv::linear::make_linear_rendezvous_program,
                                   {ref, planar}, {{0.0, 0.0}, {c.target, 0.0}},
                                   SweepMetric::kMinPairwise, opts));
      }
      break;
    }
    case Family::kCoverage:
      break;  // swept-area accounting runs no contact sweep
  }
  return cases;
}

/// The production outcome's sweep counters, to check that `cell_sweeps`
/// rebuilt the sweeps the cell really runs.
std::pair<std::uint64_t, std::uint64_t> cell_counters(
    const rv::engine::WorkItem& item) {
  using rv::engine::Family;
  switch (item.family) {
    case Family::kRendezvous: {
      const auto o = rv::rendezvous::run_scenario(item.scenario);
      return {o.sim.evals, o.sim.segments};
    }
    case Family::kSearch: {
      const auto o = rv::engine::run_search_cell(item.search);
      return {o.evals, o.segments};
    }
    case Family::kGather: {
      const auto o = rv::engine::run_gather_cell(item.gather);
      return {o.contact.evals + o.gathered.evals,
              o.contact.segments + o.gathered.segments};
    }
    case Family::kLinear: {
      const auto o = rv::engine::run_linear_cell(item.linear);
      return {o.sim.evals, o.sim.segments};
    }
    case Family::kCoverage:
      break;
  }
  return {0, 0};
}

TEST(SweepOracle, EveryBuiltinCellMatchesAndDecidedCountsArePinned) {
  // Decided step points per set: a deterministic count of the work the
  // bound saves.  A change here changes how much the sweep computes;
  // re-pin it only with the reason in CHANGES.md.
  const std::map<std::string, std::uint64_t> kBounded = {
      {"rendezvous-grid", 8}, {"search-ring", 200},
      {"gather-fleet", 1'323'925}, {"linear-line", 2},
      {"coverage-disk", 0},
  };
  for (const rv::engine::SetDecl& decl : rv::batch::builtin_sets()) {
    std::uint64_t bounded = 0;
    std::uint64_t evals = 0;
    const auto work = decl.set.materialize_work();
    for (std::size_t k = 0; k < work.size(); ++k) {
      const std::string what = decl.name + " item " + std::to_string(k);
      std::uint64_t cell_evals = 0;
      std::uint64_t cell_segments = 0;
      const std::vector<SweepCase> cases = cell_sweeps(work[k]);
      for (std::size_t c = 0; c < cases.size(); ++c) {
        const SweepResult got =
            check_case(cases[c], what + " sweep " + std::to_string(c));
        bounded += got.bounded;
        cell_evals += got.evals;
        cell_segments += got.segments;
      }
      const auto [want_evals, want_segments] = cell_counters(work[k]);
      EXPECT_EQ(cell_evals, want_evals) << what;
      EXPECT_EQ(cell_segments, want_segments) << what;
      evals += cell_evals;
    }
    std::printf("%s: %llu of %llu evaluation points decided\n",
                decl.name.c_str(), static_cast<unsigned long long>(bounded),
                static_cast<unsigned long long>(evals));
    ASSERT_TRUE(kBounded.count(decl.name)) << decl.name;
    EXPECT_EQ(bounded, kBounded.at(decl.name)) << decl.name;
  }
}

// ---------------------------------------------------------------------------
// Seeded fleets
// ---------------------------------------------------------------------------

struct Fleet {
  ProgramFactory factory;
  std::vector<RobotAttributes> attrs;
  std::vector<Vec2> origins;
};

/// 2–4 robots on Algorithm 4 or 7.  With `same_clock` every robot has
/// time unit 1, so Algorithm 7's inactive phases coincide and the whole
/// fleet waits (L = 0) for long stretches.
Fleet random_fleet(rv::mathx::Xoshiro256& rng, bool same_clock) {
  Fleet fleet;
  fleet.factory = rv::rendezvous::program_factory(
      rng.uniform01() < 0.5 ? rv::rendezvous::AlgorithmChoice::kAlgorithm4
                            : rv::rendezvous::AlgorithmChoice::kAlgorithm7);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 4));
  for (std::size_t i = 0; i < n; ++i) {
    RobotAttributes a;
    a.speed = rng.uniform(0.5, 2.0);
    a.time_unit = same_clock ? 1.0 : rng.uniform(0.5, 2.0);
    a.orientation = rng.uniform(0.0, rv::mathx::kTwoPi);
    a.chirality = rng.uniform01() < 0.5 ? 1 : -1;
    fleet.attrs.push_back(a);
    fleet.origins.push_back(rv::geom::polar(
        rng.uniform(0.5, 3.0), rng.uniform(0.0, rv::mathx::kTwoPi)));
  }
  return fleet;
}

SweepCase fleet_sweep(const Fleet& f, SweepMetric metric, double r,
                      double max_time,
                      std::uint64_t max_evals = SweepOptions{}.max_evals) {
  SweepOptions opts = sweep_options(r, max_time);
  opts.max_evals = max_evals;
  return fleet_case(f.factory, f.attrs, f.origins, metric, opts);
}

TEST(SweepOracle, SeededFleetsMatch) {
  rv::mathx::Xoshiro256 rng(2719);
  std::uint64_t bounded = 0;
  int capped_on_decided = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const Fleet fleet = random_fleet(rng, trial % 3 == 0);
    for (const SweepMetric metric :
         {SweepMetric::kMinPairwise, SweepMetric::kMaxPairwise}) {
      const std::string what =
          "trial " + std::to_string(trial) +
          (metric == SweepMetric::kMinPairwise ? " min" : " max");
      const double horizon = rng.uniform(200.0, 3000.0);
      const SweepResult base =
          check_case(fleet_sweep(fleet, metric, 0.05, horizon), what);
      bounded += base.bounded;

      // r just under the best sample: the event and best-metric tests
      // sit at a near tie.
      for (const double below : {1e-12, 1e-6}) {
        const double r = base.best_metric * (1.0 - below);
        if (r > 0.0) {
          check_case(fleet_sweep(fleet, metric, r, horizon), what + " r~best");
        }
      }

      // Eval caps and horizons inside the run: the sweep stops between
      // two step points, with slots possibly stale.
      for (int j = 1; j <= 4; ++j) {
        const std::uint64_t cap = base.evals * j / 5;
        if (cap < 2) continue;
        const SweepResult capped = check_case(
            fleet_sweep(fleet, metric, 0.05, horizon, cap), what + " cap");
        const SweepResult before =
            check_case(fleet_sweep(fleet, metric, 0.05, horizon, cap - 1),
                       what + " cap-1");
        if (!capped.event && capped.bounded == before.bounded + 1) {
          ++capped_on_decided;  // the cap's last point was decided
        }
        check_case(fleet_sweep(fleet, metric, 0.05, capped.time),
                   what + " horizon");
      }
    }
  }
  std::printf("seeded fleets: %llu points decided; %d caps on a decided "
              "point\n",
              static_cast<unsigned long long>(bounded), capped_on_decided);
  EXPECT_GT(bounded, 0u);
  EXPECT_GT(capped_on_decided, 0);
}

TEST(SweepOracle, WaitingFleetIsDecidedOnceTheMetricRose) {
  // Robot 0 walks from the origin to (3, 0) and then waits; robot 1
  // waits at (−2, 0).  Both wait in chunks of 1, so every integer time
  // is a step point.  The distance rises from 2 to 5 by t = 3 and then
  // stays there with L = 0: from t = 3 on the bound exceeds the best
  // metric (2) and r, and every point is decided.  The horizon lands
  // after a run of decided points that pulled new segments, so the
  // reported positions need the stale slots rewritten.
  SweepCase c{[] {
                rv::traj::Path walk;
                walk.line_to({3.0, 0.0});
                std::vector<RobotSpec> robots;
                robots.push_back({std::make_shared<rv::traj::PathProgram>(
                                      walk, "walk", 1.0),
                                  rv::geom::reference_attributes(),
                                  {0.0, 0.0}});
                robots.push_back(
                    {std::make_shared<rv::traj::StationaryProgram>(1.0),
                     rv::geom::reference_attributes(), {-2.0, 0.0}});
                return robots;
              },
              SweepMetric::kMinPairwise, sweep_options(1.0, 50.0)};
  const SweepResult got = check_case(c, "waiting");
  EXPECT_FALSE(got.event);
  EXPECT_EQ(got.evals, 50u);
  EXPECT_EQ(got.bounded, 47u);
  EXPECT_EQ(got.positions[0].x, 3.0);
}

}  // namespace
