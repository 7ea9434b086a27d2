// E10 — micro-benchmarks of the substrate (google-benchmark): segment
// evaluation, frame mapping, emitter throughput, contact sweeps,
// Lambert W, schedule algebra.  These quantify the simulator cost
// model used to size the E1-E9 experiments.

#include <benchmark/benchmark.h>

#include "mathx/constants.hpp"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/coverage.hpp"
#include "engine/contact_sweep.hpp"
#include "engine/metric_kernel.hpp"
#include "engine/runner.hpp"
#include "engine/scenario_set.hpp"
#include "gather/multi_simulator.hpp"
#include "geom/difference_map.hpp"
#include "mathx/lambert_w.hpp"
#include "rendezvous/algorithm7.hpp"
#include "rendezvous/core.hpp"
#include "rendezvous/schedule.hpp"
#include "search/algorithm4.hpp"
#include "search/baselines.hpp"
#include "search/emitter.hpp"
#include "search/times.hpp"
#include "sim/simulator.hpp"
#include "traj/batch.hpp"
#include "traj/frame.hpp"

namespace {

using rv::geom::RobotAttributes;
using rv::geom::Vec2;

void BM_SegmentEvalLine(benchmark::State& state) {
  const rv::traj::Segment seg = rv::traj::LineSeg{{0.0, 0.0}, {3.0, 4.0}};
  double t = 0.0;
  for (auto _ : state) {
    t += 0.1;
    if (t > 5.0) t = 0.0;
    benchmark::DoNotOptimize(rv::traj::position_at(seg, t));
  }
}
BENCHMARK(BM_SegmentEvalLine);

void BM_SegmentEvalArc(benchmark::State& state) {
  const rv::traj::Segment seg =
      rv::traj::ArcSeg{{0.0, 0.0}, 2.0, 0.0, rv::mathx::kTwoPi};
  double t = 0.0;
  for (auto _ : state) {
    t += 0.1;
    if (t > 12.0) t = 0.0;
    benchmark::DoNotOptimize(rv::traj::position_at(seg, t));
  }
}
BENCHMARK(BM_SegmentEvalArc);

void BM_FrameTransformSegment(benchmark::State& state) {
  RobotAttributes attrs;
  attrs.speed = 1.5;
  attrs.time_unit = 0.7;
  attrs.orientation = 1.2;
  attrs.chirality = -1;
  const rv::traj::Segment seg =
      rv::traj::ArcSeg{{1.0, 2.0}, 0.5, 0.3, rv::mathx::kPi};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rv::traj::to_global_geometry(seg, attrs, {3.0, 4.0}));
  }
}
BENCHMARK(BM_FrameTransformSegment);

void BM_SearchRoundEmitter(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    rv::search::SearchRoundEmitter emitter(k);
    std::uint64_t n = 0;
    while (!emitter.done()) {
      benchmark::DoNotOptimize(emitter.next());
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              rv::search::SearchRoundEmitter(k)
                                  .total_segments()));
}
BENCHMARK(BM_SearchRoundEmitter)->Arg(3)->Arg(5)->Arg(7);

void BM_Algorithm7Emission(benchmark::State& state) {
  for (auto _ : state) {
    rv::rendezvous::RendezvousProgram prog;
    for (int i = 0; i < 10000; ++i) {
      benchmark::DoNotOptimize(prog.next());
    }
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_Algorithm7Emission);

// 100,000 Algorithm 7 segments through the frame map into one reused
// TimedSegment: the pull a sweep step pays when a segment ends
// (emission, validation, the frame map and the Kahan clock).
void BM_GlobalSegmentStream(benchmark::State& state) {
  RobotAttributes attrs;
  attrs.speed = 1.5;
  attrs.time_unit = 0.75;
  attrs.orientation = 1.2;
  attrs.chirality = -1;
  for (auto _ : state) {
    rv::traj::GlobalSegmentStream stream(
        std::make_shared<rv::rendezvous::RendezvousProgram>(), attrs,
        {1.0, 0.0});
    rv::traj::TimedSegment seg;
    for (int i = 0; i < 100000; ++i) {
      stream.next_into(seg);
      benchmark::DoNotOptimize(seg);
    }
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_GlobalSegmentStream);

void BM_ContactSweepSearch(benchmark::State& state) {
  for (auto _ : state) {
    rv::sim::SimOptions opts;
    opts.visibility = 0.25;
    opts.max_time = 1e5;
    const auto res = rv::sim::simulate_search(
        rv::search::make_search_program(), {1.3, 0.9}, opts);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_ContactSweepSearch);

// A ring fleet with deterministic radial jitter — the gather family's
// layout, minus the exact regular-polygon symmetry that would make
// *every* antipodal pair tie for the diameter (an adversarial
// tie-resolution stress, not the generic case).
std::vector<Vec2> jittered_ring(int n) {
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const double jitter =
        static_cast<double>((s >> 11) % 1024) / 1024.0 * 0.05;
    pts.push_back(
        rv::geom::polar(1.0 + jitter, rv::mathx::kTwoPi * i / n));
  }
  return pts;
}

// The n-robot gathering sweep: n identical robots on a jittered unit
// ring all running the square-spiral trajectory, max-pairwise metric.
// The construction pins the measured work to the metric kernel: an
// identical fleet keeps every pairwise distance constant (the metric
// never events, the certified step is a fixed (m − r)/L, and a metric
// that never rises above its best leaves no step to the bound, so
// every step point is computed along with the bound's bookkeeping),
// continuous line-based motion keeps L = 2 with cheap per-robot
// position evaluation and few segments — so the sweep performs the
// same capped eval count at every fleet size.  (Algorithm 7 fleets are
// mostly *passive*: their sweeps window-jump through the long common
// waits in a dozen evaluations, measuring segment streaming instead of
// the kernel; arc-heavy Algorithm 4 fleets spend the time in per-robot
// trig.)
void BM_ContactSweepGather(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Vec2> origins = jittered_ring(n);
  std::uint64_t evals = 0;
  for (auto _ : state) {
    std::vector<rv::engine::RobotSpec> robots;
    robots.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      robots.push_back({rv::search::make_square_spiral_baseline(),
                        RobotAttributes{}, origins[static_cast<std::size_t>(i)]});
    }
    rv::engine::SweepOptions opts;
    // r at 95% of the *base* ring diameter (a lower bound on the
    // jittered fleet's constant diameter): the certified step
    // (m − r)/L stays small at every n, so the sweep spends its time
    // in metric evaluations rather than segment streaming.
    const double diam =
        2.0 * std::sin(rv::mathx::kPi * static_cast<double>(n / 2) / n);
    opts.visibility = 0.95 * diam;
    opts.max_time = 100.0;
    opts.max_evals = 2000;
    rv::engine::ContactSweep sweep(std::move(robots),
                                   rv::engine::SweepMetric::kMaxPairwise,
                                   opts);
    const auto res = sweep.run();
    evals += res.evals;
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evals) * n * (n - 1) / 2);
}
BENCHMARK(BM_ContactSweepGather)
    ->Arg(3)->Arg(6)->Arg(10)->Arg(50)->Arg(100)->Arg(250);

// The SoA batched position evaluator on the gather fleet's current
// segments: one switch-driven pass over n robots per query versus the
// per-robot variant dispatch it replaced inside the sweep.
void BM_BatchedPositions(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Vec2> origins = jittered_ring(n);
  std::vector<rv::traj::TimedSegment> segs;
  segs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rv::traj::GlobalSegmentStream stream(
        rv::search::make_square_spiral_baseline(), RobotAttributes{},
        origins[static_cast<std::size_t>(i)]);
    segs.push_back(stream.next());
  }
  rv::traj::BatchedPositions batch;
  batch.assemble(segs);
  std::vector<Vec2> out(static_cast<std::size_t>(n));
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-4;
    if (t > 1.0) t = 0.0;
    batch.positions(t, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BatchedPositions)->Arg(3)->Arg(50)->Arg(250)->Arg(1000);

// The gather-fleet set's "distinct clocks" fleet — three Algorithm 7
// robots with τ = 1, 0.5, 0.75 on the unit ring, r = 0.2 — through the
// all-pairs gathering sweep, cut at a short fixed horizon.  Nearly
// every step of this sweep pulls a new segment, and the certified
// bound decides 16,213 of its 28,061 step points without computing
// them, so it times segment pulls (frame mapping, emission) and the
// bookkeeping of decided steps more than positions or the metric.
void BM_SweepGatherFleet(benchmark::State& state) {
  std::vector<RobotAttributes> fleet(3);
  fleet[1].time_unit = 0.5;
  fleet[2].time_unit = 0.75;
  std::vector<Vec2> origins;
  for (int i = 0; i < 3; ++i) {
    origins.push_back(rv::geom::polar(
        1.0, 2.0 * rv::mathx::kPi * static_cast<double>(i) / 3.0));
  }
  const auto factory = rv::rendezvous::program_factory(
      rv::rendezvous::AlgorithmChoice::kAlgorithm7);
  rv::gather::GatherOptions opts;
  opts.sweep.visibility = 0.2;
  opts.sweep.max_time = 2e4;
  opts.mode = rv::gather::GatherMode::kAllPairsGathered;
  std::uint64_t segments = 0;
  for (auto _ : state) {
    const auto res =
        rv::gather::simulate_gathering(factory, fleet, origins, opts);
    segments += res.segments;
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(segments));
}
BENCHMARK(BM_SweepGatherFleet);

// The coverage-disk set's Algorithm 4 cell: R = 1.5, r = 0.1, cell
// 0.05, 16 checkpoints, horizon twice the guaranteed round's Lemma 2
// time.  Late rounds run circles far outside the grid, and retrace
// circles whose every cell is already marked; the sweep skips both
// whole.
void BM_MeasureCoverageDisk(benchmark::State& state) {
  rv::analysis::CoverageOptions opts;
  opts.disk_radius = 1.5;
  opts.visibility = 0.1;
  opts.cell = 0.05;
  opts.checkpoints = 16;
  opts.horizon = 2.0 * rv::search::time_first_rounds(
                           rv::search::guaranteed_round(1.5, 0.1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rv::analysis::measure_coverage(
        rv::search::make_search_program(), RobotAttributes{}, opts));
  }
}
BENCHMARK(BM_MeasureCoverageDisk);

// The squared-distance pair loop on the jittered ring (the gather
// family's layout).
void BM_MetricKernelMinBrute(benchmark::State& state) {
  const auto pts = jittered_ring(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(rv::engine::min_pairwise(pts));
  state.SetItemsProcessed(state.iterations());
}
void BM_MetricKernelMaxBrute(benchmark::State& state) {
  const auto pts = jittered_ring(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(rv::engine::max_pairwise(pts));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricKernelMinBrute)->Arg(16)->Arg(48)->Arg(250)->Arg(1000);
BENCHMARK(BM_MetricKernelMaxBrute)->Arg(16)->Arg(48)->Arg(250)->Arg(1000);

void BM_LambertW0(benchmark::State& state) {
  double x = 0.5;
  for (auto _ : state) {
    x = x < 1e6 ? x * 1.7 : 0.5;
    benchmark::DoNotOptimize(rv::mathx::lambert_w0(x));
  }
}
BENCHMARK(BM_LambertW0);

void BM_DifferenceFactorisation(benchmark::State& state) {
  double phi = 0.1;
  for (auto _ : state) {
    phi += 0.37;
    if (phi > 6.0) phi = 0.1;
    benchmark::DoNotOptimize(
        rv::geom::factor_difference_matrix(1.7, phi, -1));
  }
}
BENCHMARK(BM_DifferenceFactorisation);

void BM_EngineScenarioSweep(benchmark::State& state) {
  // A 16-cell attribute grid through the batch engine; the argument is
  // the worker-thread count, so the timings expose the sweep's
  // parallel scaling (CSV output is identical at every thread count).
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    rv::engine::ScenarioSet set;
    set.speeds({0.5, 1.0, 2.0, 4.0})
        .time_units({0.5, 0.75})
        .chiralities({1, -1})
        .visibility(0.25)
        .algorithm(rv::rendezvous::AlgorithmChoice::kAlgorithm7)
        .max_time(2e3);
    rv::engine::RunnerOptions opts;
    opts.threads = threads;
    benchmark::DoNotOptimize(rv::engine::run_scenarios(set, opts));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EngineScenarioSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_RoundBound(benchmark::State& state) {
  double tau = 0.5;
  for (auto _ : state) {
    tau += 0.013;
    if (tau >= 0.99) tau = 0.31;
    benchmark::DoNotOptimize(rv::rendezvous::rendezvous_round_bound(tau, 6));
  }
}
BENCHMARK(BM_RoundBound);

}  // namespace

int main(int argc, char** argv) {
  // Benchmarks of an unoptimized build measure the compiler, not the
  // library: shout about it on stderr and tag the JSON context so
  // BENCH_engine.json snapshots are self-describing (CI builds the
  // smoke with CMAKE_BUILD_TYPE=Release; see .github/workflows/ci.yml).
  // Note on the stock "library_build_type" context field: it reports
  // how the google-benchmark *library* was compiled (the system
  // package often says "debug"), not this binary.  rv_optimized_build
  // is the authoritative flag for whether the recorded timings
  // measure optimized library code — tools/bench_diff gates on it
  // (--require-optimized).
#if defined(__OPTIMIZE__)
  benchmark::AddCustomContext("rv_optimized_build", "true");
#else
  std::fprintf(stderr,
               "========================================================\n"
               "WARNING: bench_micro was compiled WITHOUT optimization.\n"
               "Timings below measure the debug build, not the library.\n"
               "Rebuild with -DCMAKE_BUILD_TYPE=Release before recording\n"
               "BENCH_engine.json.\n"
               "========================================================\n");
  benchmark::AddCustomContext("rv_optimized_build", "false");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
