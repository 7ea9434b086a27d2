// Tests for deterministic process sharding (engine/shard): plan
// properties and the load-bearing invariant — a set run across forked
// shard processes (`run_forked`) and replayed from the folded cache
// emits table/CSV/JSON byte-identical to the single-process run, for
// every family and any shard count.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/cache_store.hpp"
#include "engine/failpoint.hpp"
#include "engine/runner.hpp"
#include "engine/scenario_set.hpp"
#include "engine/shard.hpp"

namespace {

namespace fs = std::filesystem;
using rv::engine::Family;
using rv::engine::ForkOptions;
using rv::engine::ResultSet;
using rv::engine::RunnerOptions;
using rv::engine::ScenarioCache;
using rv::engine::ScenarioSet;
using rv::engine::ShardPlan;
using rv::engine::SupervisorReport;
using rv::engine::WorkItem;

/// Scratch directory removed on every exit path.
struct Scratch {
  fs::path path;
  Scratch() {
    std::string buffer =
        (fs::temp_directory_path() / "rv_shard_XXXXXX").string();
    EXPECT_NE(mkdtemp(buffer.data()), nullptr) << "mkdtemp failed";
    path = buffer;
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Fork options over `dir` with one runner thread per child (the
/// children then never start threads of their own).
ForkOptions fork_options(const fs::path& dir, std::size_t procs) {
  ForkOptions fork;
  fork.dir = dir;
  fork.set_name = "set";
  fork.procs = procs;
  fork.threads = static_cast<unsigned>(procs);
  return fork;
}

TEST(ShardPlanTest, PartitionsIndicesByStride) {
  const ShardPlan plan = rv::engine::shard_plan(10, 1, 3);
  EXPECT_EQ(plan.shard, 1u);
  EXPECT_EQ(plan.num_shards, 3u);
  EXPECT_EQ(plan.total, 10u);
  EXPECT_EQ(plan.indices, (std::vector<std::size_t>{1, 4, 7}));
}

TEST(ShardPlanTest, ShardsAreDisjointAndCoverEverything) {
  for (const std::size_t num_shards : {1u, 2u, 3u, 7u, 13u}) {
    std::set<std::size_t> seen;
    for (std::size_t s = 0; s < num_shards; ++s) {
      for (const std::size_t i :
           rv::engine::shard_plan(11, s, num_shards).indices) {
        EXPECT_TRUE(seen.insert(i).second)
            << "index " << i << " in two shards";
      }
    }
    EXPECT_EQ(seen.size(), 11u) << num_shards << " shards";
  }
}

TEST(ShardPlanTest, MoreShardsThanItemsLeavesTrailingShardsEmpty) {
  EXPECT_EQ(rv::engine::shard_plan(2, 0, 5).indices.size(), 1u);
  EXPECT_EQ(rv::engine::shard_plan(2, 1, 5).indices.size(), 1u);
  EXPECT_TRUE(rv::engine::shard_plan(2, 4, 5).indices.empty());
  EXPECT_TRUE(rv::engine::shard_plan(0, 0, 1).indices.empty());
}

TEST(ShardPlanTest, RejectsInvalidPartitions) {
  EXPECT_THROW((void)rv::engine::shard_plan(4, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)rv::engine::shard_plan(4, 2, 2), std::invalid_argument);
}

TEST(ShardWorkTest, RejectsMismatchedWorkList) {
  ScenarioSet set;
  rv::rendezvous::Scenario scenario;
  scenario.max_time = 100.0;
  set.add(scenario);
  const std::vector<WorkItem> work = set.materialize_work();
  const ShardPlan plan = rv::engine::shard_plan(5, 0, 2);  // wrong total
  EXPECT_THROW((void)rv::engine::shard_work(work, plan),
               std::invalid_argument);
}

/// One small set per family (fast cells, deterministic outputs).
ScenarioSet family_set(Family family) {
  ScenarioSet set;
  switch (family) {
    case Family::kRendezvous: {
      rv::rendezvous::Scenario base;
      base.visibility = 0.25;
      base.max_time = 1e3;
      set.base(base).speeds({1.0, 1.5, 2.0}).time_units({1.0, 0.5}).distances(
          {1.0});
      break;
    }
    case Family::kSearch: {
      rv::engine::SearchCell base;
      base.angles = 3;
      base.visibility = 0.25;
      base.max_time = 1e3;
      set.search_base(base).search_distances({0.5, 1.0, 2.0});
      break;
    }
    case Family::kGather: {
      for (const double speed : {1.5, 2.0, 2.5}) {
        rv::engine::GatherCell cell;
        rv::geom::RobotAttributes fast = rv::geom::reference_attributes();
        fast.speed = speed;
        cell.fleet = {rv::geom::reference_attributes(), fast};
        cell.visibility = 0.2;
        cell.contact_max_time = 1e3;
        cell.gather_max_time = 1e3;
        set.add_gather(cell, "fleet v=" + std::to_string(speed));
      }
      break;
    }
    case Family::kLinear: {
      rv::engine::LinearCell base;
      base.mode = rv::engine::LinearMode::kZigZagSearch;
      base.visibility = 0.01;
      base.max_time = 1e3;
      set.linear_base(base).linear_distances({0.5, 1.0, 2.0, 4.0});
      break;
    }
    case Family::kCoverage: {
      rv::engine::CoverageCell base;
      base.disk_radius = 0.5;
      base.visibility = 0.1;
      base.cell = 0.05;
      base.checkpoints = 4;
      base.horizon = 50.0;
      set.coverage_base(base).coverage_programs(
          {rv::engine::SearchProgram::kAlgorithm4,
           rv::engine::SearchProgram::kConcentric,
           rv::engine::SearchProgram::kSquareSpiral});
      break;
    }
  }
  return set;
}

class ShardedRunPerFamily : public ::testing::TestWithParam<Family> {};

TEST_P(ShardedRunPerFamily, MergedOutputMatchesSingleProcessByteForByte) {
  const ScenarioSet set = family_set(GetParam());
  RunnerOptions options;
  options.threads = 1;
  const ResultSet single = rv::engine::run_scenarios(set, options);
  ASSERT_GT(single.size(), 0u);
  const std::string csv = single.to_csv();
  const std::string json = single.to_json();
  const std::string table = [&] {
    std::ostringstream os;
    single.to_table().print(os);
    return os.str();
  }();

  const std::vector<WorkItem> work = set.materialize_work();
  for (const std::size_t procs : {1u, 2u, 3u, 5u}) {
    Scratch scratch;
    ScenarioCache cache;
    const SupervisorReport report =
        rv::engine::run_forked(work, cache, fork_options(scratch.path, procs));
    EXPECT_TRUE(report.complete()) << procs << " procs\n" << report.table();
    options.cache = &cache;
    const ResultSet replay = rv::engine::run_scenarios(work, options);
    EXPECT_EQ(replay.cache_stats().misses, 0u) << procs << " procs";
    EXPECT_EQ(replay.to_csv(), csv) << procs << " procs";
    EXPECT_EQ(replay.to_json(), json) << procs << " procs";
    std::ostringstream os;
    replay.to_table().print(os);
    EXPECT_EQ(os.str(), table) << procs << " procs";
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ShardedRunPerFamily,
                         ::testing::Values(Family::kRendezvous,
                                           Family::kSearch, Family::kGather,
                                           Family::kLinear,
                                           Family::kCoverage),
                         [](const ::testing::TestParamInfo<Family>& info) {
                           return rv::engine::family_name(info.param);
                         });

TEST(ShardFileNameTest, FormatsSetShardAndPlaceholder) {
  EXPECT_EQ(rv::engine::shard_file_name("linear-line", 1, 3),
            "linear-line-shard-1-of-3.rvcache");
  EXPECT_EQ(rv::engine::shard_file_name("", 0, 2),
            "<set>-shard-0-of-2.rvcache");
}

TEST(RunForkedTest, CrashedShardLosesItsStridedIndices) {
  const std::vector<WorkItem> work =
      family_set(Family::kLinear).materialize_work();
  ASSERT_EQ(work.size(), 4u);
  Scratch scratch;
  ScenarioCache cache;
  rv::engine::failpoint::arm("shard.worker.start=crash(87),index=1");
  const SupervisorReport report =
      rv::engine::run_forked(work, cache, fork_options(scratch.path, 2));
  rv::engine::failpoint::disarm_all();
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.failed_shards(), (std::vector<std::size_t>{1}));
  EXPECT_EQ(report.missing_indices(4), (std::vector<std::size_t>{1, 3}));
  // Only the surviving shard's file exists, and only its two outcomes
  // were folded back.
  EXPECT_TRUE(fs::exists(scratch.path /
                         rv::engine::shard_file_name("set", 0, 2)));
  EXPECT_FALSE(fs::exists(scratch.path /
                          rv::engine::shard_file_name("set", 1, 2)));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(RunForkedTest, WarmRerunWritesNoShardFileAndReplaysEverything) {
  const std::vector<WorkItem> work =
      family_set(Family::kSearch).materialize_work();
  ScenarioCache warm;
  RunnerOptions options;
  options.threads = 1;
  options.cache = &warm;
  (void)rv::engine::run_scenarios(work, options);
  Scratch scratch;
  const SupervisorReport report =
      rv::engine::run_forked(work, warm, fork_options(scratch.path, 2));
  EXPECT_TRUE(report.complete());
  // Every child replayed what it owns: nothing was computed, so no
  // child wrote a shard file.
  EXPECT_TRUE(rv::engine::list_cache_files(scratch.path).empty());
  const ResultSet replay = rv::engine::run_scenarios(work, options);
  EXPECT_EQ(replay.cache_stats().hits, work.size());
  EXPECT_EQ(replay.cache_stats().misses, 0u);
}

TEST(RunForkedTest, RejectsZeroProcs) {
  ScenarioCache cache;
  EXPECT_THROW((void)rv::engine::run_forked({}, cache, fork_options("", 0)),
               std::invalid_argument);
}

TEST(ShardCacheTest, ForkedShardsReplayDuplicateCells) {
  // Two forked shards over a set whose cells repeat: the strided plan
  // gives each shard both copies of one cell, so each child computes
  // it once and replays it once, writes one outcome, and the replay of
  // the folded cache is unchanged.
  ScenarioSet set;
  rv::engine::LinearCell cell;
  cell.mode = rv::engine::LinearMode::kZigZagSearch;
  cell.visibility = 0.01;
  cell.max_time = 1e3;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const double d : {1.0, 2.0}) {
      cell.target = d;
      set.add_linear(cell);
    }
  }

  RunnerOptions options;
  options.threads = 1;
  const std::string want = rv::engine::run_scenarios(set, options).to_csv();

  const std::vector<WorkItem> work = set.materialize_work();
  Scratch scratch;
  ScenarioCache cache;
  const SupervisorReport report =
      rv::engine::run_forked(work, cache, fork_options(scratch.path, 2));
  EXPECT_TRUE(report.complete());
  for (std::size_t p = 0; p < 2; ++p) {
    ScenarioCache file;
    const rv::engine::CacheLoadStats stats = rv::engine::load_cache_file(
        scratch.path / rv::engine::shard_file_name("set", p, 2), &file);
    EXPECT_EQ(stats.loaded, 1u) << "shard " << p;
  }
  EXPECT_EQ(cache.size(), 2u);  // two distinct cells
  options.cache = &cache;
  const ResultSet replay = rv::engine::run_scenarios(work, options);
  EXPECT_EQ(replay.to_csv(), want);
  EXPECT_EQ(replay.cache_stats().hits, 4u);
  EXPECT_EQ(replay.cache_stats().misses, 0u);
}

}  // namespace
