// Tests for deterministic process sharding and execution
// (engine/shard): plan properties; the load-bearing invariant — a set
// whose misses `execute` forks across shard processes emits
// table/CSV/JSON byte-identical to the single-process run, for every
// family and any shard count; and the one persistence rule,
// `persist_misses`.

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
using rv::engine::ExecOptions;
using rv::engine::Execution;
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

/// Execute options over `dir` with one runner thread per child (the
/// children then never start threads of their own).
ExecOptions exec_options(const fs::path& dir, std::size_t procs) {
  ExecOptions exec;
  exec.dir = dir;
  exec.procs = procs;
  exec.threads = static_cast<unsigned>(procs);
  return exec;
}

/// Classifies `work` against `cache`, then executes it.
Execution classify_and_execute(const std::vector<WorkItem>& work,
                               ScenarioCache& cache, const ExecOptions& exec) {
  return rv::engine::execute(work, rv::engine::classify(work, &cache), cache,
                             exec);
}

/// Every entry directly inside `dir` (cache files, hand-offs, anything).
std::vector<fs::path> dir_entries(const fs::path& dir) {
  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(dir)) {
    entries.push_back(entry.path());
  }
  return entries;
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
    const Execution ran =
        classify_and_execute(work, cache, exec_options(scratch.path, procs));
    EXPECT_TRUE(ran.report.complete()) << procs << " procs\n"
                                       << ran.report.table();
    EXPECT_EQ(ran.results.to_csv(), csv) << procs << " procs";
    // The forked outcomes were folded into the cache: a rerun replays
    // every item, and no hand-off is left behind.
    EXPECT_TRUE(dir_entries(scratch.path).empty()) << procs << " procs";
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

TEST(ExecuteTest, CrashedShardLosesOnlyItsStridedMisses) {
  const std::vector<WorkItem> work =
      family_set(Family::kLinear).materialize_work();
  ASSERT_EQ(work.size(), 4u);
  RunnerOptions options;
  options.threads = 1;
  const ResultSet single = rv::engine::run_scenarios(work, options);
  // Cold, the four misses split over two shards; shard 1 owns misses 1
  // and 3.  Warm on item 1, the misses are {0, 2, 3}, and shard 1 owns
  // only the second of them, item 2: the hit never forks, so it is
  // never lost.
  struct Case {
    std::vector<std::size_t> warm;     ///< items computed beforehand
    std::vector<std::size_t> missing;  ///< global indices lost
  };
  for (const Case& c : {Case{{}, {1, 3}}, Case{{1}, {2}}}) {
    Scratch scratch;
    ScenarioCache cache;
    for (const std::size_t i : c.warm) {
      (void)rv::engine::run_scenarios({work[i]}, {1, &cache});
    }
    rv::engine::failpoint::arm("shard.worker.start=crash(87),index=1");
    const Execution ran =
        classify_and_execute(work, cache, exec_options(scratch.path, 2));
    rv::engine::failpoint::disarm_all();
    EXPECT_FALSE(ran.report.complete());
    EXPECT_EQ(ran.report.failed_shards(), (std::vector<std::size_t>{1}));
    EXPECT_EQ(ran.missing, c.missing);
    // The survivors are the single-process rows, hits included, and
    // only the lost misses are absent from the cache.
    ASSERT_EQ(ran.results.size(), work.size() - c.missing.size());
    EXPECT_EQ(ran.results.to_csv(),
              ResultSet(rv::engine::without_indices(single.records(),
                                                    c.missing))
                  .to_csv());
    EXPECT_EQ(cache.size(), work.size() - c.missing.size());
    EXPECT_TRUE(dir_entries(scratch.path).empty());
  }
}

TEST(ExecuteTest, FullyWarmRunForksNothing) {
  const std::vector<WorkItem> work =
      family_set(Family::kSearch).materialize_work();
  ScenarioCache warm;
  (void)rv::engine::run_scenarios(work, {1, &warm});
  Scratch scratch;
  // A forked child would crash; with no misses none is started.
  rv::engine::failpoint::arm("shard.worker.start=crash(87)");
  const Execution ran =
      classify_and_execute(work, warm, exec_options(scratch.path, 2));
  rv::engine::failpoint::disarm_all();
  EXPECT_TRUE(ran.report.shards.empty());
  EXPECT_TRUE(ran.missing.empty());
  EXPECT_EQ(ran.results.cache_stats().hits, work.size());
  EXPECT_EQ(ran.results.cache_stats().misses, 0u);
  EXPECT_TRUE(dir_entries(scratch.path).empty());
}

TEST(ExecuteTest, RejectsZeroProcs) {
  ScenarioCache cache;
  EXPECT_THROW((void)classify_and_execute({}, cache, exec_options("", 0)),
               std::invalid_argument);
}

TEST(ShardCacheTest, ForkedShardsReplayDuplicateCells) {
  // A set whose cells repeat: the repeats classify as hits, so only
  // the two distinct cells fork — one per child — and the parent
  // replays every copy from the folded cache, unchanged.
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
  const rv::engine::Classification plan = rv::engine::classify(work, &cache);
  EXPECT_EQ(plan.misses, (std::vector<std::size_t>{0, 1}));
  const Execution ran = rv::engine::execute(work, plan, cache,
                                            exec_options(scratch.path, 2));
  EXPECT_TRUE(ran.report.complete());
  EXPECT_EQ(ran.report.shards.size(), 2u);
  EXPECT_EQ(cache.size(), 2u);  // two distinct cells
  EXPECT_EQ(ran.results.to_csv(), want);
  EXPECT_EQ(ran.results.cache_stats().hits, 2u);
  EXPECT_EQ(ran.results.cache_stats().misses, 2u);
}

TEST(PersistMissesTest, WritesExactlyTheMissesToOneContentNamedFile) {
  const std::vector<WorkItem> work =
      family_set(Family::kLinear).materialize_work();
  Scratch scratch;
  ScenarioCache cache;
  (void)rv::engine::run_scenarios({work[0]}, {1, &cache});
  const rv::engine::Classification plan = rv::engine::classify(work, &cache);
  ASSERT_EQ(plan.misses.size(), 3u);
  (void)rv::engine::execute(work, plan, cache, exec_options(scratch.path, 1));
  const fs::path file =
      rv::engine::persist_misses(scratch.path, "a set/name", plan, cache);
  // `<sanitized set>-<16 hex digits>.rvcache`, holding the three misses
  // and not the hit.
  const std::string name = file.filename().string();
  EXPECT_EQ(name.rfind("a_set_name-", 0), 0u) << name;
  EXPECT_EQ(name.size(), std::string("a_set_name-").size() + 16 +
                             std::string(".rvcache").size())
      << name;
  EXPECT_EQ(rv::engine::list_cache_files(scratch.path),
            std::vector<fs::path>{file});
  ScenarioCache loaded;
  EXPECT_EQ(rv::engine::load_cache_file(file, &loaded).loaded, 3u);
  EXPECT_FALSE(loaded.contains(*plan.keys[0]));
  // The same misses name the same file; a run without misses writes
  // nothing.
  EXPECT_EQ(rv::engine::persist_misses(scratch.path, "a set/name", plan,
                                       cache),
            file);
  EXPECT_TRUE(rv::engine::persist_misses(scratch.path, "a set/name",
                                         rv::engine::classify(work, &cache),
                                         cache)
                  .empty());
  EXPECT_EQ(dir_entries(scratch.path).size(), 1u);
}

}  // namespace
