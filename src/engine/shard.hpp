#pragma once

/// \file shard.hpp
/// Deterministic partitioning of a `ScenarioSet`'s work across
/// processes, and the one execute function and persistence rule every
/// front-end (`rv_batch run`, `rv_serve`) goes through.
///
/// A `ScenarioSet` materialises into a fixed, documented work-item
/// order (engine/scenario_set.hpp), and `ResultSet` emission is a pure
/// function of the records in that order.  Sharding exploits exactly
/// that: `shard_plan(total, s, N)` assigns every *global item index*
/// `i` with `i % N == s` to shard `s` — a stable, input-independent
/// rule — so any partition of the grid can be executed anywhere (other
/// threads, other processes, other machines) and reassembled by global
/// index into the **byte-identical** single-process table/CSV/JSON.
///
/// Reassembly is always a cache replay: a run persists the outcomes it
/// computed (`persist_misses`), the files are loaded into one
/// `ScenarioCache`, and the *full* set runs warm, replaying every
/// outcome (all hits, no recomputation) into the single-process
/// emission.  Cached outcomes replay bit-for-bit, so any partition
/// produces the same bytes.  The shard processes are either separate
/// `rv_batch run --shard s/N` invocations (merged by `rv_batch merge`)
/// or the children `execute` forks over a run's misses.

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/families.hpp"
#include "engine/runner.hpp"
#include "engine/scenario_set.hpp"
#include "engine/supervisor.hpp"

namespace rv::engine {

/// The work-item indices one shard owns.
struct ShardPlan {
  std::size_t shard = 0;       ///< this shard's id in [0, num_shards)
  std::size_t num_shards = 1;  ///< total shards of the partition
  std::size_t total = 0;       ///< work items in the full set
  /// Global indices owned by this shard, ascending (i % num_shards ==
  /// shard).  The strided rule interleaves neighbouring grid cells —
  /// which tend to cost alike — across shards, so shards balance
  /// without a cost model.
  std::vector<std::size_t> indices;
};

/// Builds the plan of shard `shard` of `num_shards` over `total` items.
/// \throws std::invalid_argument when num_shards == 0 or shard >=
/// num_shards.  (num_shards > total is fine: trailing shards are
/// empty.)
[[nodiscard]] ShardPlan shard_plan(std::size_t total, std::size_t shard,
                                   std::size_t num_shards);

/// The sub-list of `work` owned by `plan`, in plan (ascending global
/// index) order.  \throws std::invalid_argument when the plan's total
/// does not match `work.size()`.
[[nodiscard]] std::vector<WorkItem> shard_work(
    const std::vector<WorkItem>& work, const ShardPlan& plan);

/// Runs only the plan's items (records come back in plan order).
[[nodiscard]] ResultSet run_shard(const std::vector<WorkItem>& work,
                                  const ShardPlan& plan,
                                  RunnerOptions options = {});

/// `<set>-shard-<I>-of-<N>.rvcache` (a "<set>" placeholder stands in
/// when `set_name` is empty): the positional shard-file name of earlier
/// releases.  The engine no longer writes it; directories holding such
/// files still load like any other.
[[nodiscard]] std::string shard_file_name(const std::string& set_name,
                                          std::size_t shard,
                                          std::size_t num_shards);

/// Knobs of `execute`.
struct ExecOptions {
  /// The cache directory; forked children hand off inside it, in a
  /// private `.handoff-XXXXXX/` directory no loader lists.
  std::filesystem::path dir;
  std::size_t procs = 1;  ///< child processes over the misses; 1 = none
  /// The whole thread budget (0 = hardware concurrency); each child
  /// runs with max(1, budget / procs) threads.
  unsigned threads = 0;
  SupervisorOptions supervisor;  ///< retries / deadline / backoff
};

/// What `execute` produced.
struct Execution {
  /// Every item, or the survivors when shards failed, carrying the
  /// classification's counts.
  ResultSet results;
  /// Global indices of the misses failed shards lost, ascending.
  std::vector<std::size_t> missing;
  SupervisorReport report;  ///< the children's attempts, if any forked
};

/// Runs `work` as `classification` (from `classify(work, &cache)`)
/// decided.  With procs > 1, only the misses fork, strided over the
/// children under `supervise_shards`; child p fires the
/// `shard.worker.start` failpoint (index p), computes into a fresh cache
/// (another thread may hold `cache`'s mutex at fork time) and hands off
/// without fsync, and the parent folds the hand-offs into `cache`.  One
/// `run_scenarios` pass then computes what is still missing and replays
/// the rest, byte-identical to a single-process run.  Persists nothing.
/// \throws std::invalid_argument when procs == 0.
[[nodiscard]] Execution execute(const std::vector<WorkItem>& work,
                                const Classification& classification,
                                ScenarioCache& cache,
                                const ExecOptions& options);

/// The one persistence rule: saves the outcomes of the misses found in
/// `cache` (a lost miss has none) to one fsynced, content-named
/// `dir / <set>-<hash>.rvcache` (`<hash>`: 16 hex digits of FNV-1a over
/// the saved keys).  Hits came from disk and are not saved again.
/// Returns the file, or an empty path when none was written; with no
/// misses it touches nothing.  Callers in one process must serialise
/// it (the temp file name is per-pid).
std::filesystem::path persist_misses(const std::filesystem::path& dir,
                                     const std::string& set_name,
                                     const Classification& classification,
                                     const ScenarioCache& cache);

}  // namespace rv::engine
