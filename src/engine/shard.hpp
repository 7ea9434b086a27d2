#pragma once

/// \file shard.hpp
/// Deterministic partitioning of a `ScenarioSet`'s work across
/// processes.
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
/// Reassembly is always a cache replay: each shard persists the
/// outcomes it owns to a cache file (engine/cache_store.hpp), the
/// files are loaded into one `ScenarioCache`, and the *full* set runs
/// warm, replaying every outcome (all hits, no recomputation) into the
/// single-process emission.  Cached outcomes replay bit-for-bit, so
/// any partition produces the same bytes.  The shard processes are
/// either separate `rv_batch run --shard s/N` invocations (merged by
/// `rv_batch merge`) or the children `run_forked` supervises — the one
/// forked-dispatch path behind `rv_batch run --procs` and `rv_serve
/// --procs`.

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

/// The canonical cache file name of one shard of a set:
/// `<set>-shard-<I>-of-<N>.rvcache` (a "<set>" placeholder stands in
/// when `set_name` is empty).  This is the file `rv_batch run --shard
/// I/N --cache-dir` writes and the one merge diagnostics point
/// operators at.
[[nodiscard]] std::string shard_file_name(const std::string& set_name,
                                          std::size_t shard,
                                          std::size_t num_shards);

/// Persists the outcomes `plan` owns from `cache` to `path`, but only
/// when `ran` (the plan's `run_shard` result) computed at least one
/// outcome.  A run that computed nothing replayed every item from
/// entries loaded from files still on disk, so skipping its write
/// loses nothing.  A run that did compute writes every owned outcome,
/// warm-loaded ones included, so rewriting a file never drops an
/// outcome whose only copy was in it.  Returns the number of outcomes
/// written (0: no file written).
std::size_t save_shard_file(const std::filesystem::path& path,
                            const std::vector<WorkItem>& work,
                            const ShardPlan& plan, const ResultSet& ran,
                            const ScenarioCache& cache);

/// Knobs of `run_forked`.
struct ForkOptions {
  std::filesystem::path dir;  ///< where the children leave shard files
  std::string set_name;       ///< shard-file stem (see shard_file_name)
  std::size_t procs = 1;      ///< child processes, one shard each
  /// The whole thread budget (0 = hardware concurrency); each child
  /// runs with max(1, budget / procs) threads.
  unsigned threads = 0;
  SupervisorOptions supervisor;  ///< retries / deadline / backoff
};

/// Runs `work` across `options.procs` forked children under
/// `supervise_shards`.  Child p fires the `shard.worker.start`
/// failpoint (index p), runs shard p/procs on its copy-on-write view
/// of `cache`, and saves what it owns to `dir / shard_file_name(
/// set_name, p, procs)` via `save_shard_file`.  The parent then folds
/// every shard file back into `cache` (first writer wins; a missing
/// file loads nothing) and returns the supervisor's report — the
/// caller replays `cache` and decides what a failed shard means.
/// \throws std::invalid_argument when procs == 0.
[[nodiscard]] SupervisorReport run_forked(const std::vector<WorkItem>& work,
                                          ScenarioCache& cache,
                                          const ForkOptions& options);

}  // namespace rv::engine
