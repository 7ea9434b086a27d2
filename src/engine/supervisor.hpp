#pragma once

/// \file supervisor.hpp
/// Process supervision for sharded runs: deadlines, retries with
/// exponential backoff, and a machine-readable failure report.
///
/// `supervise_shards` forks one child per shard (via a caller-supplied
/// `child_main`), polls them concurrently, kills a shard that
/// overruns its deadline, and retries failed shards — only the failed
/// ones — up to a bounded attempt budget with exponential backoff and
/// deterministic jitter.  Retrying a shard is safe by construction:
/// each shard hands its outcomes back in its own file of a private
/// per-run directory, writes publish by atomic rename, and folding is
/// first-writer-wins, so a half-done attempt leaves nothing a retry
/// cannot overwrite, and nothing any other run can see.
///
/// Its one caller is `engine::execute` (engine/shard.hpp), the
/// forked dispatch behind both `rv_batch run --procs` and `rv_serve
/// --procs`, so both report the same attempt taxonomy (success /
/// nonzero exit / signal / timeout / spawn failure).
///
/// Determinism note: the supervisor consults a wall clock for deadlines
/// and backoff pacing only — nothing it measures ever feeds emitted
/// bytes, which stay a pure function of the scenario inputs.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rv::engine {

struct SupervisorOptions {
  /// Extra attempts after the first failure (0 = fail fast).
  std::size_t retries = 0;
  /// Per-attempt deadline in seconds; a shard still running past it is
  /// SIGKILLed and counted as kTimeout.  0 disables deadlines.
  double timeout_sec = 0.0;
  /// Base backoff before attempt k+1: backoff_ms << (k-1), plus up to
  /// backoff_ms of deterministic jitter so retried shards do not
  /// stampede the cache directory in lockstep.
  std::uint64_t backoff_ms = 100;
  /// Seed of the jitter stream (mixed with shard id and attempt).
  std::uint64_t backoff_seed = 0;
};

enum class AttemptOutcome : std::uint8_t {
  kSuccess,       ///< exited 0
  kExitFailure,   ///< exited nonzero (code = exit status)
  kSignal,        ///< killed by a signal (code = signal number)
  kTimeout,       ///< overran timeout_sec; SIGKILLed by the supervisor
  kSpawnFailure,  ///< fork() itself failed (code = errno)
};

[[nodiscard]] const char* attempt_outcome_name(AttemptOutcome outcome);

struct ShardAttempt {
  AttemptOutcome outcome = AttemptOutcome::kSuccess;
  int code = 0;        ///< exit status / signal number / errno (see outcome)
  double elapsed_ms = 0.0;
};

struct ShardStatus {
  std::size_t shard = 0;
  bool succeeded = false;
  std::vector<ShardAttempt> attempts;
};

struct SupervisorReport {
  std::vector<ShardStatus> shards;

  /// True when every shard eventually succeeded.
  [[nodiscard]] bool complete() const;
  /// Shards whose attempt budget ran out, ascending.
  [[nodiscard]] std::vector<std::size_t> failed_shards() const;
  /// Global item indices of `total_items` owned by failed shards under
  /// the strided partition (item i belongs to shard i % shards.size(),
  /// engine/shard.hpp), ascending.
  [[nodiscard]] std::vector<std::size_t> missing_indices(
      std::size_t total_items) const;
  /// True when any attempt failed (even if a retry recovered it).
  [[nodiscard]] bool any_failures() const;
  /// Human-readable per-shard attempt/latency/exit-status table.
  [[nodiscard]] std::string table() const;
  /// Machine-readable coverage report: completeness, failed shards,
  /// `missing` — the global item indices of the `total_items` set they
  /// lost (`missing_indices(total_items)` when the shards split the
  /// whole set; `engine::execute`'s `missing` when they split only its
  /// misses) — and every attempt.
  [[nodiscard]] std::string to_json(
      std::size_t total_items, const std::vector<std::size_t>& missing) const;
};

/// `items` without the entries at `missing` (ascending indices, e.g.
/// `missing_indices`), the survivors kept in order — the subset a
/// partial reply or `rv_batch --partial` emits.
template <typename T>
[[nodiscard]] std::vector<T> without_indices(
    const std::vector<T>& items, const std::vector<std::size_t>& missing) {
  std::vector<T> kept;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!std::binary_search(missing.begin(), missing.end(), i)) {
      kept.push_back(items[i]);
    }
  }
  return kept;
}

/// Runs `child_main(shard)` in a forked child for each shard in
/// [0, num_shards), supervising per `options`.  `child_main`'s return
/// value becomes the child's exit status; an escaping exception is
/// reported on stderr and exits kExitFailure-style nonzero.  Returns
/// once every shard has succeeded or exhausted its attempts — the
/// caller decides whether a partial result is acceptable.
[[nodiscard]] SupervisorReport supervise_shards(
    std::size_t num_shards, const std::function<int(std::size_t)>& child_main,
    const SupervisorOptions& options = {});

}  // namespace rv::engine
