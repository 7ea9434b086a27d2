#include "engine/shard.hpp"

#include <stdlib.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "engine/cache_store.hpp"
#include "engine/failpoint.hpp"

namespace rv::engine {

ShardPlan shard_plan(std::size_t total, std::size_t shard,
                     std::size_t num_shards) {
  if (num_shards == 0) {
    throw std::invalid_argument("shard_plan: num_shards must be >= 1");
  }
  if (shard >= num_shards) {
    throw std::invalid_argument("shard_plan: shard " + std::to_string(shard) +
                                " out of range for " +
                                std::to_string(num_shards) + " shards");
  }
  ShardPlan plan;
  plan.shard = shard;
  plan.num_shards = num_shards;
  plan.total = total;
  for (std::size_t i = shard; i < total; i += num_shards) {
    plan.indices.push_back(i);
  }
  return plan;
}

std::vector<WorkItem> shard_work(const std::vector<WorkItem>& work,
                                 const ShardPlan& plan) {
  if (work.size() != plan.total) {
    throw std::invalid_argument(
        "shard_work: plan covers " + std::to_string(plan.total) +
        " items but the work list has " + std::to_string(work.size()));
  }
  std::vector<WorkItem> subset;
  subset.reserve(plan.indices.size());
  for (const std::size_t i : plan.indices) subset.push_back(work[i]);
  return subset;
}

ResultSet run_shard(const std::vector<WorkItem>& work, const ShardPlan& plan,
                    RunnerOptions options) {
  // Chaos site: lets the supervisor tests kill/delay a specific shard
  // after planning but before any scenario executes.
  RV_FAILPOINT_AT("shard.worker.mid_run", plan.shard);
  return run_scenarios(shard_work(work, plan), options);
}

std::string shard_file_name(const std::string& set_name, std::size_t shard,
                            std::size_t num_shards) {
  return (set_name.empty() ? std::string("<set>") : set_name) + "-shard-" +
         std::to_string(shard) + "-of-" + std::to_string(num_shards) +
         kCacheFileExtension;
}

namespace {

/// File-name-safe set name for persistence files.
std::string sanitize_name(const std::string& name) {
  std::string out = name.empty() ? "inline" : name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// A private hand-off directory, removed when the parent leaves
/// `fork_misses` (children `_exit` without running destructors).  Its
/// name does not end in `.rvcache`, so `list_cache_files` skips it; one
/// left by a killed parent is reclaimed by `compact_cache_dir`.
class HandoffDir {
 public:
  explicit HandoffDir(const std::filesystem::path& dir)
      : path_((dir / (std::string(kHandoffPrefix) + "XXXXXX")).string()) {
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::runtime_error("execute: cannot create a hand-off directory "
                               "in '" + dir.string() + "'");
    }
  }
  ~HandoffDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  HandoffDir(const HandoffDir&) = delete;
  HandoffDir& operator=(const HandoffDir&) = delete;

  [[nodiscard]] std::filesystem::path file(std::size_t p) const {
    return std::filesystem::path(path_) /
           (std::to_string(p) + kCacheFileExtension);
  }

 private:
  std::string path_;
};

/// Forks the misses of `work` strided over `options.procs` children and
/// folds what they computed into `cache`.
SupervisorReport fork_misses(const std::vector<WorkItem>& work,
                             const std::vector<std::size_t>& misses,
                             ScenarioCache& cache,
                             const ExecOptions& options) {
  const std::size_t procs = options.procs;
  // Split the budget: P children each taking all of it would
  // oversubscribe the box P-fold.
  const std::size_t budget = options.threads != 0
                                 ? options.threads
                                 : std::thread::hardware_concurrency();
  const auto child_threads =
      static_cast<unsigned>(std::max<std::size_t>(1, budget / procs));
  std::vector<WorkItem> miss_work;
  miss_work.reserve(misses.size());
  for (const std::size_t i : misses) miss_work.push_back(work[i]);
  const HandoffDir handoff(options.dir);
  const auto child_main = [&](std::size_t p) -> int {
    // Chaos site: crash/delay/error a worker at its very first
    // instruction — the supervisor must detect and retry it.
    RV_FAILPOINT_AT("shard.worker.start", p);
    ScenarioCache own;
    (void)run_shard(miss_work, shard_plan(miss_work.size(), p, procs),
                    {child_threads, &own});
    // The parent's persist_misses is the durable record; a hand-off
    // lost to a crash is recomputed, so it skips the fsyncs.
    if (own.size() > 0) {
      save_cache_file(handoff.file(p), own, /*durable=*/false);
    }
    return 0;
  };
  SupervisorReport report =
      supervise_shards(procs, child_main, options.supervisor);
  for (std::size_t p = 0; p < procs; ++p) {
    (void)load_cache_file(handoff.file(p), &cache);
  }
  return report;
}

}  // namespace

Execution execute(const std::vector<WorkItem>& work,
                  const Classification& classification, ScenarioCache& cache,
                  const ExecOptions& options) {
  if (options.procs == 0) {
    throw std::invalid_argument("execute: procs must be >= 1");
  }
  Execution out;
  const std::vector<std::size_t>& misses = classification.misses;
  if (options.procs > 1 && !misses.empty()) {
    out.report = fork_misses(work, misses, cache, options);
    for (const std::size_t j : out.report.missing_indices(misses.size())) {
      out.missing.push_back(misses[j]);
    }
  }
  const RunnerOptions run{options.threads, &cache};
  if (out.missing.empty()) {
    out.results = run_scenarios(work, classification, run);
  } else {
    // Only the survivors, in global-index order, so the emitted subset
    // is byte-identical to the corresponding rows of the full document.
    out.results = run_scenarios(without_indices(work, out.missing), run);
    out.results.set_cache_stats(classification.stats);
  }
  return out;
}

std::filesystem::path persist_misses(const std::filesystem::path& dir,
                                     const std::string& set_name,
                                     const Classification& classification,
                                     const ScenarioCache& cache) {
  if (classification.misses.empty()) return {};
  ScenarioCache own;
  ScenarioCache::Entry entry;
  for (const std::size_t i : classification.misses) {
    const std::string& key = *classification.keys[i];
    if (cache.lookup(key, &entry)) own.store(key, std::move(entry));
  }
  if (own.size() == 0) return {};
  // The file is named by its content, so two runs sharing a set name
  // (every inline body without `name =` is "inline") write two files
  // instead of replacing each other's outcomes.
  std::uint64_t hash = fnv1a64({});
  for (const auto& [key, outcome] : own.snapshot()) {
    const std::uint64_t size = key.size();
    hash = fnv1a64({reinterpret_cast<const char*>(&size), sizeof size}, hash);
    hash = fnv1a64(key, hash);
  }
  std::string hex(16, '0');
  for (std::size_t i = hex.size(); i-- > 0; hash >>= 4) {
    hex[i] = "0123456789abcdef"[hash & 0xf];
  }
  const std::filesystem::path path =
      dir / (sanitize_name(set_name) + "-" + hex + kCacheFileExtension);
  save_cache_file(path, own);
  return path;
}

}  // namespace rv::engine
