#include "engine/shard.hpp"

#include <algorithm>
#include <optional>
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

std::size_t save_shard_file(const std::filesystem::path& path,
                            const std::vector<WorkItem>& work,
                            const ShardPlan& plan, const ResultSet& ran,
                            const ScenarioCache& cache) {
  if (ran.cache_stats().misses == 0) return 0;
  ScenarioCache own;
  ScenarioCache::Entry entry;
  for (const std::size_t i : plan.indices) {
    const std::optional<std::string> key = cache_key(work[i]);
    if (key && cache.lookup(*key, &entry)) own.store(*key, std::move(entry));
  }
  save_cache_file(path, own);
  return own.size();
}

SupervisorReport run_forked(const std::vector<WorkItem>& work,
                            ScenarioCache& cache, const ForkOptions& options) {
  const std::size_t procs = options.procs;
  if (procs == 0) throw std::invalid_argument("run_forked: procs must be >= 1");
  // Split the budget: P children each taking all of it would
  // oversubscribe the box P-fold.
  const std::size_t budget = options.threads != 0
                                 ? options.threads
                                 : std::thread::hardware_concurrency();
  const auto child_threads =
      static_cast<unsigned>(std::max<std::size_t>(1, budget / procs));
  const auto shard_path = [&](std::size_t p) {
    return options.dir / shard_file_name(options.set_name, p, procs);
  };
  const auto child_main = [&](std::size_t p) -> int {
    // Chaos site: crash/delay/error a worker at its very first
    // instruction — the supervisor must detect and retry it.
    RV_FAILPOINT_AT("shard.worker.start", p);
    const ShardPlan plan = shard_plan(work.size(), p, procs);
    const ResultSet ran = run_shard(work, plan, {child_threads, &cache});
    (void)save_shard_file(shard_path(p), work, plan, ran, cache);
    return 0;
  };
  SupervisorReport report =
      supervise_shards(procs, child_main, options.supervisor);
  for (std::size_t p = 0; p < procs; ++p) {
    (void)load_cache_file(shard_path(p), &cache);
  }
  return report;
}

}  // namespace rv::engine
