#pragma once

/// \file runner.hpp
/// Deterministic parallel execution of a `ScenarioSet` and structured
/// aggregation of the outcomes, for every workload family.
///
/// `run_scenarios` materialises the set, fans the work items out across
/// a pool of worker threads (work-stealing by atomic index), and stores
/// each outcome at its item's index.  Because results are placed by
/// index — never by completion order — and every emitter formats
/// through the deterministic `io` helpers, the rendered table, CSV and
/// JSON are **byte-identical regardless of thread count**.  Work items
/// are independent (the library keeps no global mutable state), so the
/// sweep parallelises embarrassingly; the search family's
/// worst-over-angles reduction runs inside its item, in ring order.
///
/// `ResultSet` is the io::Table-backed aggregate.  Every format lists
/// the same columns in the same order: the label (when any record has
/// one), the family's standard columns (its `FamilyDescriptor` schema
/// in engine/families.cpp, the one place their names and formats are
/// defined), then caller-supplied derived columns (bounds, ratios,
/// certificates) computed from each record.  Emission requires a
/// homogeneous family; mixed runs are split per family with
/// `filtered()`.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/families.hpp"
#include "engine/scenario_set.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "rendezvous/core.hpp"

namespace rv::engine {

/// Thread-safe memoization of work-item outcomes, keyed by the
/// scenario content key (`engine::cache_key`).  A cache outlives
/// individual `run_scenarios` calls, so repeated cells — across grid
/// cells of one run or across repeated runs — are computed once and
/// replayed from memory with identical outcomes (the cached outcome
/// *is* the computed outcome, including eval/segment counters, so all
/// emitted tables/CSV/JSON are byte-identical with the cache on or
/// off).
///
/// Safe whenever outcomes are pure functions of the keyed content:
/// always true for the built-in algorithm programs; custom program
/// factories must be deterministic and carry a unique `program_name`
/// (anonymous factories are uncacheable and always recomputed — see
/// `cache_key`).  Disable caching by leaving `RunnerOptions::cache`
/// null (the default).
class ScenarioCache {
 public:
  /// One memoized outcome, of the family named by the key's leading
  /// byte.
  using Entry = CellOutcome;

  /// Copies the entry stored under `key` into `*out`; false if absent.
  [[nodiscard]] bool lookup(const std::string& key, Entry* out) const;
  /// True iff an entry is stored under `key` (no copy — the membership
  /// probe `classify` decides hits with).
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Stores the entry under `key` (first writer wins on a race — both
  /// writers computed identical outcomes).  Returns true when the key
  /// was new, false when an entry was already present (left alone).
  bool store(const std::string& key, Entry entry);

  /// Every (key, entry) pair, sorted by key bytes.  The deterministic
  /// export used by `engine::save_cache_file`: two caches holding the
  /// same entries snapshot identically regardless of insertion order.
  [[nodiscard]] std::vector<std::pair<std::string, Entry>> snapshot() const;

  /// Number of memoized outcomes.
  [[nodiscard]] std::size_t size() const;
  /// Drops every memoized outcome.
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> map_;
};

/// Hit/miss counters of one run, decided by `classify` before any
/// worker starts (all zero without a cache).  An item with no content
/// key is uncacheable; an item is a hit when its key is cached as the
/// run starts or an earlier item of the run has it; every other item
/// is a miss, computed exactly once.
struct CacheStats {
  std::uint64_t hits = 0;         ///< items replayed from the cache
  std::uint64_t misses = 0;       ///< cacheable items computed (and stored)
  std::uint64_t uncacheable = 0;  ///< items with no content key
};

/// One run's hit/miss decision over a work list.
struct Classification {
  /// Per-item content keys (nullopt: uncacheable); empty without a
  /// cache, when nothing is keyed and every item computes.
  std::vector<std::optional<std::string>> keys;
  std::vector<std::size_t> misses;  ///< indices of the misses, ascending
  CacheStats stats;
};

/// Keys each item of `work` once and classifies it against `cache`
/// (null: nothing keyed, all counts zero).
[[nodiscard]] Classification classify(const std::vector<WorkItem>& work,
                                      const ScenarioCache* cache);

/// Parallelism + memoization controls.
struct RunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Scenario result cache; null (default) disables memoization.  The
  /// caller owns the cache and may share one instance across runs.
  ScenarioCache* cache = nullptr;
};

// RunRecord — one executed work item — lives in engine/families.hpp,
// next to the cells and outcomes it aggregates.

/// A derived column: name plus a per-record formatter.
struct Column {
  std::string name;
  std::function<std::string(const RunRecord&)> value;
};

/// Ordered, structured results of a sweep with table/CSV/JSON emission.
class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(std::vector<RunRecord> records);

  [[nodiscard]] const std::vector<RunRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] auto begin() const { return records_.begin(); }
  [[nodiscard]] auto end() const { return records_.end(); }
  [[nodiscard]] const RunRecord& operator[](std::size_t i) const {
    return records_[i];
  }

  /// Cache hit/miss counters of the run that produced this set (all
  /// zero without a cache; copied through by `filtered`).
  [[nodiscard]] const CacheStats& cache_stats() const {
    return cache_stats_;
  }
  /// Attaches the producing run's counters (called by the runner).
  void set_cache_stats(const CacheStats& stats) { cache_stats_ = stats; }

  /// Names the family whose columns emission uses (by default the
  /// first record's, or rendezvous for an empty set), so that a set
  /// that ran no item (an empty shard, a partial run that lost every
  /// item) still emits its own family's header.
  void set_family(Family family) { family_ = family; }

  /// The subset of records belonging to `family` (for emitting mixed
  /// runs one family at a time).
  [[nodiscard]] ResultSet filtered(Family family) const;

  /// The column names every format uses: "label" (only when any record
  /// has one), the family's standard columns, the extras.
  /// \throws std::logic_error when a record is not of the set's
  /// family.
  [[nodiscard]] io::CsvRow csv_header(
      const std::vector<Column>& extras = {}) const;
  /// Full CSV document (header + one row per record, in order).
  [[nodiscard]] std::string to_csv(
      const std::vector<Column>& extras = {}) const;
  /// JSON array of row objects keyed by column name.  Strict RFC 8259:
  /// numeric fields are emitted as JSON numbers (non-finite values as
  /// null), met/feasible/contact/gathered as booleans, labels with
  /// control characters escaped.
  [[nodiscard]] std::string to_json(
      const std::vector<Column>& extras = {}) const;
  /// io::Table with the standard + extra columns (for console reports).
  [[nodiscard]] io::Table to_table(const std::vector<Column>& extras = {},
                                   int precision = 4) const;

 private:
  /// The standard columns of `family_`, after checking every record
  /// belongs to it.  \throws std::logic_error otherwise.
  [[nodiscard]] std::span<const SchemaColumn> schema() const;

  std::vector<RunRecord> records_;
  Family family_ = Family::kRendezvous;
  bool any_label_ = false;
  CacheStats cache_stats_;
};

/// \throws std::invalid_argument unless `format` is "csv", "json" or
/// "table" (front-ends call it before any work).
void check_format(std::string_view format);

/// The document a client asked for: `to_csv()`, `to_json()`, or the
/// ASCII rendering of `to_table()`, for `format` = "csv" / "json" /
/// "table".  \throws std::invalid_argument for any other format.
[[nodiscard]] std::string render(const ResultSet& results,
                                 std::string_view format);

/// Runs every work item in the set (all families) and aggregates the
/// outcomes in materialisation order.  Worker exceptions are re-thrown
/// (first by index) after the pool joins.
[[nodiscard]] ResultSet run_scenarios(const ScenarioSet& set,
                                      RunnerOptions options = {});

/// Same, for an already-materialised multi-family work list.
[[nodiscard]] ResultSet run_scenarios(const std::vector<WorkItem>& work,
                                      RunnerOptions options = {});

/// Runs `work` as `classification` (from `classify` over the same
/// list) decided: the misses first, then every other item replays by
/// lookup.  A miss whose key reached the cache meanwhile (forked
/// children, a concurrent run) replays too.  The result carries the
/// classification's counts.
[[nodiscard]] ResultSet run_scenarios(const std::vector<WorkItem>& work,
                                      const Classification& classification,
                                      RunnerOptions options);

}  // namespace rv::engine
