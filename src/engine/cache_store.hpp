#pragma once

/// \file cache_store.hpp
/// Persistent on-disk storage for `engine::ScenarioCache`.
///
/// PR 3's result cache memoizes work-item outcomes *within* a process,
/// keyed by the canonical content key (`engine::cache_key`).  This
/// layer makes those entries survive the process: a **cache file** is
/// an append-only sequence of (key, outcome payload) records with a
/// versioned header, written deterministically (entries sorted by key
/// bytes) and loaded tolerantly (a truncated or corrupted record is
/// skipped — byte-resynchronising on the next record magic — and never
/// crashes the reader).  Because the cached outcome *is* the computed
/// outcome down to eval/segment counters, a run replaying entries
/// loaded from disk emits table/CSV/JSON byte-identical to the run
/// that produced them — the property the sharded `rv_batch` front-end
/// is built on (see engine/shard.hpp and tools/rv_batch.cpp).
///
/// File format (all integers little-endian on every supported target —
/// raw `memcpy` of fixed-width types; doubles are raw IEEE-754 bytes so
/// values round-trip exactly):
///
///     file   := header record*
///     header := "RVCACHE\x01"                      (8 bytes: magic+format)
///               u32 engine epoch (`kEngineCacheEpoch`)
///     record := u32 magic = 0x52435245 ("ERCR")
///               u32 key_size
///               u32 payload_size
///               key_size bytes of cache_key
///               payload_size bytes of outcome payload
///               u64 fnv1a64(key bytes + payload bytes)
///
/// The payload encodes the one outcome an entry holds, with the codec
/// of the key's family (its leading byte, 'R'/'S'/'G'/'L'/'C' — see
/// `engine::cache_key` and `FamilyDescriptor`).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "engine/runner.hpp"

namespace rv::engine {

/// Conventional extension of cache files inside a cache directory.
inline constexpr const char* kCacheFileExtension = ".rvcache";

/// Name prefix of the private hand-off directories (`.handoff-XXXXXX/`)
/// that `execute` makes inside a cache dir for its forked children.
inline constexpr const char* kHandoffPrefix = ".handoff-";

/// A hand-off directory older than this (by mtime, which each child's
/// hand-off refreshes) was left by a parent killed mid-run: a parent
/// removes its own once the children are folded, far sooner than this.
/// `compact_cache_dir` reclaims it.
inline constexpr std::chrono::hours kStaleHandoffAge{24};

/// Engine generation stamped into every cache file header.  Cache keys
/// encode scenario *inputs*, not engine behaviour — so when an engine
/// change alters any computed outcome (algorithm trajectories, sweep
/// certification, counters), old files must not replay as current
/// results.  **Bump this constant with any such change**: readers
/// reject files from other epochs (counted as `bad_files`) and the
/// outcomes are recomputed and re-persisted on the next run.
inline constexpr std::uint32_t kEngineCacheEpoch = 1;

/// FNV-1a 64-bit over `bytes`, continuing from `hash` (the FNV offset
/// basis by default).  Record checksums and the content-addressed
/// names of `rv_serve` persistence files both use it.
[[nodiscard]] std::uint64_t fnv1a64(
    std::string_view bytes, std::uint64_t hash = 0xcbf29ce484222325ull);

/// What `load_cache_file` / `load_cache_dir` found.
struct CacheLoadStats {
  std::size_t files = 0;       ///< cache files opened successfully
  std::size_t loaded = 0;      ///< records decoded and stored
  std::size_t duplicates = 0;  ///< records whose key was already present
  std::size_t skipped = 0;     ///< corrupt/truncated records skipped
  std::size_t bad_files = 0;   ///< files missing or with a bad header

  /// Merges another load's counters into this one.
  void add(const CacheLoadStats& other);
};

/// Serializes the payload of `entry` for `key` (family = key's leading
/// byte).  \throws std::invalid_argument when the key is empty, its
/// family byte is unknown, or `entry` holds another family's outcome.
[[nodiscard]] std::string serialize_entry(const std::string& key,
                                          const ScenarioCache::Entry& entry);

/// Decodes a payload produced by `serialize_entry` back into `*entry`.
/// Returns false (leaving `*entry` unspecified) on a malformed payload
/// — short buffers, trailing bytes, unknown family — so corrupt
/// records are skipped rather than trusted.
[[nodiscard]] bool deserialize_entry(const std::string& key,
                                     std::string_view payload,
                                     ScenarioCache::Entry* entry);

/// Writes every entry of `cache` to `path` (header + one record per
/// entry, sorted by key bytes — byte-identical output for equal
/// contents).  The write is atomic-by-rename: concurrent readers see
/// either the old file or the complete new one, never a torn write.
/// `durable = false` skips the fsyncs of the file and the directory,
/// for hand-offs whose loss costs only a recomputation (freeing a
/// just-fsynced file can take tens of ms on a `discard` mount).
/// \throws std::runtime_error when the file cannot be written.
void save_cache_file(const std::filesystem::path& path,
                     const ScenarioCache& cache, bool durable = true);

/// The `*.rvcache` files directly inside `dir`, sorted by path — the
/// exact list (and order) `load_cache_dir` loads.  A missing directory
/// yields an empty list.
[[nodiscard]] std::vector<std::filesystem::path> list_cache_files(
    const std::filesystem::path& dir);

/// Loads the records of one cache file into `cache` (first writer wins:
/// keys already present are counted as `duplicates` and left alone).
/// Never throws on *content*: a missing file or bad header counts as
/// `bad_files`, a corrupt or truncated record as `skipped`.
CacheLoadStats load_cache_file(const std::filesystem::path& path,
                               ScenarioCache* cache);

/// Loads every `*.rvcache` file directly inside `dir` (sorted by file
/// name, so merges are deterministic) into `cache`.  A missing
/// directory simply loads nothing.
CacheLoadStats load_cache_dir(const std::filesystem::path& dir,
                              ScenarioCache* cache);

/// Merges cache files: loads every input (in order, first writer wins
/// per key) and saves the union to `output`.  Returns the combined
/// load counters; when `per_file` is non-null it receives one
/// `CacheLoadStats` per input, in input order (so callers can tell
/// which file a `bad_files` or `skipped` count came from).
///
/// `output` may alias one of `inputs`: every input is fully loaded
/// into memory *before* the save starts, and the save itself is
/// atomic-by-rename (written to a temp file, fsynced, renamed), so an
/// aliased input is read in its entirety and then replaced in one
/// step — never read and rewritten concurrently.  `compact_cache_dir`
/// relies on this when re-compacting a directory whose previous
/// `compact.rvcache` is among the inputs (pinned in
/// tests/test_cache_store.cpp).  \throws std::runtime_error when
/// `output` cannot be written.
CacheLoadStats merge_cache_files(
    const std::vector<std::filesystem::path>& inputs,
    const std::filesystem::path& output,
    std::vector<CacheLoadStats>* per_file = nullptr);

/// Options of `compact_cache_dir`.
struct CompactOptions {
  /// When > 0, inputs whose mtime is older than this many days are
  /// evicted (deleted without being merged).
  double max_age_days = 0.0;
  /// When > 0, a byte budget over the surviving inputs: files are
  /// evicted **oldest first** (by mtime, ties broken by path — a
  /// deterministic victim order) until the remaining inputs fit.
  std::uintmax_t max_bytes = 0;
  /// File name of the merged output inside the directory.
  std::string output_name = "compact.rvcache";
};

/// What `compact_cache_dir` did, file by file.
struct CompactResult {
  /// What happened to one input file.
  enum class Disposition {
    kMerged,         ///< loaded and folded into the output
    kDroppedBad,     ///< bad header / wrong engine epoch — deleted unmerged
    kEvictedAge,     ///< older than `max_age_days` — deleted unmerged
    kEvictedBudget,  ///< evicted oldest-first to fit `max_bytes`
  };
  struct FileReport {
    std::filesystem::path path;
    Disposition disposition = Disposition::kMerged;
    /// Per-file load counters (meaningful for kMerged/kDroppedBad;
    /// evicted files are never opened).
    CacheLoadStats stats;
  };
  /// Every input file: merged/dropped ones first (in load order, i.e.
  /// sorted by file name), then age evictions, then budget evictions
  /// (each oldest first).
  std::vector<FileReport> files;
  CacheLoadStats stats;            ///< combined counters over loaded inputs
  std::size_t entries = 0;         ///< distinct keys written to the output
  std::uintmax_t output_bytes = 0; ///< size of the written output file
  std::filesystem::path output;    ///< `dir / options.output_name`
  /// Hand-off directories older than `kStaleHandoffAge`, sorted; never
  /// loaded, removed by `remove_compacted_inputs`.
  std::vector<std::filesystem::path> stale_handoffs;
};

/// Compacts a cache directory in place: evicts inputs per
/// `CompactOptions` (age first, then the byte budget, oldest first),
/// merges every surviving `*.rvcache` file in sorted-file-name order
/// (first writer wins per key — the same order and dedupe rule as
/// `load_cache_dir`, so a warm run loads identical entries before and
/// after) and publishes the union as `options.output_name`.  Files with
/// a bad header or a wrong engine epoch are dropped (never merged).
/// The previous output file, when present, is just another input —
/// re-compacting is idempotent.  The inputs stay on disk until
/// `remove_compacted_inputs(result)`: loaders tolerate the duplicates
/// meanwhile, and `rv_serve` deletes them after releasing the lock its
/// persistence shares with compaction.  It also lists the stale
/// hand-off directories (`stale_handoffs`) for that removal.
/// \throws std::runtime_error when `dir` is not a directory or the
/// output cannot be written.
CompactResult compact_cache_dir(const std::filesystem::path& dir,
                                const CompactOptions& options = {});

/// Deletes every input `result` reports — merged, dropped or evicted —
/// except the output itself, and every stale hand-off directory.  An
/// input already gone is skipped.
void remove_compacted_inputs(const CompactResult& result);

}  // namespace rv::engine
