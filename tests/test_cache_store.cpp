// Tests for the persistent ScenarioCache store (engine/cache_store):
// exact payload round-trips for all five outcome families, deterministic
// file bytes, corruption tolerance (truncated files, flipped bytes, bad
// headers — skip, never crash), merge semantics, and cross-run hit
// counting through a file (the single-machine model of the cross-process
// hand-off rv_batch performs).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "engine/cache_store.hpp"
#include "engine/failpoint.hpp"
#include "engine/families.hpp"
#include "engine/runner.hpp"
#include "engine/scenario_set.hpp"

namespace {

namespace fs = std::filesystem;
using rv::engine::CacheLoadStats;
using rv::engine::ScenarioCache;

/// Bit-exact double comparison: NaNs with equal payloads compare equal,
/// +0.0 and -0.0 do not — exactly what "replayed outcomes emit the same
/// bytes" requires.
bool same_bits(double a, double b) {
  std::uint64_t ab = 0, bb = 0;
  std::memcpy(&ab, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ab == bb;
}

/// Fresh scratch directory per test, removed on destruction.
struct Scratch {
  fs::path path;
  Scratch() {
    path = fs::temp_directory_path() / "rv_cache_store_XXXXXX";
    std::string buffer = path.string();
    EXPECT_NE(mkdtemp(buffer.data()), nullptr);
    path = buffer;
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

rv::sim::SimResult sample_sim_result() {
  rv::sim::SimResult sim;
  sim.met = true;
  sim.time = 12.3456789012345;
  sim.distance = 0.05;
  sim.min_distance = 0.0125;
  sim.min_distance_time = 11.5;
  sim.position1 = {1.25, -2.5};
  sim.position2 = {1.3, -2.45};
  sim.evals = 421;
  sim.segments = 97;
  return sim;
}

/// Serialize → deserialize under `key` and require success.
ScenarioCache::Entry round_trip(const std::string& key,
                                const ScenarioCache::Entry& entry) {
  const std::string payload = rv::engine::serialize_entry(key, entry);
  ScenarioCache::Entry decoded;
  EXPECT_TRUE(rv::engine::deserialize_entry(key, payload, &decoded))
      << "family byte: " << key[0];
  return decoded;
}

TEST(CacheStoreSerialization, RendezvousOutcomeRoundTripsExactly) {
  rv::rendezvous::Outcome outcome;
  outcome.sim = sample_sim_result();
  outcome.feasibility = rv::rendezvous::classify(
      rv::geom::reference_attributes());
  outcome.initial_distance = -0.0;  // sign must survive
  outcome.algorithm_name = "algorithm7";

  const auto decoded =
      std::get<rv::rendezvous::Outcome>(round_trip("R-key", outcome));
  EXPECT_EQ(decoded.sim.met, outcome.sim.met);
  EXPECT_TRUE(same_bits(decoded.sim.time, outcome.sim.time));
  EXPECT_TRUE(same_bits(decoded.sim.position2.y, outcome.sim.position2.y));
  EXPECT_EQ(decoded.sim.evals, outcome.sim.evals);
  EXPECT_EQ(decoded.sim.segments, outcome.sim.segments);
  EXPECT_EQ(decoded.feasibility, outcome.feasibility);
  EXPECT_TRUE(same_bits(decoded.initial_distance, -0.0));
  EXPECT_EQ(decoded.algorithm_name, "algorithm7");
}

TEST(CacheStoreSerialization, AnEntryHoldsOneOutcome) {
  // An entry is the largest outcome plus the variant's index, not all
  // five outcomes side by side: every hit copies exactly one.
  const std::size_t largest = std::max(
      {sizeof(rv::rendezvous::Outcome), sizeof(rv::engine::SearchOutcome),
       sizeof(rv::engine::GatherOutcome), sizeof(rv::engine::LinearOutcome),
       sizeof(rv::engine::CoverageOutcome)});
  EXPECT_LE(sizeof(ScenarioCache::Entry), largest + alignof(std::max_align_t));
}

TEST(CacheStoreSerialization, RejectsUnknownFamilyAndTrailingBytes) {
  const ScenarioCache::Entry entry = rv::engine::LinearOutcome{};
  EXPECT_THROW((void)rv::engine::serialize_entry("", entry),
               std::invalid_argument);
  EXPECT_THROW((void)rv::engine::serialize_entry("Xkey", entry),
               std::invalid_argument);
  // An entry is serialized only under a key of its own family.
  EXPECT_THROW((void)rv::engine::serialize_entry("R-key", entry),
               std::invalid_argument);

  ScenarioCache::Entry decoded;
  EXPECT_FALSE(rv::engine::deserialize_entry("Xkey", "abc", &decoded));
  // A valid payload with appended garbage is corrupt, not "close enough".
  std::string payload = rv::engine::serialize_entry("L-key", entry);
  payload += '\0';
  EXPECT_FALSE(rv::engine::deserialize_entry("L-key", payload, &decoded));
  // A truncated payload is corrupt too.
  payload = rv::engine::serialize_entry("L-key", entry);
  payload.pop_back();
  EXPECT_FALSE(rv::engine::deserialize_entry("L-key", payload, &decoded));
}

TEST(CacheStoreSerialization, RejectsCoverageCountLargerThanPayload) {
  // A crafted 'C' payload claiming a huge series count must be
  // rejected *before* any allocation: the count is only believable if
  // the remaining bytes can pay for it (3 doubles per point).
  std::string payload;
  const std::uint32_t huge = 0x0FFFFFFF;
  payload.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  payload.append(64, '\0');  // far fewer than huge * 24 bytes
  ScenarioCache::Entry decoded;
  EXPECT_FALSE(rv::engine::deserialize_entry("C-key", payload, &decoded));
  EXPECT_TRUE(std::get<rv::engine::CoverageOutcome>(decoded).series.empty());
}

/// A small all-family scenario set, used to populate caches with real
/// computed outcomes.
rv::engine::ScenarioSet small_all_family_set() {
  rv::engine::ScenarioSet set;
  rv::rendezvous::Scenario scenario;
  scenario.attrs.speed = 1.5;
  scenario.visibility = 0.25;
  scenario.max_time = 1e3;
  set.add(scenario);

  rv::engine::SearchCell search;
  search.angles = 3;
  search.distance = 1.0;
  search.visibility = 0.25;
  search.max_time = 1e3;
  set.add_search(search);

  rv::engine::GatherCell gather;
  rv::geom::RobotAttributes fast = rv::geom::reference_attributes();
  fast.speed = 2.0;
  gather.fleet = {rv::geom::reference_attributes(), fast};
  gather.visibility = 0.2;
  gather.contact_max_time = 1e3;
  gather.gather_max_time = 1e3;
  set.add_gather(gather);

  rv::engine::LinearCell linear;
  linear.mode = rv::engine::LinearMode::kZigZagSearch;
  linear.target = 1.0;
  linear.visibility = 0.01;
  linear.max_time = 1e3;
  set.add_linear(linear);

  rv::engine::CoverageCell coverage;
  coverage.disk_radius = 0.5;
  coverage.visibility = 0.1;
  coverage.cell = 0.05;
  coverage.checkpoints = 4;
  coverage.horizon = 50.0;
  set.add_coverage(coverage);
  return set;
}

/// Runs `set` with a fresh cache attached; returns the cache populated
/// with the computed outcomes.
void populate(const rv::engine::ScenarioSet& set, ScenarioCache* cache,
              std::string* csv = nullptr) {
  rv::engine::RunnerOptions options;
  options.threads = 1;
  options.cache = cache;
  const rv::engine::ResultSet results = rv::engine::run_scenarios(set, options);
  EXPECT_EQ(results.cache_stats().misses, results.size());
  if (csv != nullptr) {
    *csv = results.filtered(rv::engine::Family::kSearch).to_csv();
  }
}

TEST(CacheStoreFile, SaveLoadRoundTripsAllFamilies) {
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  ASSERT_EQ(cache.size(), 5u);  // one entry per family

  const fs::path path = scratch.path / "all.rvcache";
  rv::engine::save_cache_file(path, cache);

  ScenarioCache loaded;
  const CacheLoadStats stats = rv::engine::load_cache_file(path, &loaded);
  EXPECT_EQ(stats.files, 1u);
  EXPECT_EQ(stats.loaded, 5u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.bad_files, 0u);

  // The loaded cache must be *indistinguishable* from the original:
  // same keys, bitwise-same payloads.
  const auto want = cache.snapshot();
  const auto got = loaded.snapshot();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].first, got[i].first);
    EXPECT_EQ(rv::engine::serialize_entry(want[i].first, want[i].second),
              rv::engine::serialize_entry(got[i].first, got[i].second));
  }
}

TEST(CacheStoreFile, SavedBytesAreDeterministic) {
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);

  const fs::path a = scratch.path / "a.rvcache";
  const fs::path b = scratch.path / "b.rvcache";
  rv::engine::save_cache_file(a, cache);
  // A cache rebuilt through a different path (load, not compute) must
  // serialize to the same bytes — snapshot order is key order, not
  // insertion order.
  ScenarioCache reloaded;
  (void)rv::engine::load_cache_file(a, &reloaded);
  rv::engine::save_cache_file(b, reloaded);
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  std::string sa((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string sb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  EXPECT_EQ(sa, sb);
  EXPECT_FALSE(sa.empty());
}

TEST(CacheStoreFile, WarmRunFromDiskHitsEverythingAndEmitsSameBytes) {
  Scratch scratch;
  // "Process A": compute, persist.
  ScenarioCache first;
  std::string cold_csv;
  populate(small_all_family_set(), &first, &cold_csv);
  const fs::path path = scratch.path / "a.rvcache";
  rv::engine::save_cache_file(path, first);

  // "Process B": a fresh cache warm-loaded from A's file.  Every item
  // replays (cross-process hit counting) and emission is byte-identical.
  ScenarioCache second;
  (void)rv::engine::load_cache_file(path, &second);
  rv::engine::RunnerOptions options;
  options.threads = 1;
  options.cache = &second;
  const rv::engine::ResultSet warm =
      rv::engine::run_scenarios(small_all_family_set(), options);
  EXPECT_EQ(warm.cache_stats().hits, warm.size());
  EXPECT_EQ(warm.cache_stats().misses, 0u);
  EXPECT_EQ(warm.cache_stats().uncacheable, 0u);
  EXPECT_EQ(warm.filtered(rv::engine::Family::kSearch).to_csv(), cold_csv);
}

TEST(CacheStoreFile, MissingFileAndBadHeaderAreReportedNotThrown) {
  Scratch scratch;
  ScenarioCache cache;
  CacheLoadStats stats =
      rv::engine::load_cache_file(scratch.path / "absent.rvcache", &cache);
  EXPECT_EQ(stats.bad_files, 1u);
  EXPECT_EQ(stats.loaded, 0u);

  const fs::path garbage = scratch.path / "garbage.rvcache";
  std::ofstream(garbage, std::ios::binary) << "not a cache file at all";
  stats = rv::engine::load_cache_file(garbage, &cache);
  EXPECT_EQ(stats.bad_files, 1u);
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheStoreFile, RejectsFilesFromAnotherEngineEpoch) {
  // Outcomes persisted by a different engine generation must not
  // replay as current results: a flipped epoch field makes the whole
  // file a bad_file (recomputed on the next run), not a cache hit.
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  const fs::path path = scratch.path / "epoch.rvcache";
  rv::engine::save_cache_file(path, cache);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes[8] = static_cast<char>(bytes[8] ^ 0xFF);  // epoch lives at offset 8
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  ScenarioCache loaded;
  const CacheLoadStats stats = rv::engine::load_cache_file(path, &loaded);
  EXPECT_EQ(stats.bad_files, 1u);
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(CacheStoreFile, TruncatedFileLoadsThePrefixAndNeverCrashes) {
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  const fs::path path = scratch.path / "full.rvcache";
  rv::engine::save_cache_file(path, cache);
  const auto full_size = fs::file_size(path);

  // Chop the file at every suffix length down to below the header: the
  // loader must never crash and never load more than it can verify.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), full_size);
  for (const std::size_t keep :
       {full_size - 3, full_size / 2, full_size / 4, std::size_t{13},
        std::size_t{9}, std::size_t{3}}) {
    const fs::path cut = scratch.path / "cut.rvcache";
    std::ofstream(cut, std::ios::binary) << bytes.substr(0, keep);
    ScenarioCache partial;
    const CacheLoadStats stats = rv::engine::load_cache_file(cut, &partial);
    if (keep < 12) {  // header: 8-byte magic + u32 engine epoch
      EXPECT_EQ(stats.bad_files, 1u) << "keep=" << keep;
    } else {
      EXPECT_LE(partial.size(), cache.size()) << "keep=" << keep;
      if (keep < full_size) {
        EXPECT_GE(stats.skipped, 1u) << "keep=" << keep;
      }
    }
  }
}

TEST(CacheStoreFile, CorruptRecordIsSkippedNeighboursSurvive) {
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  const fs::path path = scratch.path / "flip.rvcache";
  rv::engine::save_cache_file(path, cache);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // Flip one byte in the middle of the second record's body (past the
  // header and first record): its checksum fails, the reader resyncs,
  // and every other record still loads.
  const std::size_t target = bytes.size() / 2;
  bytes[target] = static_cast<char>(bytes[target] ^ 0x5A);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  ScenarioCache damaged;
  const CacheLoadStats stats = rv::engine::load_cache_file(path, &damaged);
  EXPECT_GE(stats.skipped, 1u);
  EXPECT_GE(stats.loaded, cache.size() - 2);
  EXPECT_LT(stats.loaded, cache.size());
}

TEST(CacheStoreFile, MalformedLengthRecordIsRejectedBeforeAllocation) {
  // A record header may CLAIM any key/payload size; the loader must
  // bounds-check the claim against the remaining bytes (and the
  // absolute kMaxFieldSize cap) *before* allocating or reading — a
  // corrupt length field is garbage, not an allocation request.  This
  // pins the check the ASan leg of the sanitizer matrix watches: if
  // the loader ever trusts the claimed length first, these inputs
  // become huge allocations / out-of-bounds reads instead of a clean
  // `skipped` count.
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  const fs::path path = scratch.path / "evil.rvcache";
  rv::engine::save_cache_file(path, cache);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 12u);

  const auto u32 = [](std::uint32_t v) {
    std::string out(4, '\0');
    std::memcpy(out.data(), &v, 4);
    return out;
  };
  constexpr std::uint32_t kMagic = 0x52435245;  // "ERCR"
  struct Claim {
    const char* what;
    std::uint32_t key_size;
    std::uint32_t payload_size;
  };
  const Claim claims[] = {
      // Within the per-field cap but far beyond the file: only the
      // remaining-bytes check stands between this and a ~512 MiB read.
      {"sizes beyond the file", (1u << 28) - 16, (1u << 28) - 16},
      // Beyond the per-field cap: must be rejected even though the
      // u32 arithmetic would not overflow size_t.
      {"key_size above kMaxFieldSize", 0xFFFFFFFFu, 8},
      {"payload_size above kMaxFieldSize", 8, 0xFFFFFFFFu},
  };
  for (const Claim& claim : claims) {
    // Splice the malicious record header between the file header and
    // the valid records.
    const std::string evil = bytes.substr(0, 12) + u32(kMagic) +
                             u32(claim.key_size) + u32(claim.payload_size) +
                             bytes.substr(12);
    const fs::path evil_path = scratch.path / "spliced.rvcache";
    std::ofstream(evil_path, std::ios::binary | std::ios::trunc) << evil;
    ScenarioCache out;
    const CacheLoadStats stats = rv::engine::load_cache_file(evil_path, &out);
    EXPECT_EQ(stats.files, 1u) << claim.what;
    EXPECT_EQ(stats.skipped, 1u) << claim.what;
    // The reader resynchronises on the next record magic, so every
    // genuine record after the lie still loads.
    EXPECT_EQ(stats.loaded, cache.size()) << claim.what;
    EXPECT_EQ(out.size(), cache.size()) << claim.what;
  }
}

TEST(CacheStoreFile, MergeUnionsInputsFirstWriterWins) {
  Scratch scratch;
  // Two overlapping caches: {all 5 families} and {search only, but a
  // different cell}.
  ScenarioCache a;
  populate(small_all_family_set(), &a);

  rv::engine::ScenarioSet extra;
  rv::engine::SearchCell other;
  other.angles = 2;
  other.distance = 2.0;
  other.visibility = 0.5;
  other.max_time = 1e3;
  extra.add_search(other);
  ScenarioCache b;
  populate(small_all_family_set(), &b);  // duplicates of a
  populate(extra, &b);                   // plus one new key

  const fs::path file_a = scratch.path / "a.rvcache";
  const fs::path file_b = scratch.path / "b.rvcache";
  const fs::path merged = scratch.path / "merged.rvcache";
  rv::engine::save_cache_file(file_a, a);
  rv::engine::save_cache_file(file_b, b);

  const CacheLoadStats stats =
      rv::engine::merge_cache_files({file_a, file_b}, merged);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.loaded, 6u);      // 5 from a + 1 new from b
  EXPECT_EQ(stats.duplicates, 5u);  // b's copies of a's keys

  ScenarioCache out;
  const CacheLoadStats merged_stats =
      rv::engine::load_cache_file(merged, &out);
  EXPECT_EQ(merged_stats.loaded, 6u);
  EXPECT_EQ(out.size(), 6u);
}

TEST(CacheStoreDir, LoadsEveryCacheFileInNameOrder) {
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  rv::engine::save_cache_file(scratch.path / "shard-0.rvcache", cache);
  rv::engine::save_cache_file(scratch.path / "shard-1.rvcache", cache);
  std::ofstream(scratch.path / "notes.txt") << "ignored";

  ScenarioCache loaded;
  const CacheLoadStats stats =
      rv::engine::load_cache_dir(scratch.path, &loaded);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.loaded, 5u);
  EXPECT_EQ(stats.duplicates, 5u);
  EXPECT_EQ(loaded.size(), 5u);

  // A missing directory is simply empty.
  ScenarioCache empty;
  const CacheLoadStats none =
      rv::engine::load_cache_dir(scratch.path / "absent", &empty);
  EXPECT_EQ(none.files, 0u);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(CacheStoreFile, MergeOutputMayAliasAnInput) {
  // Pinned contract from cache_store.hpp: `output` may alias one of
  // `inputs`.  Every input is fully loaded before the save starts and
  // the save is atomic-by-rename, so merging "into" an input replaces
  // it with the union in one step.  compact_cache_dir leans on this
  // when the previous compact.rvcache is among the inputs.
  Scratch scratch;
  ScenarioCache a;
  populate(small_all_family_set(), &a);

  rv::engine::ScenarioSet extra;
  rv::engine::SearchCell other;
  other.angles = 2;
  other.distance = 2.0;
  other.visibility = 0.5;
  other.max_time = 1e3;
  extra.add_search(other);
  ScenarioCache b;
  populate(extra, &b);

  const fs::path file_a = scratch.path / "a.rvcache";
  const fs::path file_b = scratch.path / "b.rvcache";
  rv::engine::save_cache_file(file_a, a);
  rv::engine::save_cache_file(file_b, b);

  std::vector<CacheLoadStats> per_file;
  const CacheLoadStats stats =
      rv::engine::merge_cache_files({file_a, file_b}, file_a, &per_file);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.loaded, 6u);
  ASSERT_EQ(per_file.size(), 2u);
  EXPECT_EQ(per_file[0].loaded, 5u);
  EXPECT_EQ(per_file[1].loaded, 1u);

  // file_a now holds the union; file_b is untouched.
  ScenarioCache out;
  EXPECT_EQ(rv::engine::load_cache_file(file_a, &out).loaded, 6u);
  EXPECT_EQ(out.size(), 6u);
  ScenarioCache b_again;
  EXPECT_EQ(rv::engine::load_cache_file(file_b, &b_again).loaded, 1u);

  // Degenerate self-merge: the union of {a} written onto a is a no-op
  // byte-for-byte (sorted-by-key saves are canonical).
  std::ifstream before_stream(file_a, std::ios::binary);
  const std::string before((std::istreambuf_iterator<char>(before_stream)),
                           std::istreambuf_iterator<char>());
  (void)rv::engine::merge_cache_files({file_a}, file_a);
  std::ifstream after_stream(file_a, std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(after_stream)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(before, after);
  EXPECT_FALSE(before.empty());
}

// ---------------------------------------------------------------------------
// compact_cache_dir: merge + dedupe + wrong-epoch drop, age and byte
// budget eviction with a deterministic oldest-first victim order, and
// idempotent re-compaction (the previous output is just another input);
// remove_compacted_inputs then deletes the inputs.
// ---------------------------------------------------------------------------

namespace compact_helpers {

using rv::engine::CompactResult;
using Disposition = rv::engine::CompactResult::Disposition;

/// Saves `cache` under `name` inside `dir` and returns the path.
fs::path save_as(const fs::path& dir, const std::string& name,
                 const ScenarioCache& cache) {
  const fs::path path = dir / name;
  rv::engine::save_cache_file(path, cache);
  return path;
}

/// Rewrites `path` with its engine-epoch field flipped (offset 8).
void flip_epoch(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 8u);
  bytes[8] = static_cast<char>(bytes[8] ^ 0xFF);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Backdates `path` by `hours` relative to its current mtime — a
/// deterministic offset, not a wall-clock race.
void backdate(const fs::path& path, int hours) {
  const auto now = fs::last_write_time(path);
  fs::last_write_time(path, now - std::chrono::hours(hours));
}

/// The disposition recorded for `name`, or nullopt when absent.
const CompactResult::FileReport* report_for(const CompactResult& result,
                                            const std::string& name) {
  for (const auto& report : result.files) {
    if (report.path.filename() == name) return &report;
  }
  return nullptr;
}

}  // namespace compact_helpers

TEST(CacheStoreCompact, MergesDedupesAndDropsWrongEpochFiles) {
  using namespace compact_helpers;
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  save_as(scratch.path, "shard-0.rvcache", cache);
  save_as(scratch.path, "shard-1.rvcache", cache);  // pure duplicates
  flip_epoch(save_as(scratch.path, "old-epoch.rvcache", cache));
  std::ofstream(scratch.path / "notes.txt") << "ignored";

  const auto result = rv::engine::compact_cache_dir(scratch.path);
  // Published, but every input is still on disk until the removal.
  EXPECT_EQ(rv::engine::list_cache_files(scratch.path).size(), 4u);
  rv::engine::remove_compacted_inputs(result);
  EXPECT_EQ(result.entries, 5u);
  EXPECT_EQ(result.stats.loaded, 5u);
  EXPECT_EQ(result.stats.duplicates, 5u);
  EXPECT_EQ(result.stats.bad_files, 1u);
  ASSERT_EQ(result.files.size(), 3u);
  ASSERT_NE(report_for(result, "old-epoch.rvcache"), nullptr);
  EXPECT_EQ(report_for(result, "old-epoch.rvcache")->disposition,
            Disposition::kDroppedBad);
  EXPECT_EQ(report_for(result, "shard-0.rvcache")->disposition,
            Disposition::kMerged);
  EXPECT_EQ(report_for(result, "shard-1.rvcache")->disposition,
            Disposition::kMerged);

  // The directory holds exactly the output (plus the non-cache file);
  // a warm dir load sees the same 5 entries the shards held.
  EXPECT_EQ(result.output, scratch.path / "compact.rvcache");
  const auto files = rv::engine::list_cache_files(scratch.path);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], result.output);
  EXPECT_TRUE(fs::exists(scratch.path / "notes.txt"));
  EXPECT_EQ(fs::file_size(result.output), result.output_bytes);
  ScenarioCache warm;
  EXPECT_EQ(rv::engine::load_cache_dir(scratch.path, &warm).loaded, 5u);
}

TEST(CacheStoreCompact, EvictsByAgeWithoutOpeningTheFile) {
  using namespace compact_helpers;
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);

  rv::engine::ScenarioSet extra;
  rv::engine::SearchCell other;
  other.angles = 2;
  other.distance = 2.0;
  other.visibility = 0.5;
  other.max_time = 1e3;
  extra.add_search(other);
  ScenarioCache stale;
  populate(extra, &stale);

  save_as(scratch.path, "fresh.rvcache", cache);
  backdate(save_as(scratch.path, "stale.rvcache", stale), 10 * 24);

  rv::engine::CompactOptions options;
  options.max_age_days = 5.0;
  const auto result = rv::engine::compact_cache_dir(scratch.path, options);
  rv::engine::remove_compacted_inputs(result);
  ASSERT_NE(report_for(result, "stale.rvcache"), nullptr);
  EXPECT_EQ(report_for(result, "stale.rvcache")->disposition,
            Disposition::kEvictedAge);
  // Evicted files are never opened: their stats stay zero.
  EXPECT_EQ(report_for(result, "stale.rvcache")->stats.files, 0u);
  EXPECT_EQ(report_for(result, "fresh.rvcache")->disposition,
            Disposition::kMerged);
  EXPECT_EQ(result.entries, 5u);  // the stale file's lone key is gone
  EXPECT_FALSE(fs::exists(scratch.path / "stale.rvcache"));
  ScenarioCache warm;
  EXPECT_EQ(rv::engine::load_cache_dir(scratch.path, &warm).loaded, 5u);
}

TEST(CacheStoreCompact, ByteBudgetEvictsOldestFirstDeterministically) {
  using namespace compact_helpers;
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  // Three same-sized files with strictly ordered mtimes: oldest,
  // middle, newest (names chosen so name order != age order).
  backdate(save_as(scratch.path, "c-oldest.rvcache", cache), 3);
  backdate(save_as(scratch.path, "a-middle.rvcache", cache), 2);
  backdate(save_as(scratch.path, "b-newest.rvcache", cache), 1);
  const auto one_size = fs::file_size(scratch.path / "b-newest.rvcache");

  // Budget for exactly one input: the two oldest are evicted, oldest
  // first, and the report lists them in victim order.
  rv::engine::CompactOptions options;
  options.max_bytes = one_size;
  const auto result = rv::engine::compact_cache_dir(scratch.path, options);
  rv::engine::remove_compacted_inputs(result);
  ASSERT_EQ(result.files.size(), 3u);
  EXPECT_EQ(report_for(result, "b-newest.rvcache")->disposition,
            Disposition::kMerged);
  EXPECT_EQ(report_for(result, "c-oldest.rvcache")->disposition,
            Disposition::kEvictedBudget);
  EXPECT_EQ(report_for(result, "a-middle.rvcache")->disposition,
            Disposition::kEvictedBudget);
  // Victim order within the report: merged first, then evictions
  // oldest first.
  EXPECT_EQ(result.files[0].path.filename(), "b-newest.rvcache");
  EXPECT_EQ(result.files[1].path.filename(), "c-oldest.rvcache");
  EXPECT_EQ(result.files[2].path.filename(), "a-middle.rvcache");
  EXPECT_EQ(result.entries, 5u);
  ScenarioCache warm;
  EXPECT_EQ(rv::engine::load_cache_dir(scratch.path, &warm).loaded, 5u);
}

TEST(CacheStoreCompact, RecompactionIsIdempotent) {
  using namespace compact_helpers;
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  save_as(scratch.path, "shard-0.rvcache", cache);
  save_as(scratch.path, "shard-1.rvcache", cache);

  const auto first = rv::engine::compact_cache_dir(scratch.path);
  rv::engine::remove_compacted_inputs(first);
  std::ifstream first_stream(first.output, std::ios::binary);
  const std::string first_bytes(
      (std::istreambuf_iterator<char>(first_stream)),
      std::istreambuf_iterator<char>());

  // Second compaction: the previous output is the only input, merged
  // into itself (the alias-safety contract) — same entries, same bytes.
  const auto second = rv::engine::compact_cache_dir(scratch.path);
  rv::engine::remove_compacted_inputs(second);
  EXPECT_EQ(second.entries, first.entries);
  ASSERT_EQ(second.files.size(), 1u);
  EXPECT_EQ(second.files[0].path, first.output);
  EXPECT_EQ(second.files[0].disposition, Disposition::kMerged);
  std::ifstream second_stream(second.output, std::ios::binary);
  const std::string second_bytes(
      (std::istreambuf_iterator<char>(second_stream)),
      std::istreambuf_iterator<char>());
  EXPECT_EQ(first_bytes, second_bytes);
  EXPECT_FALSE(first_bytes.empty());
}

TEST(CacheStoreCompact, ReclaimsOnlyStaleHandoffDirectories) {
  // A --procs parent killed mid-run leaves its hand-off directory; no
  // loader lists it, so compaction reclaims it once it is older than
  // kStaleHandoffAge.  A fresh one may belong to a running parent and
  // survives, as does an old directory that is not a hand-off.
  using namespace compact_helpers;
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  const auto make_dir = [&](const std::string& name) {
    const fs::path dir = scratch.path / name;
    fs::create_directory(dir);
    save_as(dir, "0.rvcache", cache);
    return dir;
  };
  const auto backdate_dir = [](const fs::path& dir) {
    fs::last_write_time(dir, fs::file_time_type::clock::now() -
                                 rv::engine::kStaleHandoffAge -
                                 std::chrono::hours(1));
  };
  const fs::path stale = make_dir(".handoff-Stale1");
  backdate_dir(stale);
  const fs::path fresh = make_dir(".handoff-Fresh1");
  const fs::path other = make_dir("notes");
  backdate_dir(other);
  save_as(scratch.path, "a.rvcache", cache);

  const auto result = rv::engine::compact_cache_dir(scratch.path);
  ASSERT_EQ(result.stale_handoffs.size(), 1u);
  EXPECT_EQ(result.stale_handoffs[0], stale);
  // Nothing inside a hand-off directory is merged.
  EXPECT_EQ(result.files.size(), 1u);
  EXPECT_TRUE(fs::exists(stale));  // removal waits, as for inputs
  rv::engine::remove_compacted_inputs(result);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh / "0.rvcache"));
  EXPECT_TRUE(fs::exists(other / "0.rvcache"));
}

TEST(CacheStoreCompact, MissingDirectoryThrows) {
  Scratch scratch;
  EXPECT_THROW(
      (void)rv::engine::compact_cache_dir(scratch.path / "absent"),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Failpoint-armed durability pins (engine/failpoint.hpp): the
// write-fsync-rename discipline must mean a crash before the rename
// never publishes a file, and a torn write is skipped — never a crash —
// by the per-record checksum recovery.
// ---------------------------------------------------------------------------

TEST(CacheStoreFailpoints, CrashBeforeRenameLeavesNoFinalFile) {
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  const fs::path file = scratch.path / "crashed.rvcache";
  // The child arms the site and crashes mid-save: the data is written
  // to the temp file but the atomic rename never runs, so the final
  // name must not exist — a concurrent warm-loader can never observe a
  // half-written published file.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    rv::engine::failpoint::arm("cache_store.save.pre_rename=crash(86)");
    rv::engine::save_cache_file(file, cache);
    _exit(0);  // unreachable when the failpoint fires
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 86);
  EXPECT_FALSE(fs::exists(file));
  // The exact same save succeeds once nothing is armed (this process
  // never armed anything), and the file round-trips in full.
  rv::engine::save_cache_file(file, cache);
  ScenarioCache loaded;
  const CacheLoadStats stats = rv::engine::load_cache_file(file, &loaded);
  EXPECT_EQ(stats.loaded, 5u);
  EXPECT_EQ(stats.bad_files, 0u);
}

TEST(CacheStoreFailpoints, TornWriteIsSkippedNeverACrash) {
  Scratch scratch;
  ScenarioCache cache;
  populate(small_all_family_set(), &cache);
  const fs::path file = scratch.path / "torn.rvcache";
  rv::engine::failpoint::arm("cache_store.save.pre_rename=torn_write(20)");
  rv::engine::save_cache_file(file, cache);
  rv::engine::failpoint::disarm_all();
  // 20 bytes keep the header but tear the first record: the loader
  // reports the damage and loads nothing — it must not crash and must
  // not fabricate entries.
  ASSERT_TRUE(fs::exists(file));
  EXPECT_EQ(fs::file_size(file), 20u);
  ScenarioCache loaded;
  const CacheLoadStats stats = rv::engine::load_cache_file(file, &loaded);
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(loaded.size(), 0u);
  // An intact save over the torn file heals it completely.
  rv::engine::save_cache_file(file, cache);
  ScenarioCache healed;
  EXPECT_EQ(rv::engine::load_cache_file(file, &healed).loaded, 5u);
}

// ---------------------------------------------------------------------------
// Wire-format guard: the bytes of one canonical cache file, pinned as an
// FNV-1a 64 hash next to kEngineCacheEpoch in
// tools/sanitizers/wire_schema.lock.  The file holds one record per
// family (two for coverage: an empty and a non-empty series), each keyed
// by the `cache_key` of a canonical work item, so both the key encoding
// and every payload codec are covered.
// ---------------------------------------------------------------------------

void fill_canonical_cache(ScenarioCache* cache) {
  const auto store = [&](const rv::engine::WorkItem& item,
                         const ScenarioCache::Entry& entry) {
    const std::optional<std::string> key = rv::engine::cache_key(item);
    ASSERT_TRUE(key.has_value());
    cache->store(*key, entry);
  };

  rv::engine::WorkItem rendezvous;
  rendezvous.family = rv::engine::Family::kRendezvous;
  rendezvous.scenario.attrs.speed = 1.5;
  rendezvous.scenario.attrs.time_unit = 0.75;
  rendezvous.scenario.attrs.orientation = 0.5;
  rendezvous.scenario.attrs.chirality = -1;
  rendezvous.scenario.offset = {1.0, -0.0};
  rendezvous.scenario.max_time = 1e4;
  rv::rendezvous::Outcome met;
  met.sim = sample_sim_result();
  met.feasibility = rv::rendezvous::FeasibilityClass::kDifferentClocks;
  met.initial_distance = 1.0;
  met.algorithm_name = "algorithm7";
  store(rendezvous, met);

  rv::engine::WorkItem search;
  search.family = rv::engine::Family::kSearch;
  search.search.distance = 2.0;
  search.search.angles = 4;
  search.search.targets = {{0.5, -1.5}};
  rv::engine::SearchOutcome found;
  found.found = 3;
  found.missed = 1;
  found.worst_time = 123.456;
  found.mean_time = 98.7;
  found.worst_angle = -2.75;
  found.first_miss_angle = 0.03;
  found.program_name = "algorithm4";
  found.evals = 123456789ull;
  found.segments = 987654321ull;
  store(search, found);

  rv::engine::WorkItem gather;
  gather.family = rv::engine::Family::kGather;
  gather.gather.fleet = {rv::geom::reference_attributes(),
                         rv::geom::reference_attributes()};
  gather.gather.fleet[1].speed = 2.0;
  gather.gather.jitter = {{0.0, 0.25}};
  rv::engine::GatherOutcome gathered;
  gathered.contact.achieved = true;
  gathered.contact.time = 17.25;
  gathered.contact.pair_j = 1;
  gathered.contact.pair_i = 0;
  gathered.contact.evals = 77;
  gathered.gathered.min_max_pairwise =
      std::numeric_limits<double>::infinity();
  gathered.gathered.segments = 31;
  store(gather, gathered);

  rv::engine::WorkItem linear;
  linear.family = rv::engine::Family::kLinear;
  linear.linear.attrs.speed = 0.5;
  linear.linear.target = -3.0;
  rv::engine::LinearOutcome caught;
  caught.feasible = true;
  caught.sim = sample_sim_result();
  store(linear, caught);

  rv::engine::WorkItem coverage;
  coverage.family = rv::engine::Family::kCoverage;
  coverage.coverage.program_name = "square-spiral";
  coverage.coverage.program = rv::engine::SearchProgram::kSquareSpiral;
  rv::engine::CoverageOutcome covered;
  covered.series = {{10.0, 0.5, 3.5}, {20.0, 0.995, 7.0}};
  covered.program_name = "square-spiral";
  covered.t50 = 10.0;
  covered.final_fraction = 0.995;
  covered.covered_area = 7.0;
  store(coverage, covered);

  coverage.coverage.horizon = 1.0;  // a second cell: nothing recorded
  rv::engine::CoverageOutcome empty;
  empty.program_name = "square-spiral";
  store(coverage, empty);
}

// Each payload codec is one field list run in both directions, and the
// wire lock pins that every field is encoded, so re-encoding a decoded
// record reproducing its bytes proves every field round-trips
// bit-exactly (non-finite values, -1 pairs and empty series included).
TEST(CacheStoreSerialization, EveryCanonicalRecordRoundTripsBitExactly) {
  ScenarioCache cache;
  fill_canonical_cache(&cache);
  for (const auto& [key, entry] : cache.snapshot()) {
    SCOPED_TRACE(std::string(1, key[0]));
    const std::string payload = rv::engine::serialize_entry(key, entry);
    ScenarioCache::Entry decoded;
    ASSERT_TRUE(rv::engine::deserialize_entry(key, payload, &decoded));
    EXPECT_EQ(decoded.index(), entry.index());
    EXPECT_EQ(rv::engine::serialize_entry(key, decoded), payload);
  }
}

TEST(CacheStoreWire, CanonicalFileMatchesTheWireLock) {
#ifndef RV_GOLDEN_DIR
  GTEST_SKIP() << "RV_GOLDEN_DIR not set: no wire lock to compare against";
#else
  const fs::path lock_path = fs::path(RV_GOLDEN_DIR).parent_path().parent_path() /
                             "tools" / "sanitizers" / "wire_schema.lock";
  std::ifstream lock(lock_path);
  ASSERT_TRUE(lock) << "cannot read " << lock_path;
  long locked_epoch = -1;
  std::string locked_hash;
  for (std::string line; std::getline(lock, line);) {
    std::istringstream fields(line);
    std::string field;
    fields >> field;
    if (field == "epoch") fields >> locked_epoch;
    if (field == "hash") fields >> locked_hash;
  }

  ScenarioCache cache;
  fill_canonical_cache(&cache);
  ASSERT_EQ(cache.size(), 6u);
  Scratch scratch;
  const fs::path path = scratch.path / "canonical.rvcache";
  rv::engine::save_cache_file(path, cache);
  std::ifstream file(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(rv::engine::fnv1a64(bytes)));

  const std::string instructions =
      "If the change is intended: first bump kEngineCacheEpoch in "
      "src/engine/cache_store.hpp (files written by the old engine must "
      "not replay as current results), then write the new epoch and "
      "hash into " + lock_path.string() + " in the same commit.";
  EXPECT_EQ(hash, locked_hash)
      << "the cache wire format changed: the canonical file now hashes to "
      << hash << ".  " << instructions;
  EXPECT_EQ(static_cast<long>(rv::engine::kEngineCacheEpoch), locked_epoch)
      << "kEngineCacheEpoch no longer matches the lock.  " << instructions;
#endif
}

}  // namespace
