#include "engine/cache_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <ratio>
#include <stdexcept>

#include "engine/failpoint.hpp"
#include "engine/wire.hpp"

namespace rv::engine {

namespace {

constexpr char kHeader[] = "RVCACHE\x01";  // 8 bytes: magic + format version
constexpr std::size_t kHeaderSize = 12;    // magic + u32 engine epoch
constexpr std::uint32_t kRecordMagic = 0x52435245;  // "ERCR" little-endian
using wire::kMaxFieldSize;
using wire::put;

/// The record checksum: FNV-1a 64 over key + payload bytes — cheap,
/// strong enough to reject torn writes and bit rot, no dependency.
std::uint64_t record_checksum(std::string_view key, std::string_view payload) {
  return fnv1a64(payload, fnv1a64(key));
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void CacheLoadStats::add(const CacheLoadStats& other) {
  files += other.files;
  loaded += other.loaded;
  duplicates += other.duplicates;
  skipped += other.skipped;
  bad_files += other.bad_files;
}

std::string serialize_entry(const std::string& key,
                            const ScenarioCache::Entry& entry) {
  const FamilyDescriptor* family = describe_key(key);
  if (family == nullptr) {
    throw std::invalid_argument(
        "serialize_entry: empty cache key or unknown family byte");
  }
  if (&describe(static_cast<Family>(entry.index())) != family) {
    throw std::invalid_argument(
        "serialize_entry: the entry holds another family's outcome");
  }
  std::string out;
  family->encode(out, entry);
  return out;
}

bool deserialize_entry(const std::string& key, std::string_view payload,
                       ScenarioCache::Entry* entry) {
  const FamilyDescriptor* family = describe_key(key);
  if (family == nullptr) return false;
  wire::Reader in(payload);
  // Trailing bytes mean the payload does not actually encode this
  // family's outcome — treat the record as corrupt.
  return family->decode(in, entry) && in.exhausted();
}

void save_cache_file(const std::filesystem::path& path,
                     const ScenarioCache& cache, bool durable) {
  std::string out(kHeader, 8);
  put<std::uint32_t>(out, kEngineCacheEpoch);
  for (const auto& [key, entry] : cache.snapshot()) {
    const std::string payload = serialize_entry(key, entry);
    put<std::uint32_t>(out, kRecordMagic);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(key.size()));
    put<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
    out += key;
    out += payload;
    put<std::uint64_t>(out, record_checksum(key, payload));
  }
  if (!path.parent_path().empty()) {
    std::filesystem::create_directories(path.parent_path());
  }
  // Write-then-fsync-then-rename so neither a concurrent reader
  // (another shard warm-loading the directory) nor a crash can ever
  // observe a half-written file under the *final* name; the pid
  // suffix keeps retried duplicates of the same shard from
  // interleaving on one temp file.
  const std::filesystem::path tmp =
      path.string() + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    throw std::runtime_error("save_cache_file: cannot create " + tmp.string());
  }
  bool ok = true;
  std::size_t off = 0;
  while (ok && off < out.size()) {
    const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
    } else {
      off += static_cast<std::size_t>(n);
    }
  }
  // The crash/torn-write window the chaos suite targets: bytes are
  // written but the file is not yet durable or published.  A `crash`
  // here leaves only the temp file (never a torn final file); a
  // `torn_write(n)` truncates to n bytes and lets publication proceed,
  // exercising the loader's per-record checksum recovery.
  const failpoint::Hit torn = RV_FAILPOINT_EVAL("cache_store.save.pre_rename");
  if (torn.fired && torn.action == failpoint::Action::kTornWrite) {
    const std::uint64_t keep =
        std::min<std::uint64_t>(torn.arg, static_cast<std::uint64_t>(out.size()));
    ok = ok && ::ftruncate(fd, static_cast<off_t>(keep)) == 0;
  }
  // fsync before the rename: the rename must never become durable
  // ahead of the data it publishes.
  ok = ok && (!durable || ::fsync(fd) == 0);
  ok = (::close(fd) == 0) && ok;
  if (!ok) {
    std::error_code rm_ec;
    std::filesystem::remove(tmp, rm_ec);
    throw std::runtime_error("save_cache_file: cannot write " + tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("save_cache_file: cannot publish " +
                             path.string());
  }
  // ...and fsync the directory after, so the rename itself survives a
  // power cut.  Best effort: some filesystems refuse O_RDONLY opens of
  // directories, and the data above is already safe.
  if (!durable) return;
  const std::filesystem::path parent =
      path.parent_path().empty() ? std::filesystem::path(".")
                                 : path.parent_path();
  const int dirfd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    (void)::fsync(dirfd);
    (void)::close(dirfd);
  }
}

std::vector<std::filesystem::path> list_cache_files(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return files;
  for (const auto& dir_entry : std::filesystem::directory_iterator(dir, ec)) {
    if (dir_entry.is_regular_file() &&
        dir_entry.path().extension() == kCacheFileExtension) {
      files.push_back(dir_entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

CacheLoadStats load_cache_file(const std::filesystem::path& path,
                               ScenarioCache* cache) {
  CacheLoadStats stats;
  std::error_code size_ec;
  const std::uintmax_t file_size =
      std::filesystem::file_size(path, size_ec);
  std::ifstream file(path, std::ios::binary);
  if (!file || size_ec) {
    stats.bad_files = 1;
    return stats;
  }
  // One allocation, one read — cache files can be large and every
  // warm-load touches all of them.
  std::string data(static_cast<std::size_t>(file_size), '\0');
  file.read(data.data(), static_cast<std::streamsize>(data.size()));
  if (!file || static_cast<std::uintmax_t>(file.gcount()) != file_size) {
    stats.bad_files = 1;
    return stats;
  }
  std::uint32_t epoch = 0;
  if (data.size() >= kHeaderSize) std::memcpy(&epoch, data.data() + 8, 4);
  if (data.size() < kHeaderSize || std::memcmp(data.data(), kHeader, 8) != 0 ||
      epoch != kEngineCacheEpoch) {
    // Wrong magic, format, or engine epoch: outcomes written by a
    // different engine generation must not replay as current results.
    stats.bad_files = 1;
    return stats;
  }
  stats.files = 1;

  // Sequential record scan.  Any inconsistency — wrong magic, absurd
  // sizes, truncation, checksum mismatch, undecodable payload —
  // resynchronises on the next occurrence of the record magic, so a
  // corrupt region costs its own records and one substring search, not
  // a byte-by-byte re-validation.  `skipped` counts contiguous corrupt
  // regions, not bytes; a pathological file full of fake magics gives
  // up after kMaxFailedRecords attempts instead of grinding
  // quadratically.
  constexpr std::size_t kMaxFailedRecords = 1024;
  const std::string magic_bytes(reinterpret_cast<const char*>(&kRecordMagic),
                                sizeof(kRecordMagic));
  std::size_t pos = kHeaderSize;
  std::size_t failed_records = 0;
  bool in_bad_region = false;
  const auto flag_bad = [&] {
    if (!in_bad_region) {
      ++stats.skipped;
      in_bad_region = true;
    }
    if (++failed_records >= kMaxFailedRecords) {
      pos = data.size();  // give up on the remainder, keep what loaded
      return;
    }
    const std::size_t next = data.find(magic_bytes, pos + 1);
    pos = next == std::string::npos ? data.size() : next;
  };
  while (pos < data.size()) {
    // Chaos site for load-path faults: an `error` action turns a
    // record parse into a thrown failure (so a shard warm-load can be
    // made to die and exercise the supervisor's retry), a `delay`
    // slows the load for timeout testing.
    RV_FAILPOINT("cache_store.load.record");
    const std::size_t remaining = data.size() - pos;
    if (remaining < 12) {  // record header: magic + key_size + payload_size
      flag_bad();
      continue;
    }
    std::uint32_t magic = 0, key_size = 0, payload_size = 0;
    std::memcpy(&magic, data.data() + pos, 4);
    std::memcpy(&key_size, data.data() + pos + 4, 4);
    std::memcpy(&payload_size, data.data() + pos + 8, 4);
    if (magic != kRecordMagic || key_size == 0 || key_size > kMaxFieldSize ||
        payload_size > kMaxFieldSize ||
        remaining < 12 + std::size_t{key_size} + payload_size + 8) {
      flag_bad();
      continue;
    }
    const char* base = data.data() + pos + 12;
    const std::string key(base, key_size);
    const std::string_view payload(base + key_size, payload_size);
    std::uint64_t checksum = 0;
    std::memcpy(&checksum, base + key_size + payload_size, 8);
    ScenarioCache::Entry entry;
    if (checksum != record_checksum(key, payload) ||
        !deserialize_entry(key, payload, &entry)) {
      flag_bad();
      continue;
    }
    in_bad_region = false;
    if (cache->store(key, std::move(entry))) {
      ++stats.loaded;
    } else {
      ++stats.duplicates;
    }
    pos += 12 + std::size_t{key_size} + payload_size + 8;
  }
  return stats;
}

CacheLoadStats load_cache_dir(const std::filesystem::path& dir,
                              ScenarioCache* cache) {
  CacheLoadStats stats;
  for (const std::filesystem::path& file : list_cache_files(dir)) {
    stats.add(load_cache_file(file, cache));
  }
  return stats;
}

CacheLoadStats merge_cache_files(
    const std::vector<std::filesystem::path>& inputs,
    const std::filesystem::path& output,
    std::vector<CacheLoadStats>* per_file) {
  // `output` may alias an input: all loads complete before the save
  // starts, and the save is atomic-by-rename (see save_cache_file), so
  // an aliased input is replaced in one step, never torn.
  ScenarioCache merged;
  CacheLoadStats stats;
  for (const std::filesystem::path& input : inputs) {
    const CacheLoadStats file_stats = load_cache_file(input, &merged);
    if (per_file != nullptr) per_file->push_back(file_stats);
    stats.add(file_stats);
  }
  save_cache_file(output, merged);
  return stats;
}

CompactResult compact_cache_dir(const std::filesystem::path& dir,
                                const CompactOptions& options) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("compact_cache_dir: not a directory: " +
                             dir.string());
  }
  CompactResult result;
  result.output = dir / options.output_name;

  struct Input {
    fs::path path;
    fs::file_time_type mtime;
    std::uintmax_t bytes = 0;
  };
  std::vector<Input> inputs;
  for (const fs::path& file : list_cache_files(dir)) {
    std::error_code ec;
    Input input;
    input.path = file;
    input.mtime = fs::last_write_time(file, ec);
    if (!ec) input.bytes = fs::file_size(file, ec);
    if (ec) continue;  // vanished between listing and stat: nothing to do
    inputs.push_back(std::move(input));
  }

  // Age eviction: anything older than the cutoff never gets merged.
  std::vector<Input> evicted_age;
  if (options.max_age_days > 0.0) {
    const auto now = fs::file_time_type::clock::now();
    const auto limit = std::chrono::duration_cast<fs::file_time_type::duration>(
        std::chrono::duration<double, std::ratio<86400>>(options.max_age_days));
    const fs::file_time_type cutoff = now - limit;
    std::vector<Input> kept;
    for (Input& input : inputs) {
      (input.mtime < cutoff ? evicted_age : kept).push_back(std::move(input));
    }
    inputs = std::move(kept);
  }

  // Byte budget: evict oldest first (mtime, then path — deterministic)
  // until the surviving inputs fit.
  const auto oldest_first = [](const Input& a, const Input& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.path < b.path;
  };
  std::sort(evicted_age.begin(), evicted_age.end(), oldest_first);
  std::vector<Input> evicted_budget;
  if (options.max_bytes > 0) {
    std::sort(inputs.begin(), inputs.end(), oldest_first);
    std::uintmax_t total = 0;
    for (const Input& input : inputs) total += input.bytes;
    std::size_t victim = 0;
    while (victim < inputs.size() && total > options.max_bytes) {
      total -= inputs[victim].bytes;
      evicted_budget.push_back(std::move(inputs[victim]));
      ++victim;
    }
    inputs.erase(inputs.begin(), inputs.begin() + victim);
  }

  // Merge the survivors in sorted-file-name order — the same order and
  // first-writer-wins rule as load_cache_dir, so a warm run sees
  // identical entries before and after compaction.  The previous
  // output file, when present, is among the inputs (merge_cache_files
  // is alias-safe).
  std::vector<fs::path> merge_paths;
  merge_paths.reserve(inputs.size());
  for (const Input& input : inputs) merge_paths.push_back(input.path);
  std::sort(merge_paths.begin(), merge_paths.end());
  std::vector<CacheLoadStats> per_file;
  result.stats = merge_cache_files(merge_paths, result.output, &per_file);
  result.entries = result.stats.loaded;
  for (std::size_t i = 0; i < merge_paths.size(); ++i) {
    CompactResult::FileReport report;
    report.path = merge_paths[i];
    report.stats = per_file[i];
    report.disposition = per_file[i].bad_files > 0
                             ? CompactResult::Disposition::kDroppedBad
                             : CompactResult::Disposition::kMerged;
    result.files.push_back(std::move(report));
  }
  for (const Input& input : evicted_age) {
    result.files.push_back(CompactResult::FileReport{
        input.path, CompactResult::Disposition::kEvictedAge, {}});
  }
  for (const Input& input : evicted_budget) {
    result.files.push_back(CompactResult::FileReport{
        input.path, CompactResult::Disposition::kEvictedBudget, {}});
  }

  // Hand-off directories a killed parent left behind.
  std::error_code ec;
  const fs::file_time_type stale_before =
      fs::file_time_type::clock::now() - kStaleHandoffAge;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::error_code entry_ec;
    if (entry.is_directory(entry_ec) &&
        entry.path().filename().string().rfind(kHandoffPrefix, 0) == 0 &&
        fs::last_write_time(entry.path(), entry_ec) < stale_before &&
        !entry_ec) {
      result.stale_handoffs.push_back(entry.path());
    }
  }
  std::sort(result.stale_handoffs.begin(), result.stale_handoffs.end());

  result.output_bytes = fs::file_size(result.output, ec);
  if (ec) result.output_bytes = 0;
  return result;
}

void remove_compacted_inputs(const CompactResult& result) {
  // The output is safely on disk (atomic rename): delete every
  // original input, evicted or merged, except the output itself.
  for (const CompactResult::FileReport& report : result.files) {
    if (report.path == result.output) continue;
    std::error_code ec;
    std::filesystem::remove(report.path, ec);  // a vanished input is gone
  }
  for (const std::filesystem::path& handoff : result.stale_handoffs) {
    std::error_code ec;
    std::filesystem::remove_all(handoff, ec);
  }
}

}  // namespace rv::engine
