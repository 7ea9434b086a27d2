// Process-level golden pins for the rv_batch front-end — the
// acceptance harness of the sharded engine:
//
//  * the single-process CSV, JSON and table of every built-in set are
//    pinned byte for byte under tests/golden/rv_batch/;
//  * running the same set as 2 and as 3 shard *processes*, persisting
//    each shard's outcomes to a cache file and merging, must reproduce
//    those exact bytes (all cache hits, nothing recomputed);
//  * a cold-cache run followed by a warm-cache run must report
//    all-hits (enforced in-process by --require-all-hits) and emit
//    identical bytes;
//  * the fork-based `--procs P` local mode must match too.
//
// Regenerate intentionally changed pins with RV_UPDATE_GOLDEN=1 (see
// golden.hpp).  The built-in sets' texts in tools/rv_batch_sets.hpp are
// part of the pinned surface: their files under examples/sets/ and
// their cache keys are pinned here too.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <sys/wait.h>
#include <vector>

#include "engine/cache_store.hpp"
#include "engine/families.hpp"
#include "golden.hpp"
#include "rv_batch_sets.hpp"

namespace {

namespace fs = std::filesystem;
namespace golden = rv::golden;

/// Directory holding the built binaries (the build tree root).
fs::path build_dir() {
#ifdef RV_BENCH_DIR
  return fs::path(RV_BENCH_DIR);
#else
  return fs::current_path();
#endif
}

fs::path rv_batch_binary() { return build_dir() / "rv_batch"; }

/// Directory holding the built-in sets' `.rvset` files.
fs::path sets_dir() {
#ifdef RV_SETS_DIR
  return fs::path(RV_SETS_DIR);
#else
  return fs::path("examples/sets");
#endif
}

/// Runs `cmd` through the shell, returning captured stdout; fails the
/// test (and returns nullopt) on spawn failure or non-zero exit.
std::optional<std::string> run_and_capture(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd;
    return std::nullopt;
  }
  std::string out;
  char buffer[4096];
  std::size_t n;
  while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0) out.append(buffer, n);
  const int status = pclose(pipe);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    ADD_FAILURE() << "command failed (status " << status << "): " << cmd;
    return std::nullopt;
  }
  return out;
}

/// Scratch directory removed on every exit path.
struct Scratch {
  fs::path path;
  Scratch() {
    std::string buffer =
        (fs::temp_directory_path() / "rv_golden_batch_XXXXXX").string();
    EXPECT_NE(mkdtemp(buffer.data()), nullptr) << "mkdtemp failed";
    path = buffer;
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string batch_cmd(const std::string& args) {
  std::string cmd = "'";
  cmd += rv_batch_binary().string();
  cmd += "' ";
  cmd += args;
  return cmd;
}

class GoldenBatchSet : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (!fs::exists(rv_batch_binary())) {
      GTEST_SKIP() << rv_batch_binary()
                   << " not built (RV_BUILD_TOOLS=OFF?)";
    }
  }
};

TEST_P(GoldenBatchSet, SingleProcessCsvMatchesPin) {
  const std::string set = GetParam();
  const auto out = run_and_capture(batch_cmd("run --set " + set));
  if (out.has_value()) {
    golden::compare(*out, "rv_batch/" + set + ".csv");
  }
}

// JSON and the ASCII table are pinned too: each has its own number
// formats and quirks (null for non-finite, yes/no, feasible/INFEASIBLE,
// >horizon) that the CSV pin cannot see.
TEST_P(GoldenBatchSet, SingleProcessJsonAndTableMatchPins) {
  const std::string set = GetParam();
  for (const auto& [format, extension] :
       {std::pair<const char*, const char*>{"json", ".json"},
        {"table", ".txt"}}) {
    const auto out =
        run_and_capture(batch_cmd("run --set " + set + " --format " + format));
    if (out.has_value()) golden::compare(*out, "rv_batch/" + set + extension);
  }
}

TEST_P(GoldenBatchSet, ShardedProcessesMergeToTheExactSingleProcessBytes) {
  const std::string set = GetParam();
  const auto single = run_and_capture(batch_cmd("run --set " + set));
  ASSERT_TRUE(single.has_value());

  for (const int num_shards : {2, 3}) {
    Scratch scratch;
    const std::string dir = (scratch.path / "cache").string();
    for (int s = 0; s < num_shards; ++s) {
      // Each shard is its own process; its stdout (the partial
      // document) is irrelevant here — only the persisted cache file
      // crosses the process boundary.
      const auto shard_out = run_and_capture(
          batch_cmd("run --set " + set + " --shard " + std::to_string(s) +
                    "/" + std::to_string(num_shards) + " --cache-dir '" +
                    dir + "' >/dev/null && echo ok"));
      ASSERT_TRUE(shard_out.has_value()) << "shard " << s;
    }
    // The merge process replays every outcome from the shard files:
    // --require-all-hits turns any recomputation into a hard failure.
    const auto merged = run_and_capture(batch_cmd(
        "merge --set " + set + " --cache-dir '" + dir +
        "' --require-all-hits"));
    ASSERT_TRUE(merged.has_value()) << num_shards << " shards";
    EXPECT_EQ(*merged, *single)
        << set << " split over " << num_shards
        << " processes must merge to the single-process bytes";
  }
}

TEST_P(GoldenBatchSet, ColdThenWarmCacheRunsAreAllHitsAndIdentical) {
  const std::string set = GetParam();
  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  const auto cold = run_and_capture(
      batch_cmd("run --set " + set + " --cache-dir '" + dir + "'"));
  // The warm run must replay every outcome from the persisted file —
  // --require-all-hits makes a miss a non-zero exit, which
  // run_and_capture reports as a failure.
  const auto warm = run_and_capture(
      batch_cmd("run --set " + set + " --cache-dir '" + dir +
                "' --require-all-hits"));
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(*cold, *warm) << "warm-cache bytes drifted for " << set;
}

INSTANTIATE_TEST_SUITE_P(
    BuiltinSets, GoldenBatchSet,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const rv::engine::SetDecl& decl : rv::batch::builtin_sets()) {
        names.push_back(decl.name);
      }
      return names;
    }()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

struct RunStatus {
  int code = -1;       ///< process exit code (-1: spawn failure/signal)
  std::string stdout_text;
};

/// Like run_and_capture, but returns the exit code instead of failing
/// on it — chaos cases assert specific nonzero codes.
RunStatus run_status(const std::string& cmd) {
  RunStatus result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd;
    return result;
  }
  char buffer[4096];
  std::size_t n;
  while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.stdout_text.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.code = WEXITSTATUS(status);
  return result;
}

TEST(GoldenBatch, ForkedProcsModeMatchesSingleProcessBytes) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  const std::string set = "search-ring";
  const auto single = run_and_capture(batch_cmd("run --set " + set));
  ASSERT_TRUE(single.has_value());
  Scratch scratch;
  const std::string forked =
      batch_cmd("run --set " + set + " --procs 2 --cache-dir '" +
                (scratch.path / "cache").string() +
                "' --require-all-hits 2>/dev/null");
  // --require-all-hits checks the counts from before the fork: the
  // cold run computed every item (exit 3), the warm rerun none.
  const RunStatus cold = run_status(forked);
  EXPECT_EQ(cold.code, 3);
  EXPECT_EQ(cold.stdout_text, *single);
  const auto shard_files = [&] {
    std::map<std::string, std::string> files;
    for (const auto& entry : fs::directory_iterator(scratch.path / "cache")) {
      std::ifstream in(entry.path(), std::ios::binary);
      files[entry.path().string()].assign(std::istreambuf_iterator<char>(in),
                                          {});
    }
    return files;
  };
  const auto cold_files = shard_files();
  // Nothing misses, so the warm run must not fork: a shard worker armed
  // to crash never starts, and no cache file is written or rewritten.
  const RunStatus warm = run_status(
      "RV_FAILPOINTS='shard.worker.start=crash(87),index=1' " + forked);
  EXPECT_EQ(warm.code, 0);
  EXPECT_EQ(warm.stdout_text, *single);
  EXPECT_EQ(shard_files(), cold_files);
}

TEST(GoldenBatch, RunsThatComputeNothingWriteNoCacheFile) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  // The plain run computes everything and writes its one cache file;
  // the forked and the single-shard reruns replay it and write nothing.
  const std::string run = "run --set search-ring --cache-dir '" + dir + "'";
  ASSERT_TRUE(run_and_capture(batch_cmd(run)).has_value());
  for (const std::string mode : {" --procs 2", " --shard 1/3"}) {
    ASSERT_TRUE(
        run_and_capture(batch_cmd(run + mode + " --require-all-hits"))
            .has_value())
        << mode;
  }
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".rvcache") << entry.path();
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

// ---------------------------------------------------------------------------
// Chaos pins: failpoint-armed shard runs (engine/failpoint.hpp) under
// the supervisor must either recover to the exact fault-free bytes or
// degrade with a documented exit code and coverage report.  The specs
// ride in on RV_FAILPOINTS, so only the rv_batch child processes are
// armed — this test binary never is.
// ---------------------------------------------------------------------------

class GoldenBatchChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fs::exists(rv_batch_binary())) {
      GTEST_SKIP() << rv_batch_binary() << " not built";
    }
  }
};

TEST_F(GoldenBatchChaos, CrashedShardIsRetriedToFaultFreeBytes) {
  const auto single = run_and_capture(batch_cmd("run --set linear-line"));
  ASSERT_TRUE(single.has_value());
  Scratch scratch;
  // Shard 1's worker crashes on its first attempt only (limit=1 in the
  // fork-shared counter slab); --retries 2 must re-execute just that
  // shard and the merged document must be byte-identical.
  const RunStatus chaos = run_status(
      "RV_FAILPOINTS='shard.worker.start=crash(87),index=1,limit=1' " +
      batch_cmd("run --set linear-line --procs 3 --retries 2 --backoff-ms 10"
                " --cache-dir '" +
                (scratch.path / "cache").string() + "' 2>/dev/null"));
  EXPECT_EQ(chaos.code, 0);
  EXPECT_EQ(chaos.stdout_text, *single)
      << "retried chaos run drifted from the fault-free bytes";
}

TEST_F(GoldenBatchChaos, TornShardWritesHealToFaultFreeBytes) {
  const auto single = run_and_capture(batch_cmd("run --set linear-line"));
  ASSERT_TRUE(single.has_value());
  Scratch scratch;
  // Every shard cache save is torn to 48 bytes: the merge loader skips
  // the damage and the final pass recomputes the holes — the output
  // bytes must not change.
  const RunStatus chaos = run_status(
      "RV_FAILPOINTS='cache_store.save.pre_rename=torn_write(48)' " +
      batch_cmd("run --set linear-line --procs 2 --cache-dir '" +
                (scratch.path / "cache").string() + "' 2>/dev/null"));
  EXPECT_EQ(chaos.code, 0);
  EXPECT_EQ(chaos.stdout_text, *single);
}

TEST_F(GoldenBatchChaos, ExhaustedRetriesFailWithExitCode4AndNoDocument) {
  Scratch scratch;
  // The crash has no limit: every attempt of shard 1 dies, the budget
  // (--retries 1 = 2 attempts) runs out, and default mode must exit
  // with the documented code 4 while emitting NO partial document.
  const RunStatus chaos = run_status(
      "RV_FAILPOINTS='shard.worker.start=crash(87),index=1' " +
      batch_cmd("run --set linear-line --procs 3 --retries 1 --backoff-ms 10"
                " --cache-dir '" +
                (scratch.path / "cache").string() + "' 2>/dev/null"));
  EXPECT_EQ(chaos.code, 4);
  EXPECT_TRUE(chaos.stdout_text.empty())
      << "default mode must not emit a partial document";
}

TEST_F(GoldenBatchChaos, PartialEmitsSurvivingSubsetAndCoverageReport) {
  const auto single = run_and_capture(batch_cmd("run --set linear-line"));
  ASSERT_TRUE(single.has_value());
  Scratch scratch;
  const fs::path errfile = scratch.path / "stderr.txt";
  const RunStatus chaos = run_status(
      "RV_FAILPOINTS='shard.worker.start=crash(87),index=1' " +
      batch_cmd("run --set linear-line --procs 3 --retries 1 --backoff-ms 10"
                " --partial --cache-dir '" +
                (scratch.path / "cache").string() + "' 2>'" +
                errfile.string() + "'"));
  EXPECT_EQ(chaos.code, 0) << "--partial degrades gracefully";
  // linear-line has 4 items; shard 1 of 3 owns exactly global index 1,
  // so the surviving subset is the full document minus that row (data
  // row 1 = line index 2, after the header).
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(*single);
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);  // header + 4 rows
  const std::string expect_subset =
      lines[0] + "\n" + lines[1] + "\n" + lines[3] + "\n" + lines[4] + "\n";
  EXPECT_EQ(chaos.stdout_text, expect_subset);
  // The machine-readable coverage report names the missing pieces.
  std::ifstream err(errfile);
  const std::string err_text((std::istreambuf_iterator<char>(err)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(err_text.find("\"failed_shards\": [1]"), std::string::npos)
      << err_text;
  EXPECT_NE(err_text.find("\"missing_indices\": [1]"), std::string::npos)
      << err_text;
  EXPECT_NE(err_text.find("shard  attempt  outcome"), std::string::npos)
      << err_text;

  // Partly warm: shard 1/3 computed item 1 beforehand, so only the
  // misses 0, 2, 3 fork, and the crashed shard 1 of 3 loses the second
  // of them, item 2.  The hit on item 1 is emitted.
  Scratch warm;
  const std::string warm_dir = (warm.path / "cache").string();
  ASSERT_TRUE(run_and_capture(batch_cmd("run --set linear-line --shard 1/3"
                                        " --cache-dir '" + warm_dir +
                                        "' >/dev/null && echo ok"))
                  .has_value());
  const fs::path warm_err = warm.path / "stderr.txt";
  const RunStatus partly = run_status(
      "RV_FAILPOINTS='shard.worker.start=crash(87),index=1' " +
      batch_cmd("run --set linear-line --procs 3 --retries 1 --backoff-ms 10"
                " --partial --cache-dir '" + warm_dir + "' 2>'" +
                warm_err.string() + "'"));
  EXPECT_EQ(partly.code, 0);
  EXPECT_EQ(partly.stdout_text,
            lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n" + lines[4] +
                "\n");
  std::ifstream warm_in(warm_err);
  const std::string warm_text((std::istreambuf_iterator<char>(warm_in)),
                              std::istreambuf_iterator<char>());
  EXPECT_NE(warm_text.find("\"missing_indices\": [2]"), std::string::npos)
      << warm_text;
  EXPECT_NE(warm_text.find("hits=1 misses=3"), std::string::npos)
      << warm_text;
}

// ---------------------------------------------------------------------------
// The built-in set table and cache-dir hygiene: each text in
// tools/rv_batch_sets.hpp equals its examples/sets/<name>.rvset file
// byte for byte, its cache keys are pinned, and a shard → compact →
// warm-merge pipeline over the file replays everything from the single
// compacted file.
// ---------------------------------------------------------------------------

TEST(BuiltinSetTable, EveryTextEqualsItsRvsetFileByteForByte) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < rv::batch::builtin_sets().size(); ++i) {
    const std::string& name = rv::batch::builtin_sets()[i].name;
    names.insert(name);
    std::ifstream in(sets_dir() / (name + ".rvset"), std::ios::binary);
    const std::string file((std::istreambuf_iterator<char>(in)), {});
    EXPECT_EQ(file, rv::batch::kBuiltinSetTexts[i])
        << "built-in set '" << name << "': examples/sets/" << name
        << ".rvset differs from its text in tools/rv_batch_sets.hpp; copy "
           "the text from one to the other";
  }
  for (const auto& entry : fs::directory_iterator(sets_dir())) {
    if (entry.path().extension() != ".rvset") continue;
    EXPECT_EQ(names.count(entry.path().stem().string()), 1u)
        << entry.path() << " has no text in tools/rv_batch_sets.hpp; copy "
                           "the file's text into kBuiltinSetTexts";
  }
}

// A cache dir persisted by an earlier build keeps hitting only while
// each built-in set materialises the same cache keys, so an edit to a
// text that changes a key must fail here, not show up later as a cold
// cache.  The pin is FNV-1a64 of the keys concatenated in materialise
// order.
TEST(BuiltinSetTable, CacheKeysArePinned) {
  const std::map<std::string, std::uint64_t> pinned{
      {"rendezvous-grid", 0xe1009a3e9f772555ull},
      {"search-ring", 0xc2b420d8065e378dull},
      {"gather-fleet", 0xc9353d942de8210eull},
      {"linear-line", 0xc3dbdbc9cfcc5fc5ull},
      {"coverage-disk", 0x1e242acf9190f8beull},
  };
  std::map<std::string, std::uint64_t> actual;
  for (const rv::engine::SetDecl& decl : rv::batch::builtin_sets()) {
    std::string keys;
    for (const rv::engine::WorkItem& item : decl.set.materialize_work()) {
      const auto key = rv::engine::cache_key(item);
      ASSERT_TRUE(key.has_value()) << decl.name << ": uncacheable item";
      keys += *key;
    }
    actual[decl.name] = rv::engine::fnv1a64(keys);
  }
  EXPECT_EQ(actual, pinned)
      << "a built-in set's cache keys changed: cache dirs written before "
         "the change no longer hit";
}

TEST_P(GoldenBatchSet, ShardCompactWarmMergePipelineReplaysFromOneFile) {
  const std::string set = GetParam();
  const fs::path file = sets_dir() / (set + ".rvset");
  ASSERT_TRUE(fs::exists(file)) << file;
  const auto single = run_and_capture(batch_cmd("run --set " + set));
  ASSERT_TRUE(single.has_value());

  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  // Two shard processes populate the cache dir from the file.
  for (int s = 0; s < 2; ++s) {
    const auto shard_out = run_and_capture(
        batch_cmd("run --set-file '" + file.string() + "' --shard " +
                  std::to_string(s) + "/2 --cache-dir '" + dir +
                  "' >/dev/null && echo ok"));
    ASSERT_TRUE(shard_out.has_value()) << "shard " << s;
  }
  // Compact folds the shard files into one; originals are deleted.
  const auto compact_out =
      run_and_capture(batch_cmd("compact --cache-dir '" + dir + "'"));
  ASSERT_TRUE(compact_out.has_value());
  EXPECT_NE(compact_out->find("total: merged=2 evicted=0 dropped=0"),
            std::string::npos)
      << *compact_out;
  std::size_t cache_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".rvcache") ++cache_files;
  }
  EXPECT_EQ(cache_files, 1u);
  // The warm merge replays every outcome from compact.rvcache alone
  // and reproduces the single-process bytes.
  const auto merged = run_and_capture(
      batch_cmd("merge --set-file '" + file.string() + "' --cache-dir '" +
                dir + "' --require-all-hits"));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, *single);
}

TEST(GoldenBatch, HostileShardSpecsAreRejectedUpFront) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  // Regression: std::stoul's leniency let "-1/2" wrap to a huge shard
  // index and " 1/2"/"1x/2" slip through; the spec must be rejected
  // with a usage error before any work starts.
  const char* hostile[] = {"-1/2", " 1/2", "1/2x", "0x1/2",
                           "1//2", "1/",   "/2",   "1/0x2"};
  for (const char* spec : hostile) {
    const RunStatus status = run_status(
        batch_cmd("run --set linear-line --shard '" + std::string(spec) +
                  "' 2>&1"));
    EXPECT_EQ(status.code, 1) << "spec '" << spec << "'";
    EXPECT_NE(status.stdout_text.find("--shard expects I/N"),
              std::string::npos)
        << "spec '" << spec << "': " << status.stdout_text;
  }
  // The boundary cases still parse: 0/1 runs everything.
  const auto ok = run_and_capture(
      batch_cmd("run --set linear-line --shard 0/1"));
  EXPECT_TRUE(ok.has_value());
}

TEST(GoldenBatch, FlagsOutsideTheSubcommandContractAreRejected) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  // Regression: `cache-stats`/`compact` silently ignored --set and
  // --set-file, and `merge` silently ignored the fork-only supervisor
  // knobs — a typo'd invocation looked successful while doing
  // something else.  Every flag a subcommand does not consume is now
  // a usage error (exit 1) naming the flag and the subcommand.
  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  const struct {
    const char* args;
    const char* flag;
    const char* subcommand;
  } hostile[] = {
      {"cache-stats --cache-dir 'DIR' --set linear-line", "--set",
       "cache-stats"},
      {"cache-stats --cache-dir 'DIR' --set-file x.rvset", "--set-file",
       "cache-stats"},
      {"compact --cache-dir 'DIR' --set linear-line", "--set", "compact"},
      {"compact --cache-dir 'DIR' --format json", "--format", "compact"},
      {"merge --set linear-line --cache-dir 'DIR' --procs 2", "--procs",
       "merge"},
      {"merge --set linear-line --cache-dir 'DIR' --shard 0/2", "--shard",
       "merge"},
      {"merge --set linear-line --cache-dir 'DIR' --retries 2", "--retries",
       "merge"},
      {"merge --set linear-line --cache-dir 'DIR' --partial", "--partial",
       "merge"},
      {"merge --set linear-line --cache-dir 'DIR' --shard-timeout 1",
       "--shard-timeout", "merge"},
      {"list --format json", "--format", "list"},
      {"run --set linear-line --max-age-days 1", "--max-age-days", "run"},
  };
  for (const auto& sample : hostile) {
    std::string command = sample.args;
    const std::size_t at = command.find("DIR");
    if (at != std::string::npos) command.replace(at, 3, dir);
    const RunStatus status = run_status(batch_cmd(command + " 2>&1"));
    EXPECT_EQ(status.code, 1) << command;
    EXPECT_NE(status.stdout_text.find(std::string(sample.flag) +
                                      " does not apply to '" +
                                      sample.subcommand + "'"),
              std::string::npos)
        << command << ": " << status.stdout_text;
  }
  // The contract does not reject what each subcommand really takes:
  // the full run → cache-stats → compact → merge pipeline still works.
  const auto cold = run_and_capture(
      batch_cmd("run --set linear-line --cache-dir '" + dir + "'"));
  ASSERT_TRUE(cold.has_value());
  EXPECT_TRUE(run_and_capture(batch_cmd("cache-stats --cache-dir '" + dir +
                                        "'"))
                  .has_value());
  EXPECT_TRUE(run_and_capture(batch_cmd("compact --cache-dir '" + dir + "'"))
                  .has_value());
  const auto merged = run_and_capture(
      batch_cmd("merge --set linear-line --cache-dir '" + dir +
                "' --require-all-hits"));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, *cold);
}

/// True when `dir` holds a `.rvcache` file (an absent dir holds none).
bool holds_cache_file(const fs::path& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".rvcache") return true;
  }
  return false;
}

TEST(GoldenBatch, BadFormatFailsBeforeAnyWork) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  // Regression: run computed and persisted every cell, and only the
  // emission rejected the format.
  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  for (const std::string command : {"run", "merge"}) {
    const RunStatus status = run_status(
        batch_cmd(command + " --set gather-fleet --format bogus --cache-dir '" +
                  dir + "' 2>&1"));
    EXPECT_EQ(status.code, 1) << command;
    EXPECT_NE(status.stdout_text.find("format must be csv, json or table"),
              std::string::npos)
        << command << ": " << status.stdout_text;
    EXPECT_EQ(status.stdout_text.find("items="), std::string::npos)
        << command << " ran the set: " << status.stdout_text;
    EXPECT_FALSE(holds_cache_file(dir)) << command;
  }
}

TEST(GoldenBatch, MixedFamilySetFileFailsBeforeAnyCellRuns) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  // Regression: run computed and persisted every outcome, then failed
  // emission with exit 2.
  Scratch scratch;
  const fs::path mixed = scratch.path / "mixed.rvset";
  std::ofstream(mixed) << "[linear]\ndistances = 1.0 2.0\n\n"
                          "[search]\ndistances = 1.0\nradii = 0.5\n";
  const std::string dir = (scratch.path / "cache").string();
  for (const std::string command : {"run", "merge"}) {
    const RunStatus status =
        run_status(batch_cmd(command + " --set-file '" + mixed.string() +
                             "' --cache-dir '" + dir + "' 2>&1"));
    EXPECT_EQ(status.code, 1) << command;
    EXPECT_NE(status.stdout_text.find("homogeneous family"),
              std::string::npos)
        << command << ": " << status.stdout_text;
    EXPECT_FALSE(holds_cache_file(dir)) << command;
  }
}

TEST(GoldenBatch, EmptyResultsEmitTheHeaderOfTheSetsFamily) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  const auto full = run_and_capture(batch_cmd("run --set linear-line"));
  ASSERT_TRUE(full.has_value());
  const std::string header = full->substr(0, full->find('\n') + 1);
  ASSERT_EQ(header.rfind("mode,", 0), 0u) << header;
  // An empty shard (4 items, shard 30 of 31 owns none).
  const auto empty = run_and_capture(
      batch_cmd("run --set linear-line --shard 30/31 2>/dev/null"));
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(*empty, header);
  // A --partial run whose every shard crashed lost every item.
  Scratch scratch;
  const RunStatus lost = run_status(
      "RV_FAILPOINTS='shard.worker.start=crash(87)' " +
      batch_cmd("run --set linear-line --procs 2 --backoff-ms 0 --partial"
                " --cache-dir '" + (scratch.path / "cache").string() +
                "' 2>/dev/null"));
  EXPECT_EQ(lost.code, 0);
  EXPECT_EQ(lost.stdout_text, header);
}

TEST(GoldenBatch, MalformedRvsetFileFailsWithUsageExitAndNamedLine) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  Scratch scratch;
  const fs::path bad = scratch.path / "bad.rvset";
  std::ofstream(bad) << "[search]\ndistances = 1.0x\n";
  const RunStatus status = run_status(
      batch_cmd("run --set-file '" + bad.string() + "' 2>&1"));
  EXPECT_EQ(status.code, 1);
  EXPECT_NE(status.stdout_text.find("line 2"), std::string::npos)
      << status.stdout_text;
  EXPECT_NE(status.stdout_text.find("distances"), std::string::npos)
      << status.stdout_text;
}

TEST(GoldenBatch, ListedSetsArePinned) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  const auto out = run_and_capture(batch_cmd("list"));
  if (out.has_value()) golden::compare(*out, "rv_batch/list.txt");
}

}  // namespace
