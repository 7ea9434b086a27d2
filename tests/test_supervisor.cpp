// Shard supervisor (engine/supervisor.hpp): success paths, retry on
// failure, bounded attempt budgets, deadline kills, and the coverage
// report's missing-index arithmetic.

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/supervisor.hpp"

namespace fs = std::filesystem;
using rv::engine::AttemptOutcome;
using rv::engine::ShardStatus;
using rv::engine::SupervisorOptions;
using rv::engine::SupervisorReport;
using rv::engine::supervise_shards;

namespace {

/// mkdtemp-backed scratch directory (children and the parent share it
/// through the filesystem — the only channel that survives fork).
class Scratch {
 public:
  Scratch() {
    std::string templ =
        (fs::temp_directory_path() / "rv_supervisor_XXXXXX").string();
    dir_ = ::mkdtemp(templ.data());
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] fs::path path(const std::string& name) const {
    return fs::path(dir_) / name;
  }

 private:
  std::string dir_;
};

/// Fast-retry options for tests: real exponential backoff would make
/// the suite crawl.
SupervisorOptions fast(std::size_t retries, double timeout_sec = 0.0) {
  SupervisorOptions options;
  options.retries = retries;
  options.timeout_sec = timeout_sec;
  options.backoff_ms = 1;
  return options;
}

TEST(SupervisorTest, AllShardsSucceedFirstTry) {
  const SupervisorReport report =
      supervise_shards(4, [](std::size_t) { return 0; }, fast(0));
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.any_failures());
  EXPECT_TRUE(report.failed_shards().empty());
  ASSERT_EQ(report.shards.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(report.shards[s].shard, s);
    EXPECT_TRUE(report.shards[s].succeeded);
    ASSERT_EQ(report.shards[s].attempts.size(), 1u);
    EXPECT_EQ(report.shards[s].attempts[0].outcome, AttemptOutcome::kSuccess);
    EXPECT_EQ(report.shards[s].attempts[0].code, 0);
  }
}

TEST(SupervisorTest, FailedShardIsRetriedAndRecovers) {
  Scratch scratch;
  // Shard 1 fails until its marker file exists; the first attempt
  // creates it, so attempt 2 succeeds.  Only shard 1 may retry.
  const auto child = [&](std::size_t s) -> int {
    if (s != 1) return 0;
    const fs::path marker = scratch.path("attempted");
    if (fs::exists(marker)) return 0;
    std::fclose(std::fopen(marker.string().c_str(), "w"));
    return 9;
  };
  const SupervisorReport report = supervise_shards(3, child, fast(2));
  EXPECT_TRUE(report.complete());
  EXPECT_TRUE(report.any_failures());
  EXPECT_EQ(report.shards[0].attempts.size(), 1u);
  ASSERT_EQ(report.shards[1].attempts.size(), 2u);
  EXPECT_EQ(report.shards[1].attempts[0].outcome,
            AttemptOutcome::kExitFailure);
  EXPECT_EQ(report.shards[1].attempts[0].code, 9);
  EXPECT_EQ(report.shards[1].attempts[1].outcome, AttemptOutcome::kSuccess);
  EXPECT_EQ(report.shards[2].attempts.size(), 1u);
}

TEST(SupervisorTest, ExhaustedRetriesReportFailure) {
  const SupervisorReport report = supervise_shards(
      3, [](std::size_t s) { return s == 2 ? 9 : 0; }, fast(2));
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.failed_shards(), std::vector<std::size_t>{2});
  // retries=2 means exactly 3 attempts, all nonzero exits.
  ASSERT_EQ(report.shards[2].attempts.size(), 3u);
  for (const auto& attempt : report.shards[2].attempts) {
    EXPECT_EQ(attempt.outcome, AttemptOutcome::kExitFailure);
    EXPECT_EQ(attempt.code, 9);
  }
  // The table names every attempt.
  const std::string table = report.table();
  EXPECT_NE(table.find("shard  attempt  outcome  code"), std::string::npos);
  EXPECT_NE(table.find("exit"), std::string::npos);
}

TEST(SupervisorTest, DeadlineKillsHungShardAndRetrySucceeds) {
  Scratch scratch;
  // Shard 0 hangs on its first attempt (far past the 0.2 s deadline)
  // and returns promptly once the marker exists.
  const auto child = [&](std::size_t s) -> int {
    if (s != 0) return 0;
    const fs::path marker = scratch.path("hung");
    if (fs::exists(marker)) return 0;
    std::fclose(std::fopen(marker.string().c_str(), "w"));
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return 0;
  };
  const SupervisorReport report = supervise_shards(2, child, fast(1, 0.2));
  EXPECT_TRUE(report.complete());
  ASSERT_EQ(report.shards[0].attempts.size(), 2u);
  EXPECT_EQ(report.shards[0].attempts[0].outcome, AttemptOutcome::kTimeout);
  EXPECT_EQ(report.shards[0].attempts[1].outcome, AttemptOutcome::kSuccess);
  EXPECT_GE(report.shards[0].attempts[0].elapsed_ms, 150.0);
}

TEST(SupervisorTest, ChildExceptionBecomesNonzeroExit) {
  const SupervisorReport report = supervise_shards(
      1,
      [](std::size_t) -> int {
        throw std::runtime_error("deliberate child failure");
      },
      fast(0));
  EXPECT_FALSE(report.complete());
  ASSERT_EQ(report.shards[0].attempts.size(), 1u);
  EXPECT_EQ(report.shards[0].attempts[0].outcome,
            AttemptOutcome::kExitFailure);
  EXPECT_EQ(report.shards[0].attempts[0].code, 2);
}

TEST(SupervisorTest, CoverageReportNamesMissingIndices) {
  const SupervisorReport report = supervise_shards(
      3, [](std::size_t s) { return s == 1 ? 9 : 0; }, fast(0));
  EXPECT_FALSE(report.complete());
  // 10 strided items over 3 shards: shard 1 owns {1, 4, 7}.
  const std::string json = report.to_json(10, report.missing_indices(10));
  EXPECT_NE(json.find("\"complete\": false"), std::string::npos);
  EXPECT_NE(json.find("\"num_shards\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"total_items\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"failed_shards\": [1]"), std::string::npos);
  EXPECT_NE(json.find("\"missing_indices\": [1, 4, 7]"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"exit\""), std::string::npos);
  EXPECT_EQ(report.missing_indices(10), (std::vector<std::size_t>{1, 4, 7}));
}

TEST(SupervisorTest, CompleteRunEmitsEmptyFailureLists) {
  const SupervisorReport report =
      supervise_shards(2, [](std::size_t) { return 0; }, fast(0));
  const std::string json = report.to_json(5, report.missing_indices(5));
  EXPECT_NE(json.find("\"complete\": true"), std::string::npos);
  EXPECT_NE(json.find("\"failed_shards\": []"), std::string::npos);
  EXPECT_NE(json.find("\"missing_indices\": []"), std::string::npos);
}

}  // namespace
