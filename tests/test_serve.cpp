// End-to-end conformance + chaos suite for the rv_serve daemon — the
// acceptance harness of the serve layer (src/engine/serve.*):
//
//  * a real forked `rv_serve` driven over pipes answers every built-in
//    set with payload bytes identical to `rv_batch run`, cold runs pin
//    exact miss counters and warm replays pin 100% hits;
//  * raw `.rvset` bodies (the files under examples/sets/) get the same
//    byte-identity against `rv_batch run --set-file`;
//  * malformed requests always produce structured error replies —
//    never a crash, never a torn stream;
//  * the status schema, queue-full backpressure reply, and
//    deadline-expiry reply are pinned byte for byte;
//  * the `serve.*` failpoint sites (crash/delay/torn_write) drive the
//    durability and torn-reply drills, and forked dispatch
//    (`--procs`) reuses the supervisor's kill/partial semantics.
//
// Fork-dispatch daemon cases are skipped under TSan: a multithreaded
// daemon forking children that then start runner threads is
// unsupported by the TSan runtime (the in-process stress coverage
// lives in tests/test_runner_stress.cpp instead).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/cache_store.hpp"
#include "engine/serve.hpp"
#include "io/json.hpp"
#include "rv_batch_sets.hpp"
#include "support/io.hpp"

#if defined(__SANITIZE_THREAD__)
#define RV_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RV_UNDER_TSAN 1
#endif
#endif
#ifndef RV_UNDER_TSAN
#define RV_UNDER_TSAN 0
#endif

namespace {

namespace fs = std::filesystem;
namespace serve = rv::engine::serve;

fs::path build_dir() {
#ifdef RV_BENCH_DIR
  return fs::path(RV_BENCH_DIR);
#else
  return fs::current_path();
#endif
}

fs::path sets_dir() {
#ifdef RV_SETS_DIR
  return fs::path(RV_SETS_DIR);
#else
  return fs::current_path();
#endif
}

fs::path rv_serve_binary() { return build_dir() / "rv_serve"; }
fs::path rv_batch_binary() { return build_dir() / "rv_batch"; }

/// Runs `cmd` through the shell, returning captured stdout; fails the
/// test on spawn failure or non-zero exit.
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

std::string batch_cmd(const std::string& args) {
  return "'" + rv_batch_binary().string() + "' " + args;
}

/// Scratch directory removed on every exit path.
struct Scratch {
  fs::path path;
  Scratch() {
    std::string buffer =
        (fs::temp_directory_path() / "rv_serve_test_XXXXXX").string();
    EXPECT_NE(mkdtemp(buffer.data()), nullptr) << "mkdtemp failed";
    path = buffer;
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Read-only streambuf over a file descriptor, so replies can be
/// decoded with the library's own serve::read_frame.
class FdReadBuf : public std::streambuf {
 public:
  explicit FdReadBuf(int fd) : fd_(fd) { setg(buf_, buf_, buf_); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    const ssize_t n = ::read(fd_, buf_, sizeof buf_);
    if (n <= 0) return traits_type::eof();
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(*gptr());
  }

 private:
  int fd_;
  char buf_[4096];
};

/// One forked rv_serve daemon, driven over stdin/stdout pipes.
class Daemon {
 public:
  explicit Daemon(const std::vector<std::string>& extra_args = {},
                  const std::string& failpoints = "") {
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    EXPECT_EQ(pipe(to_child), 0);
    EXPECT_EQ(pipe(from_child), 0);
    pid_ = fork();
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      if (failpoints.empty()) {
        unsetenv("RV_FAILPOINTS");
      } else {
        setenv("RV_FAILPOINTS", failpoints.c_str(), 1);
      }
      const std::string binary = rv_serve_binary().string();
      std::vector<std::string> argv_storage = {binary, "--quiet"};
      argv_storage.insert(argv_storage.end(), extra_args.begin(),
                          extra_args.end());
      std::vector<char*> argv;
      argv.reserve(argv_storage.size() + 1);
      for (std::string& arg : argv_storage) argv.push_back(arg.data());
      argv.push_back(nullptr);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
    buf_ = std::make_unique<FdReadBuf>(out_fd_);
    in_stream_ = std::make_unique<std::istream>(buf_.get());
  }

  ~Daemon() {
    close_stdin();
    if (out_fd_ >= 0) ::close(out_fd_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
  }

  void send(const std::string& bytes) {
    const char* p = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
      const ssize_t n = ::write(in_fd_, p, left);
      ASSERT_GT(n, 0) << "write to daemon failed";
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  void close_stdin() {
    if (in_fd_ >= 0) ::close(in_fd_);
    in_fd_ = -1;
  }

  /// Reads one reply frame with the library decoder; fails the test on
  /// EOF or torn frames.
  bool read_frame(std::string* header, std::string* payload) {
    const bool got = serve::read_frame(*in_stream_, header, payload);
    EXPECT_TRUE(got) << "unexpected EOF from daemon";
    return got;
  }

  /// Everything remaining on the reply stream, until EOF.
  std::string read_all() {
    std::string out;
    char buffer[4096];
    // Drain through the same streambuf read_frame used, then the fd.
    out.assign(std::istreambuf_iterator<char>(*in_stream_),
               std::istreambuf_iterator<char>());
    ssize_t n = 0;
    while ((n = ::read(out_fd_, buffer, sizeof buffer)) > 0) {
      out.append(buffer, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Waits for exit; returns the exit code, or 128+signal when killed.
  int wait_exit() {
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::unique_ptr<FdReadBuf> buf_;
  std::unique_ptr<std::istream> in_stream_;
};

struct Frame {
  std::string header;
  std::string payload;
};

/// Sends one request line (plus optional raw body) and reads its reply.
Frame roundtrip(Daemon& daemon, const std::string& header_line,
                const std::string& body = "", bool has_body = false) {
  daemon.send(header_line + "\n");
  if (has_body) daemon.send(body + "\n");
  Frame frame;
  daemon.read_frame(&frame.header, &frame.payload);
  return frame;
}

/// A top-level scalar of a reply header, read with the strict reader: a
/// string unescaped, a number as its raw token, "" when absent.  A
/// header that is not strict JSON throws and fails the test.
std::string field(const std::string& header, const std::string& key) {
  rv::io::JsonReader json(header);
  std::string name;
  std::string value;
  json.begin_object();
  while (json.next_member(&name)) {
    if (name != key) {
      json.skip_value();
    } else {
      value = json.peek() == '"' ? json.string()
                                 : std::string(json.number().raw);
    }
  }
  json.end();
  return value;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Masks the (timing-dependent) latency digits of a status reply so
/// the rest of the schema can be pinned exactly.
std::string mask_latency(std::string status_header) {
  for (const std::string key : {"\"mean_ms\":", "\"max_ms\":"}) {
    const std::size_t start = status_header.find(key);
    if (start == std::string::npos) continue;
    const std::size_t digits = start + key.size();
    std::size_t end = digits;
    while (end < status_header.size() &&
           (std::isdigit(static_cast<unsigned char>(status_header[end])) ||
            status_header[end] == '.')) {
      ++end;
    }
    status_header.replace(digits, end - digits, "X");
  }
  return status_header;
}

class ServeDaemon : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fs::exists(rv_serve_binary()) || !fs::exists(rv_batch_binary())) {
      GTEST_SKIP() << "rv_serve/rv_batch not built (RV_BUILD_TOOLS=OFF?)";
    }
  }
};

class ServeConformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (!fs::exists(rv_serve_binary()) || !fs::exists(rv_batch_binary())) {
      GTEST_SKIP() << "rv_serve/rv_batch not built (RV_BUILD_TOOLS=OFF?)";
    }
#if RV_UNDER_TSAN
    const std::string set = GetParam();
    if (set != "linear-line" && set != "gather-fleet") {
      GTEST_SKIP() << "TSan: conformance restricted to the small sets";
    }
#endif
  }
};

// ---------------------------------------------------------------------
// Conformance: byte-identity with rv_batch, cold/warm counters
// ---------------------------------------------------------------------

TEST_P(ServeConformance, RepliesAreByteIdenticalToRvBatchColdAndWarm) {
  const std::string set = GetParam();
  const auto batch_csv = run_and_capture(batch_cmd("run --set " + set));
  const auto batch_json =
      run_and_capture(batch_cmd("run --set " + set + " --format json"));
  ASSERT_TRUE(batch_csv.has_value());
  ASSERT_TRUE(batch_json.has_value());

  Scratch scratch;
  Daemon daemon({"--cache-dir", (scratch.path / "cache").string()});

  const Frame cold =
      roundtrip(daemon, R"({"op":"run","id":"cold","set":")" + set + "\"}");
  EXPECT_EQ(field(cold.header, "reply"), "ok");
  EXPECT_EQ(field(cold.header, "hits"), "0") << cold.header;
  EXPECT_EQ(field(cold.header, "uncacheable"), "0") << cold.header;
  const std::string misses = field(cold.header, "misses");
  EXPECT_NE(misses, "0");
  EXPECT_EQ(cold.payload, *batch_csv)
      << set << ": cold daemon payload drifted from rv_batch bytes";

  // Warm replay: 100% hits, zero misses, identical bytes.
  const Frame warm =
      roundtrip(daemon, R"({"op":"run","id":"warm","set":")" + set + "\"}");
  EXPECT_EQ(field(warm.header, "hits"), misses) << warm.header;
  EXPECT_EQ(field(warm.header, "misses"), "0") << warm.header;
  EXPECT_EQ(warm.payload, *batch_csv);

  // Other formats render from the same warm cache.
  const Frame json = roundtrip(
      daemon,
      R"({"op":"run","id":"j","set":")" + set + R"(","format":"json"})");
  EXPECT_EQ(field(json.header, "misses"), "0");
  EXPECT_EQ(json.payload, *batch_json);

  const Frame ack = roundtrip(daemon, R"({"op":"shutdown","id":"bye"})");
  EXPECT_EQ(ack.header, R"({"reply":"shutdown","id":"bye"})");
  EXPECT_EQ(daemon.wait_exit(), 0);
}

TEST_P(ServeConformance, WarmRestartFromPersistedCacheIsAllHits) {
  const std::string set = GetParam();
  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  std::string cold_payload;
  std::string cold_misses;
  {
    Daemon daemon({"--cache-dir", dir});
    const Frame cold =
        roundtrip(daemon, R"({"op":"run","id":"c","set":")" + set + "\"}");
    EXPECT_EQ(field(cold.header, "reply"), "ok");
    cold_payload = cold.payload;
    cold_misses = field(cold.header, "misses");
    daemon.close_stdin();
    EXPECT_EQ(daemon.wait_exit(), 0);
  }
  // A brand-new daemon over the same directory answers entirely from
  // the persisted cache: identical bytes, zero recomputation.
  Daemon warm({"--cache-dir", dir});
  const Frame replay =
      roundtrip(warm, R"({"op":"run","id":"w","set":")" + set + "\"}");
  EXPECT_EQ(field(replay.header, "hits"), cold_misses);
  EXPECT_EQ(field(replay.header, "misses"), "0");
  EXPECT_EQ(replay.payload, cold_payload);
}

INSTANTIATE_TEST_SUITE_P(BuiltinSets, ServeConformance,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const rv::engine::SetDecl& decl :
                                rv::batch::builtin_sets()) {
                             names.push_back(decl.name);
                           }
                           return names;
                         }()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------
// Raw .rvset bodies
// ---------------------------------------------------------------------

TEST_F(ServeDaemon, RvsetBodyRequestsMatchRvBatchSetFile) {
  std::vector<fs::path> decls;
  for (const auto& entry : fs::directory_iterator(sets_dir())) {
    if (entry.path().extension() == ".rvset") decls.push_back(entry.path());
  }
  std::sort(decls.begin(), decls.end());
  ASSERT_FALSE(decls.empty()) << "no .rvset files under " << sets_dir();
#if RV_UNDER_TSAN
  decls.resize(1);
#endif

  Scratch scratch;
  Daemon daemon({"--cache-dir", (scratch.path / "cache").string()});
  for (const fs::path& decl : decls) {
    const auto batch = run_and_capture(
        batch_cmd("run --set-file '" + decl.string() + "'"));
    ASSERT_TRUE(batch.has_value()) << decl;
    const std::string body = read_file(decl);
    const std::string header =
        R"({"op":"run","id":"body","body_bytes":)" +
        std::to_string(body.size()) + "}";
    const Frame cold = roundtrip(daemon, header, body, /*has_body=*/true);
    EXPECT_EQ(field(cold.header, "reply"), "ok") << decl << "\n" << cold.header;
    EXPECT_EQ(cold.payload, *batch)
        << decl << ": .rvset body payload drifted from rv_batch --set-file";
    const Frame warm = roundtrip(daemon, header, body, /*has_body=*/true);
    EXPECT_EQ(field(warm.header, "misses"), "0")
        << decl << ": warm .rvset replay recomputed";
    EXPECT_EQ(warm.payload, *batch);
  }
}

// ---------------------------------------------------------------------
// Malformed requests: structured errors, never a crash
// ---------------------------------------------------------------------

TEST_F(ServeDaemon, MalformedRequestsGetStructuredErrorsNeverACrash) {
  Daemon daemon;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"not json", "parse"},
      {R"({"op":"run"})", "parse"},                       // no set, no body
      {R"({"op":"launch","set":"x"})", "parse"},          // unknown op
      {R"({"op":"run","set":"x","set":"y"})", "parse"},   // duplicate key
      {R"({"op":"run","set":"x","color":"red"})", "parse"},  // unknown key
      {R"({"op":"run","set":"x","deadline_ms":-1})", "parse"},
      {R"({"op":"run","set":"x","format":"xml"})", "parse"},
      {R"({"op":"status","set":"x"})", "parse"},          // run-only key
      {R"({"op":"run","set":"no-such-set"})", "bad-set"},
      // Numbers outside double range: overflow, underflow, 400 digits.
      {R"({"op":"run","set":"x","deadline_ms":1e999})", "parse"},
      {R"({"op":"run","set":"x","deadline_ms":1e-999})", "parse"},
      {R"({"op":"run","body_bytes":)" + std::string(400, '9') + "}",
       "parse"},
  };
  for (const auto& [line, code] : cases) {
    const Frame reply = roundtrip(daemon, line);
    EXPECT_EQ(field(reply.header, "reply"), "error") << line;
    EXPECT_EQ(field(reply.header, "code"), code) << line;
  }
  // A rejected header's declared body is skipped, not read as requests.
  const Frame exclusive = roundtrip(
      daemon, R"({"op":"run","set":"x","body_bytes":1})", "x",
      /*has_body=*/true);
  EXPECT_EQ(field(exclusive.header, "code"), "parse");
  // A malformed .rvset body is a structured bad-set error too.
  const Frame bad_body = roundtrip(
      daemon, R"({"op":"run","id":"b","body_bytes":9})", "not a set",
      /*has_body=*/true);
  EXPECT_EQ(field(bad_body.header, "code"), "bad-set");

  // The daemon survived all of it: a valid request still answers.
  const Frame ok =
      roundtrip(daemon, R"({"op":"run","id":"ok","set":"linear-line"})");
  EXPECT_EQ(field(ok.header, "reply"), "ok");
  const Frame ack = roundtrip(daemon, R"({"op":"shutdown","id":"s"})");
  EXPECT_EQ(field(ack.header, "reply"), "shutdown");
  EXPECT_EQ(daemon.wait_exit(), 0);
}

TEST_F(ServeDaemon, RejectedHeaderSkipsItsDeclaredBody) {
  // Regression: the body of a header rejected for a bad `format` stayed
  // in the stream, and each of its lines got a reply of its own.
  Daemon daemon;
  const std::string body = "[linear]\ndistances = 1.0\n";
  ASSERT_EQ(body.size(), 25u);
  daemon.send(R"({"op":"run","id":"m","body_bytes":25,"format":"bogus"})"
              "\n" +
              body + "\n" + R"({"op":"status","id":"s"})" "\n");
  daemon.close_stdin();
  std::istringstream replies(daemon.read_all());
  EXPECT_EQ(daemon.wait_exit(), 0);
  std::vector<std::string> headers;
  std::string header;
  std::string payload;
  while (serve::read_frame(replies, &header, &payload)) {
    headers.push_back(header);
  }
  ASSERT_EQ(headers.size(), 2u);
  EXPECT_EQ(headers[0],
            R"({"reply":"error","id":"m","code":"parse","message":)"
            R"("'format' must be csv, json or table, got 'bogus'"})");
  EXPECT_EQ(field(headers[1], "reply"), "status");
  EXPECT_EQ(field(headers[1], "id"), "s");
}

TEST_F(ServeDaemon, ParseErrorRepliesEchoAValidId) {
  Daemon daemon;
  const Frame bad_format = roundtrip(
      daemon, R"({"op":"run","id":"f","set":"gather-fleet","format":"bogus"})");
  EXPECT_EQ(field(bad_format.header, "code"), "parse");
  EXPECT_EQ(field(bad_format.header, "id"), "f");
  // A header that is not JSON has no id to echo.
  const Frame not_json = roundtrip(daemon, R"({"op":"run","id":"g",)");
  EXPECT_EQ(field(not_json.header, "code"), "parse");
  EXPECT_EQ(field(not_json.header, "id"), "");
  const Frame ack = roundtrip(daemon, R"({"op":"shutdown","id":"q"})");
  EXPECT_EQ(field(ack.header, "reply"), "shutdown");
  EXPECT_EQ(daemon.wait_exit(), 0);
}

TEST_F(ServeDaemon, MixedFamilyBodyIsABadSetAndWritesNoFile) {
  // Regression: the body's cells ran and were persisted as an
  // inline-<hash>.rvcache, then emission failed with code "failed".
  Scratch scratch;
  const fs::path dir = scratch.path / "cache";
  Daemon daemon({"--cache-dir", dir.string()});
  const std::string body =
      "[linear]\ndistances = 1.0 2.0\n\n[search]\ndistances = 1.0\n"
      "radii = 0.5\n";
  const Frame reply = roundtrip(daemon,
                                R"({"op":"run","id":"m","body_bytes":)" +
                                    std::to_string(body.size()) + "}",
                                body, /*has_body=*/true);
  EXPECT_EQ(field(reply.header, "reply"), "error") << reply.header;
  EXPECT_EQ(field(reply.header, "code"), "bad-set") << reply.header;
  EXPECT_NE(field(reply.header, "message").find("homogeneous family"),
            std::string::npos)
      << reply.header;
  daemon.close_stdin();
  EXPECT_EQ(daemon.wait_exit(), 0);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    ADD_FAILURE() << "wrote " << entry.path();
  }
}

// ---------------------------------------------------------------------
// Status schema
// ---------------------------------------------------------------------

TEST_F(ServeDaemon, StatusSchemaIsPinned) {
  Scratch scratch;
  Daemon daemon({"--cache-dir", (scratch.path / "cache").string()});
  const Frame run =
      roundtrip(daemon, R"({"op":"run","id":"r","set":"linear-line"})");
  ASSERT_EQ(field(run.header, "reply"), "ok");
  const Frame status = roundtrip(daemon, R"({"op":"status","id":"s"})");
  EXPECT_EQ(mask_latency(status.header),
            R"({"reply":"status","id":"s","requests":2,"ok":1,"errors":0,)"
            R"("rejected":0,"expired":0,"hits":0,"misses":4,"uncacheable":0,)"
            R"("inflight":0,"queue_depth":0,"cache_entries":4,)"
            R"("compactions":0,"latency":{"count":1,"mean_ms":X,"max_ms":X}})");
}

// ---------------------------------------------------------------------
// Backpressure and deadlines (pinned deterministically)
// ---------------------------------------------------------------------

TEST_F(ServeDaemon, QueueFullBackpressureReplyIsPinned) {
  // One worker stalls on r1 (serve.dispatch delay, first hit only),
  // r2 fills the depth-1 queue, r3 must be rejected with the pinned
  // overloaded reply — and the rejection arrives FIRST (written inline
  // by the reader while the worker still sleeps).
  Daemon daemon({"--queue-depth", "1", "--retry-after-ms", "250"},
                "serve.dispatch=delay(1500),limit=1");
  daemon.send(R"({"op":"run","id":"r1","set":"linear-line"})" "\n");
  // Give the worker ample time to dequeue r1 and enter the delay.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  daemon.send(R"({"op":"run","id":"r2","set":"linear-line"})" "\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  daemon.send(R"({"op":"run","id":"r3","set":"linear-line"})" "\n");

  Frame rejected;
  daemon.read_frame(&rejected.header, &rejected.payload);
  EXPECT_EQ(rejected.header,
            R"x({"reply":"error","id":"r3","code":"overloaded",)x"
            R"x("retry_after_ms":250,)x"
            R"x("message":"admission queue full (depth 1)"})x");
  // r1 and r2 complete normally once the delay elapses.
  Frame first;
  Frame second;
  daemon.read_frame(&first.header, &first.payload);
  daemon.read_frame(&second.header, &second.payload);
  EXPECT_EQ(field(first.header, "id"), "r1");
  EXPECT_EQ(field(second.header, "id"), "r2");
  EXPECT_EQ(field(first.header, "reply"), "ok");
  EXPECT_EQ(field(second.header, "reply"), "ok");
  EXPECT_EQ(first.payload, second.payload);
}

TEST_F(ServeDaemon, DeadlineExpiryReplyIsPinned) {
  // The dispatch delay outlasts the request deadline, so the worker
  // finds the budget spent before building the set.
  Daemon daemon({}, "serve.dispatch=delay(400)");
  const Frame expired = roundtrip(
      daemon, R"({"op":"run","id":"d","set":"linear-line","deadline_ms":100})");
  EXPECT_EQ(expired.header,
            R"x({"reply":"error","id":"d","code":"deadline",)x"
            R"x("message":"deadline of 100.000 ms expired before dispatch )x"
            R"x((queue wait)"})x");
  const Frame status = roundtrip(daemon, R"({"op":"status","id":"s"})");
  EXPECT_EQ(field(status.header, "expired"), "1");
  EXPECT_EQ(field(status.header, "errors"), "1");
}

// ---------------------------------------------------------------------
// Chaos: serve.* failpoints
// ---------------------------------------------------------------------

TEST_F(ServeDaemon, AcceptFailpointErrorsAreStructuredReplies) {
  Daemon daemon({}, "serve.accept=error");
  const Frame reply =
      roundtrip(daemon, R"({"op":"run","id":"a","set":"linear-line"})");
  EXPECT_EQ(field(reply.header, "reply"), "error");
  EXPECT_EQ(field(reply.header, "code"), "failed");
  daemon.close_stdin();
  EXPECT_EQ(daemon.wait_exit(), 0);
}

TEST_F(ServeDaemon, CrashAfterFirstRequestLeavesDurableCacheForRestart) {
  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  std::string cold_payload;
  std::string cold_misses;
  {
    // First request computes and persists; the second crashes the
    // daemon mid-dispatch (exit 90).
    Daemon daemon({"--cache-dir", dir}, "serve.dispatch=crash(90),after=1");
    const Frame cold =
        roundtrip(daemon, R"({"op":"run","id":"c","set":"linear-line"})");
    ASSERT_EQ(field(cold.header, "reply"), "ok");
    cold_payload = cold.payload;
    cold_misses = field(cold.header, "misses");
    daemon.send(R"({"op":"run","id":"boom","set":"linear-line"})" "\n");
    daemon.close_stdin();
    EXPECT_EQ(daemon.wait_exit(), 90);
  }
  // The restarted daemon answers entirely from the surviving files.
  Daemon revived({"--cache-dir", dir});
  const Frame warm =
      roundtrip(revived, R"({"op":"run","id":"w","set":"linear-line"})");
  EXPECT_EQ(field(warm.header, "hits"), cold_misses);
  EXPECT_EQ(field(warm.header, "misses"), "0");
  EXPECT_EQ(warm.payload, cold_payload);
}

TEST_F(ServeDaemon, InlineBodiesSharingANameEachSurviveRestart) {
  // Two different inline bodies are both named "inline".  Persisting
  // the second must not replace the first's outcomes on disk.
  const auto body_run = [](Daemon& daemon, const std::string& distances) {
    const std::string body =
        "[linear]\nmode = zigzag-search\nvisibility = 1e-3\n"
        "distances = " + distances + "\nhorizon_rule = zigzag-reach+1\n";
    return roundtrip(daemon,
                     R"({"op":"run","id":"b","body_bytes":)" +
                         std::to_string(body.size()) + "}",
                     body, /*has_body=*/true);
  };
  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  std::string a_payload;
  {
    Daemon daemon({"--cache-dir", dir});
    const Frame a = body_run(daemon, "1.0 -2.0");
    ASSERT_EQ(field(a.header, "reply"), "ok") << a.header;
    EXPECT_EQ(field(a.header, "misses"), "2");
    a_payload = a.payload;
    const Frame c = body_run(daemon, "4.0 8.0");
    ASSERT_EQ(field(c.header, "reply"), "ok") << c.header;
    daemon.close_stdin();
    EXPECT_EQ(daemon.wait_exit(), 0);
  }
  Daemon revived({"--cache-dir", dir});
  const Frame again = body_run(revived, "1.0 -2.0");
  EXPECT_EQ(field(again.header, "misses"), "0");
  EXPECT_EQ(again.payload, a_payload);
}

TEST_F(ServeDaemon, PersistSavesOnlyTheRequestsMisses) {
  // The second body repeats the first's three cells and adds one: its
  // persist file must hold that one new outcome, not all four again.
  const std::string three =
      "[linear]\nmode = zigzag-search\nvisibility = 1e-3\n"
      "distances = 1.0 -2.0 4.0\nhorizon_rule = zigzag-reach+1\n";
  const std::string four =
      three +
      "\n[linear.add]\nmode = linear-rendezvous\nspeed = 1.5\n"
      "target = 1.0\nvisibility = 0.05\nmax_time = 1e4\n";
  const auto body_run = [](Daemon& daemon, const std::string& body) {
    return roundtrip(daemon,
                     R"({"op":"run","id":"b","body_bytes":)" +
                         std::to_string(body.size()) + "}",
                     body, /*has_body=*/true);
  };
  Scratch scratch;
  const fs::path dir = scratch.path / "cache";
  std::string four_payload;
  {
    Daemon daemon({"--cache-dir", dir.string()});
    const Frame first = body_run(daemon, three);
    ASSERT_EQ(field(first.header, "reply"), "ok") << first.header;
    EXPECT_EQ(field(first.header, "hits"), "0");
    EXPECT_EQ(field(first.header, "misses"), "3");
    const Frame second = body_run(daemon, four);
    ASSERT_EQ(field(second.header, "reply"), "ok") << second.header;
    EXPECT_EQ(field(second.header, "hits"), "3");
    EXPECT_EQ(field(second.header, "misses"), "1");
    four_payload = second.payload;
    daemon.close_stdin();
    EXPECT_EQ(daemon.wait_exit(), 0);
  }
  std::size_t records = 0;
  for (const fs::path& file : rv::engine::list_cache_files(dir)) {
    rv::engine::ScenarioCache loaded;
    records += rv::engine::load_cache_file(file, &loaded).loaded;
  }
  EXPECT_EQ(records, 4u);
  Daemon revived({"--cache-dir", dir.string()});
  const Frame again = body_run(revived, four);
  EXPECT_EQ(field(again.header, "misses"), "0");
  EXPECT_EQ(again.payload, four_payload);
}

TEST_F(ServeDaemon, TornReplyTruncatesExactlyAndDaemonStaysHealthy) {
  // Capture the expected full frame from a clean daemon first.
  std::string expected;
  {
    Daemon clean;
    const Frame reply =
        roundtrip(clean, R"({"op":"run","id":"t","set":"linear-line"})");
    expected = reply.header + "\n" + reply.payload + "\n";
  }
  // Same request with the reply writer torn at 25 bytes (first reply
  // only): the stream carries exactly the 25-byte prefix, and the
  // daemon still exits cleanly — a torn write never wedges it.
  Daemon torn({}, "serve.reply=torn_write(25),limit=1");
  torn.send(R"({"op":"run","id":"t","set":"linear-line"})" "\n");
  torn.close_stdin();
  const std::string bytes = torn.read_all();
  EXPECT_EQ(bytes, expected.substr(0, 25));
  EXPECT_EQ(torn.wait_exit(), 0);

  // The library decoder reports the truncation as a torn frame.
  std::istringstream stream(bytes);
  std::string header;
  std::string payload;
  EXPECT_THROW((void)serve::read_frame(stream, &header, &payload),
               serve::ServeError);
}

// ---------------------------------------------------------------------
// Forked dispatch: supervisor kill/partial semantics
// ---------------------------------------------------------------------

class ServeForked : public ServeDaemon {
 protected:
  void SetUp() override {
    ServeDaemon::SetUp();
#if RV_UNDER_TSAN
    GTEST_SKIP() << "TSan: threads after multi-threaded fork unsupported";
#endif
  }
};

TEST_F(ServeForked, ForkedDispatchMatchesRvBatchBytes) {
  const auto batch = run_and_capture(batch_cmd("run --set linear-line"));
  ASSERT_TRUE(batch.has_value());
  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  Daemon daemon({"--cache-dir", dir, "--procs", "2"});
  const Frame cold =
      roundtrip(daemon, R"({"op":"run","id":"f","set":"linear-line"})");
  EXPECT_EQ(field(cold.header, "reply"), "ok");
  EXPECT_EQ(field(cold.header, "misses"), "4");
  EXPECT_EQ(cold.payload, *batch);
  // The children's hand-offs never reach the cache dir: it holds each
  // outcome once, in the request's persist file.
  const std::vector<fs::path> files = rv::engine::list_cache_files(dir);
  ASSERT_EQ(files.size(), 1u);
  rv::engine::ScenarioCache loaded;
  const rv::engine::CacheLoadStats stats =
      rv::engine::load_cache_file(files[0], &loaded);
  EXPECT_EQ(stats.loaded, 4u);
  EXPECT_EQ(stats.duplicates, 0u);
  const Frame warm =
      roundtrip(daemon, R"({"op":"run","id":"w","set":"linear-line"})");
  EXPECT_EQ(field(warm.header, "hits"), "4");
  EXPECT_EQ(warm.payload, *batch);
  daemon.close_stdin();
  EXPECT_EQ(daemon.wait_exit(), 0);
  Daemon revived({"--cache-dir", dir, "--procs", "2"});
  const Frame again =
      roundtrip(revived, R"({"op":"run","id":"r","set":"linear-line"})");
  EXPECT_EQ(field(again.header, "misses"), "0");
  EXPECT_EQ(again.payload, *batch);
}

TEST_F(ServeForked, FailedShardYieldsPinnedPartialReply) {
  Scratch scratch;
  // Shard 1 crashes every attempt; the request opted into partial
  // results, so the reply is the surviving strided subset with the
  // lost global indices named (linear-line: shard 1 of 2 owns 1, 3).
  Daemon daemon({"--cache-dir", (scratch.path / "cache").string(), "--procs",
                 "2"},
                "shard.worker.start=crash(87),index=1");
  const Frame partial = roundtrip(
      daemon, R"({"op":"run","id":"p","set":"linear-line","partial":true})");
  EXPECT_EQ(field(partial.header, "reply"), "partial");
  EXPECT_EQ(field(partial.header, "hits"), "0");
  EXPECT_EQ(field(partial.header, "misses"), "4");
  EXPECT_NE(partial.header.find("\"missing_indices\":[1,3]"),
            std::string::npos)
      << partial.header;
  // The surviving subset matches rv_batch --partial over the same
  // failure (shard 1 of 2 lost).
  const auto batch = run_and_capture(
      batch_cmd("run --set linear-line --shard 0/2 --cache-dir '" +
                (scratch.path / "ref").string() + "'"));
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(partial.payload, *batch)
      << "partial payload must equal the surviving shard's document";
}

TEST_F(ServeForked, PartialReplyThatLostEveryItemKeepsItsFamilysHeader) {
  const auto batch = run_and_capture(batch_cmd("run --set linear-line"));
  ASSERT_TRUE(batch.has_value());
  Scratch scratch;
  // Every shard crashes every attempt: nothing survives.
  Daemon daemon({"--cache-dir", (scratch.path / "cache").string(), "--procs",
                 "2"},
                "shard.worker.start=crash(87)");
  const Frame partial = roundtrip(
      daemon, R"({"op":"run","id":"p","set":"linear-line","partial":true})");
  EXPECT_EQ(field(partial.header, "reply"), "partial") << partial.header;
  EXPECT_NE(partial.header.find("\"missing_indices\":[0,1,2,3]"),
            std::string::npos)
      << partial.header;
  EXPECT_EQ(partial.payload, batch->substr(0, batch->find('\n') + 1))
      << "an empty document still carries the linear header";
}

TEST_F(ServeForked, FailedShardWithoutPartialIsAFailedReply) {
  Scratch scratch;
  Daemon daemon({"--cache-dir", (scratch.path / "cache").string(), "--procs",
                 "2"},
                "shard.worker.start=crash(87),index=0");
  const Frame failed =
      roundtrip(daemon, R"({"op":"run","id":"f","set":"linear-line"})");
  EXPECT_EQ(failed.header,
            R"x({"reply":"error","id":"f","code":"failed",)x"
            R"x("message":"shards failed after retries: 0 (request 'partial' )x"
            R"x(to accept the surviving subset)"})x");
}

/// Eight copies of one zigzag-search cell plus one linear-rendezvous
/// cell: nine items, two distinct keys.
const std::string kRepeatedCells =
    "[linear]\nmode = zigzag-search\nvisibility = 1e-3\n"
    "distances = 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0\n"
    "horizon_rule = zigzag-reach+1\n"
    "\n[linear.add]\nmode = linear-rendezvous\nspeed = 1.5\n"
    "target = 1.0\nvisibility = 0.05\nmax_time = 1e4\n";

/// "hits=H misses=M" as rv_batch's stderr summary line reports it.
std::string batch_counts(const std::string& args) {
  const auto err = run_and_capture(batch_cmd(args) + " 2>&1 >/dev/null");
  if (!err) return "";
  const std::size_t start = err->find("hits=");
  const std::size_t end = err->find(" uncacheable=", start);
  if (start == std::string::npos || end == std::string::npos) return *err;
  return err->substr(start, end - start);
}

/// What a cache directory holds: its cache files, the distinct keys
/// and duplicate records across them, and whether a hand-off entry
/// (`.handoff*`) was left behind.
struct DirState {
  std::vector<fs::path> files;
  std::size_t distinct = 0;
  std::size_t duplicates = 0;
  bool handoff = false;
};

DirState dir_state(const fs::path& dir) {
  DirState state;
  rv::engine::ScenarioCache cache;
  state.files = rv::engine::list_cache_files(dir);
  for (const fs::path& file : state.files) {
    state.duplicates += rv::engine::load_cache_file(file, &cache).duplicates;
  }
  state.distinct = cache.size();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(".handoff", 0) == 0) {
      state.handoff = true;
    }
  }
  return state;
}

TEST_F(ServeForked, EveryPathReportsTheSameCounts) {
  Scratch scratch;
  const fs::path set_file = scratch.path / "repeated.rvset";
  std::ofstream(set_file) << kRepeatedCells;
  /// One rv_batch mode and the counts it reports cold, then warm.
  struct Mode {
    std::string flags;
    std::string cold;
    std::string warm;
  };
  struct Case {
    std::string batch_set;  ///< rv_batch's set arguments
    std::string request;    ///< rv_serve's request header
    std::string body;       ///< its body, if any
    std::vector<Mode> modes;  ///< whole-set modes first, then the shards
  };
  // kRepeatedCells: items 0-7 are one cell, item 8 another; shard 0/2
  // owns 0, 2, 4, 6, 8 and shard 1/2 owns 1, 3, 5, 7.
  const std::vector<Case> cases = {
      {"--set-file '" + set_file.string() + "'",
       R"({"op":"run","id":"r","body_bytes":)" +
           std::to_string(kRepeatedCells.size()) + "}",
       kRepeatedCells,
       {{"--threads 1", "hits=7 misses=2", "hits=9 misses=0"},
        {"--threads 4", "hits=7 misses=2", "hits=9 misses=0"},
        {"--procs 2", "hits=7 misses=2", "hits=9 misses=0"},
        {"--shard 0/2", "hits=3 misses=2", "hits=5 misses=0"},
        {"--shard 1/2", "hits=3 misses=1", "hits=4 misses=0"}}},
      {"--set linear-line", R"({"op":"run","id":"r","set":"linear-line"})",
       "",
       {{"--threads 1", "hits=0 misses=4", "hits=4 misses=0"},
        {"--threads 4", "hits=0 misses=4", "hits=4 misses=0"},
        {"--procs 2", "hits=0 misses=4", "hits=4 misses=0"},
        {"--shard 0/2", "hits=0 misses=2", "hits=2 misses=0"},
        {"--shard 1/2", "hits=0 misses=2", "hits=2 misses=0"}}},
  };
  int dirs = 0;
  const auto fresh_dir = [&] { return scratch.path / std::to_string(++dirs); };
  // A cold pass leaves one new file holding each computed key once; a
  // warm pass adds nothing; neither leaves a hand-off behind.
  const auto check_cold = [](const fs::path& dir, const std::string& counts,
                             const std::string& what) {
    const DirState state = dir_state(dir);
    const std::size_t misses = std::stoul(
        counts.substr(counts.find("misses=") + std::string("misses=").size()));
    EXPECT_EQ(state.files.size(), 1u) << what;
    EXPECT_EQ(state.distinct, misses) << what;
    EXPECT_EQ(state.duplicates, 0u) << what;
    EXPECT_FALSE(state.handoff) << what;
    return state;
  };
  const auto check_warm = [](const fs::path& dir, const DirState& cold,
                             const std::string& what) {
    const DirState state = dir_state(dir);
    EXPECT_EQ(state.files, cold.files) << what;
    EXPECT_FALSE(state.handoff) << what;
  };
  for (const Case& c : cases) {
    for (const Mode& mode : c.modes) {
      const fs::path dir = fresh_dir();
      const std::string args = "run " + c.batch_set + " " + mode.flags +
                               " --cache-dir '" + dir.string() + "'";
      EXPECT_EQ(batch_counts(args), mode.cold) << args;
      const DirState cold = check_cold(dir, mode.cold, args);
      EXPECT_EQ(batch_counts(args), mode.warm) << args;
      check_warm(dir, cold, args);
    }
    for (const std::string procs : {"1", "2"}) {
      const fs::path dir = fresh_dir();
      const std::string what = c.request + " procs " + procs;
      DirState cold;
      for (const bool warm : {false, true}) {
        // The warm pass is a restarted daemon on the same directory.
        const std::string& want =
            warm ? c.modes.front().warm : c.modes.front().cold;
        Daemon daemon({"--cache-dir", dir.string(), "--procs", procs});
        const Frame reply =
            roundtrip(daemon, c.request, c.body, !c.body.empty());
        EXPECT_EQ("hits=" + field(reply.header, "hits") +
                      " misses=" + field(reply.header, "misses"),
                  want)
            << what;
        daemon.close_stdin();
        EXPECT_EQ(daemon.wait_exit(), 0);
        if (warm) {
          check_warm(dir, cold, what);
        } else {
          cold = check_cold(dir, want, what);
        }
      }
    }
  }
  // Partly warm: a forked run computes only what the shard left out,
  // and stores nothing twice.
  const fs::path dir = fresh_dir();
  const std::string run =
      "run --set linear-line --cache-dir '" + dir.string() + "'";
  EXPECT_EQ(batch_counts(run + " --shard 0/3"), "hits=0 misses=2");
  EXPECT_EQ(batch_counts(run + " --procs 2"), "hits=2 misses=2");
  const DirState state = dir_state(dir);
  EXPECT_EQ(state.files.size(), 2u);
  EXPECT_EQ(state.distinct, 4u);
  EXPECT_EQ(state.duplicates, 0u);
  EXPECT_FALSE(state.handoff);
}

// ---------------------------------------------------------------------
// Compaction timer
// ---------------------------------------------------------------------

TEST_F(ServeDaemon, CompactionTimerFoldsTheCacheDirectory) {
  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  std::string cold_payload;
  {
    Daemon daemon({"--cache-dir", dir, "--compact-interval-sec", "0.2"});
    const Frame cold =
        roundtrip(daemon, R"({"op":"run","id":"c","set":"linear-line"})");
    ASSERT_EQ(field(cold.header, "reply"), "ok");
    cold_payload = cold.payload;
    // Poll status until the timer has fired at least once.
    std::uint64_t compactions = 0;
    for (int attempt = 0; attempt < 100 && compactions == 0; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const Frame status = roundtrip(
          daemon, R"({"op":"status","id":"s)" + std::to_string(attempt) +
                      "\"}");
      compactions = std::stoull(field(status.header, "compactions"));
    }
    EXPECT_GE(compactions, 1u) << "compaction timer never fired";
    daemon.close_stdin();
    EXPECT_EQ(daemon.wait_exit(), 0);
  }
  // The directory was folded into the canonical output, and a warm
  // restart replays everything from it.
  EXPECT_EQ(rv::engine::list_cache_files(dir),
            std::vector<fs::path>{fs::path(dir) / "compact.rvcache"});
  Daemon revived({"--cache-dir", dir});
  const Frame warm =
      roundtrip(revived, R"({"op":"run","id":"w","set":"linear-line"})");
  EXPECT_EQ(field(warm.header, "misses"), "0");
  EXPECT_EQ(warm.payload, cold_payload);
}

// ---------------------------------------------------------------------
// Unix socket transport
// ---------------------------------------------------------------------

TEST_F(ServeDaemon, UnixSocketServesTheSameBytes) {
  const auto batch = run_and_capture(batch_cmd("run --set linear-line"));
  ASSERT_TRUE(batch.has_value());
  Scratch scratch;
  const std::string socket_path = (scratch.path / "rv.sock").string();

  const pid_t pid = fork();
  if (pid == 0) {
    execl(rv_serve_binary().c_str(), rv_serve_binary().c_str(), "--quiet",
          "--socket", socket_path.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  // Wait for the listener to appear.
  int fd = -1;
  for (int attempt = 0; attempt < 100; ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_GE(fd, 0) << "could not connect to " << socket_path;

  const std::string request = R"({"op":"run","id":"s","set":"linear-line"})"
                              "\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  FdReadBuf buffer(fd);
  std::istream stream(&buffer);
  std::string header;
  std::string payload;
  ASSERT_TRUE(serve::read_frame(stream, &header, &payload));
  EXPECT_EQ(field(header, "reply"), "ok");
  EXPECT_EQ(payload, *batch);

  const std::string shutdown_req = R"({"op":"shutdown","id":"x"})" "\n";
  ASSERT_EQ(::write(fd, shutdown_req.data(), shutdown_req.size()),
            static_cast<ssize_t>(shutdown_req.size()));
  ASSERT_TRUE(serve::read_frame(stream, &header, &payload));
  EXPECT_EQ(header, R"({"reply":"shutdown","id":"x"})");
  ::close(fd);

  int status = 0;
  waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---------------------------------------------------------------------
// In-process protocol units (no daemon)
// ---------------------------------------------------------------------

TEST(ServeRequestParse, StrictHeaderGrammar) {
  const serve::Request run = serve::parse_request(
      R"({"op":"run","id":"a","set":"s","format":"json",)"
      R"("deadline_ms":12.5,"partial":true})");
  EXPECT_EQ(run.op, serve::Op::kRun);
  EXPECT_EQ(run.id, "a");
  EXPECT_EQ(run.set, "s");
  EXPECT_EQ(run.format, "json");
  EXPECT_DOUBLE_EQ(run.deadline_ms, 12.5);
  EXPECT_TRUE(run.partial);

  const serve::Request body =
      serve::parse_request(R"({"op":"run","body_bytes":42})");
  EXPECT_TRUE(body.has_body);
  EXPECT_EQ(body.body_bytes, 42u);

  const auto code = [](const std::string& line) {
    try {
      (void)serve::parse_request(line);
    } catch (const serve::ServeError& error) {
      return error.code();
    }
    return std::string("no-error");
  };
  EXPECT_EQ(code(R"({"op":"run","set":"s"} trailing)"), "parse");
  EXPECT_EQ(code(R"({"op":"run","body_bytes":1.5})"), "parse");
  EXPECT_EQ(code(R"({"op":"run","body_bytes":-1})"), "parse");
  EXPECT_EQ(code(R"({"op":"shutdown","format":"csv"})"), "parse");
  EXPECT_EQ(code(R"({"op":"run","set":""})"), "parse");
  EXPECT_EQ(code(""), "parse");
  EXPECT_EQ(code(R"({"op":"run","set":"s")"), "parse");  // unterminated
  EXPECT_EQ(code(R"({"op":"run","set":"s","deadline_ms":1e999})"), "parse");
  EXPECT_EQ(code(R"({"op":"run","set":"s","deadline_ms":1e-999})"), "parse");
  EXPECT_EQ(code(R"({"op":"run","body_bytes":)" + std::string(400, '9') + "}"),
            "parse");
  // RFC 8259 whitespace, so a CRLF-terminated header line parses.
  EXPECT_EQ(code("{\"op\":\"status\",\r\n\"id\":\"c\"}\r"), "no-error");

  // A well-formed header is read whole before its first error is
  // thrown: the error keeps the valid id and body size.
  const auto rejected = [](const std::string& line) {
    try {
      (void)serve::parse_request(line);
    } catch (const serve::RequestError& error) {
      return std::make_pair(error.request().id,
                            error.request().has_body
                                ? static_cast<long>(error.request().body_bytes)
                                : -1L);
    }
    return std::make_pair(std::string("no-error"), -1L);
  };
  EXPECT_EQ(rejected(R"({"op":"run","set":"s","color":1,"id":"k"})"),
            std::make_pair(std::string("k"), -1L));
  EXPECT_EQ(rejected(R"({"op":"run","set":"s","body_bytes":7,"id":"b"})"),
            std::make_pair(std::string("b"), 7L));
  EXPECT_EQ(rejected(R"({"op":"run","id":"d","id":"e","set":"s"})"),
            std::make_pair(std::string("d"), -1L));
  EXPECT_EQ(rejected(R"({"op":"run","id":"","body_bytes":3})"),
            std::make_pair(std::string(""), 3L));
  EXPECT_EQ(rejected(R"({"op":"run","id":"j","format":"x"} trailing)"),
            std::make_pair(std::string(""), -1L));
  // The first error is the one reported.
  try {
    (void)serve::parse_request(
        R"({"op":"run","set":"s","format":"x","color":1})");
    ADD_FAILURE() << "no error";
  } catch (const serve::RequestError& error) {
    EXPECT_STREQ(error.what(), "'format' must be csv, json or table, got 'x'");
  }
}

TEST(ServeFrame, RoundTripsThroughReadFrame) {
  const std::string ok =
      serve::frame(R"({"reply":"ok","id":"1","bytes":5,"hits":0,)"
                   R"("misses":1,"uncacheable":0})",
                   "a,b\nc", true);
  const std::string error = serve::error_frame("2", "parse", "boom\nline");
  std::istringstream stream(ok + error);
  std::string header;
  std::string payload;
  ASSERT_TRUE(serve::read_frame(stream, &header, &payload));
  EXPECT_EQ(payload, "a,b\nc");
  ASSERT_TRUE(serve::read_frame(stream, &header, &payload));
  EXPECT_EQ(header,
            R"({"reply":"error","id":"2","code":"parse",)"
            R"("message":"boom\nline"})");
  EXPECT_TRUE(payload.empty());
  EXPECT_FALSE(serve::read_frame(stream, &header, &payload));
}

}  // namespace
