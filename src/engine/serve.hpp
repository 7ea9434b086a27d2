#pragma once

/// \file serve.hpp
/// The scenario engine as a long-lived service.
///
/// `rv_batch` answers one sweep per process; every invocation re-loads
/// the persistent cache, runs, and exits.  The serve layer keeps one
/// process resident: a `Service` warm-loads the cache directory once,
/// then answers request after request.  Each request is classified
/// once (`engine::classify`) and run by `engine::execute`, the path
/// `rv_batch run` takes too: hits replay straight from the in-memory
/// `ScenarioCache`, never recomputed; misses are computed in-process
/// or first by forked shard workers (`Options::procs > 1`), and the
/// misses alone are persisted (`engine::persist_misses`).  The payload
/// is **byte-identical to `rv_batch run`** on the same declaration —
/// the conformance property tests/test_serve.cpp pins and CI re-diffs.
///
/// ## Wire protocol (newline-delimited JSON, optional raw bodies)
///
/// One request is one LF-terminated JSON object (a strict flat object;
/// unknown or duplicate keys are errors), optionally followed by a raw
/// `.rvset` body:
///
///     {"op":"run","id":"r1","set":"linear-line","format":"csv"}
///     {"op":"run","id":"r2","body_bytes":164}
///     <164 bytes of .rvset text><LF>
///     {"op":"status","id":"s1"}
///     {"op":"shutdown"}
///
/// Header keys:
///   * `op`          — "run" | "status" | "shutdown" (required);
///   * `id`          — string echoed in the reply (defaults to the
///                     admission sequence number);
///   * `set`         — a set name resolved by `ServeOptions::resolver`
///                     (rv_serve installs the rv_batch built-ins);
///   * `body_bytes`  — exactly this many raw bytes of `.rvset`
///                     declaration text follow the header line, then
///                     one terminating LF (exclusive with `set`);
///   * `format`      — "csv" | "json" | "table" (default "csv");
///   * `deadline_ms` — per-request deadline from admission; 0 (the
///                     default) disables it;
///   * `partial`     — with forked dispatch, accept an incomplete
///                     reply when shards fail (mirrors `rv_batch
///                     --partial`).
///
/// Replies are *frames*: one LF-terminated JSON header line and, when
/// the header carries a `"bytes":N` field, exactly N payload bytes
/// plus one trailing LF.  Every frame leaves through one writer (the
/// `serve.reply` failpoint site — the only place `torn_write` can
/// truncate), and the header's key order is fixed, so tests pin exact
/// bytes:
///
///     {"reply":"ok","id":"r1","bytes":N,"hits":H,"misses":M,
///      "uncacheable":U}            + N payload bytes + LF
///     {"reply":"partial",...,"missing_indices":[3,7]}   (as ok)
///     {"reply":"error","id":"r1","code":"parse","message":"..."}
///     {"reply":"error","id":"r1","code":"overloaded",
///      "retry_after_ms":100,"message":"..."}
///     {"reply":"status","id":"s1",...counters...}
///     {"reply":"shutdown","id":"s2"}          (shutdown acknowledged)
///
/// Error codes: `parse` (malformed header/body), `bad-set` (unknown
/// set name or `.rvset` declaration error), `overloaded` (admission
/// queue full — retry after `retry_after_ms`), `deadline` (the
/// request's deadline expired before or during dispatch), `failed`
/// (dispatch failed for another reason).  A malformed request always
/// gets a structured error reply — never a crash, never a torn
/// stream: the reader resynchronises at the next LF, past the body a
/// rejected well-formed header declared (see `RequestError`).
///
/// Failpoint sites (chaos hooks, see engine/failpoint.hpp):
/// `serve.accept` (admission, index = request seq), `serve.dispatch`
/// (worker dequeue, index = request seq), `serve.reply` (the framed
/// writer — the only site honouring `torn_write`).  Forked dispatch
/// goes through `engine::execute`, so its children fire
/// `shard.worker.start` (index = shard id) like `rv_batch --procs`.
///
/// Determinism: computed payload bytes stay a pure function of the
/// scenario inputs.  The clocks consulted here pace deadlines,
/// latency counters, and the compaction timer only — none of it feeds
/// payload bytes (the same contract as engine/supervisor.hpp).

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "engine/cache_store.hpp"
#include "engine/runner.hpp"
#include "engine/scenario_set.hpp"
#include "engine/supervisor.hpp"

namespace rv::engine::serve {

/// A structured protocol failure: `code()` is the wire error code the
/// reply carries (`parse`, `bad-set`, `deadline`, `failed`, ...),
/// `what()` the human-readable message.
class ServeError : public std::runtime_error {
 public:
  ServeError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  [[nodiscard]] const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

enum class Op : std::uint8_t { kRun, kStatus, kShutdown };

/// One parsed request header (plus its body, once read).
struct Request {
  Op op = Op::kRun;
  std::string id;           ///< echoed; defaulted to the admission sequence
  std::string set;          ///< named set (resolver), exclusive with body
  bool has_body = false;    ///< header declared `body_bytes`
  std::size_t body_bytes = 0;
  std::string body;         ///< raw `.rvset` declaration text
  std::string format = "csv";
  double deadline_ms = 0.0; ///< 0 = no deadline
  bool partial = false;
  // Filled at admission by `Service::submit`:
  std::uint64_t seq = 0;
  double admitted_ms = 0.0; ///< service monotonic clock at admission
};

/// The `parse` error of a request header.  `parse_request` reads a
/// well-formed JSON header whole before it throws, so `request()` holds
/// the header's valid `id` (echoed in the error reply) and its valid
/// `body_bytes` (which `serve_stream` skips, so the body's lines are not
/// read as requests).  For a header that is not JSON, or not a flat
/// object of the expected value types, `request()` is empty.
class RequestError : public ServeError {
 public:
  RequestError(const std::string& message, Request request)
      : ServeError("parse", message), request_(std::move(request)) {}
  [[nodiscard]] const Request& request() const noexcept { return request_; }

 private:
  Request request_;
};

/// Upper bound on one request header line; longer lines are a `parse`
/// error (the reader still resynchronises at the next LF).
inline constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
/// Upper bound on a declared `.rvset` body.
inline constexpr std::size_t kMaxBodyBytes = 8 * 1024 * 1024;

/// Parses one request header line (strict flat JSON object read with
/// `io::JsonReader`, so RFC 8259 whitespace including a trailing CR is
/// accepted; see the file comment for keys).  \throws RequestError on any
/// malformed input — unknown keys, duplicate keys, wrong types,
/// missing `op`, `set` together with `body_bytes`, oversized bodies.
/// The message is the header's first error.
[[nodiscard]] Request parse_request(std::string_view header_line);

/// Counters returned by a `status` request (and `Service::counters`).
/// `inflight`/`queue_depth`/`cache_entries` are point-in-time
/// snapshots; everything else accumulates from service start.
struct Counters {
  std::uint64_t requests = 0;    ///< requests seen, every op (incl. rejected)
  std::uint64_t ok = 0;          ///< ok + partial replies
  std::uint64_t errors = 0;      ///< error replies (incl. rejections)
  std::uint64_t rejected = 0;    ///< queue-full `overloaded` rejections
  std::uint64_t expired = 0;     ///< `deadline` error replies
  std::uint64_t hits = 0;        ///< cells answered from the warm cache
  std::uint64_t misses = 0;      ///< cells computed (then cached)
  std::uint64_t uncacheable = 0; ///< cells with no content key
  std::uint64_t inflight = 0;    ///< run requests queued or executing
  std::uint64_t queue_depth = 0; ///< run requests waiting in the queue
  std::uint64_t compactions = 0; ///< compaction-timer runs completed
  std::uint64_t latency_count = 0;  ///< completed run requests
  double latency_total_ms = 0.0;    ///< sum of admission->reply latencies
  double latency_max_ms = 0.0;      ///< worst admission->reply latency
  std::size_t cache_entries = 0;    ///< in-memory ScenarioCache size
};

/// Service configuration.
struct Options {
  /// Bound of the run-request admission queue; a request arriving with
  /// the queue full is rejected with an `overloaded` error reply
  /// carrying `retry_after_ms` (backpressure, not blocking).
  std::size_t queue_depth = 64;
  /// Worker threads draining the queue.  One worker (the default)
  /// replies in admission order — the deterministic mode conformance
  /// tests pin; more workers trade ordering for throughput.
  unsigned workers = 1;
  /// Runner threads per dispatch (0 = hardware concurrency); with
  /// procs > 1 each forked worker gets threads / procs (at least 1).
  unsigned threads = 0;
  /// Forked shard workers per dispatch; 1 (the default) computes
  /// misses in-process.  > 1 requires `cache_dir` (children hand their
  /// outcomes back through a private directory inside it).
  std::size_t procs = 1;
  /// Persistent cache directory: warm-loaded at construction, misses
  /// persisted back after each run.  Empty disables persistence.
  std::filesystem::path cache_dir;
  /// When > 0, a timer thread runs `compact_cache_dir(cache_dir,
  /// compact)` every this-many seconds.
  double compact_interval_sec = 0.0;
  CompactOptions compact;  ///< eviction knobs of the timer
  /// `retry_after_ms` value carried by `overloaded` rejections.
  std::uint64_t retry_after_ms = 100;
  /// Supervision of forked dispatch (retries/backoff); a request
  /// deadline overrides `timeout_sec` with its remaining budget.
  SupervisorOptions supervisor;
  /// Resolves `"set":NAME` requests to a declaration.  Throws
  /// std::invalid_argument for unknown names (replied as `bad-set`).
  /// Null rejects every named-set request.
  std::function<ScenarioSet(const std::string&)> resolver;
  /// Optional diagnostic sink (rv_serve wires stderr).  Never receives
  /// payload bytes.
  std::function<void(const std::string&)> log;
};

/// Assembles one reply frame: `header + LF` and, when `payload` is
/// attached (headers carrying a `bytes` field), `payload + LF`.
[[nodiscard]] std::string frame(const std::string& header,
                                std::string_view payload = {},
                                bool has_payload = false);

/// Builds a framed `error` reply.
[[nodiscard]] std::string error_frame(const std::string& id,
                                      const std::string& code,
                                      const std::string& message);


/// The resident engine: one warm cache, one admission queue, worker
/// threads, an optional compaction timer.  Thread-safe: `submit` may
/// be called from any number of reader threads.
class Service {
 public:
  /// What `submit` did with the request.
  enum class Admission : std::uint8_t {
    kQueued,   ///< accepted; the sink fires when a worker finishes
    kReplied,  ///< answered inline (status, rejection, inline error)
    kShutdown, ///< shutdown acknowledged; drain and stop reading
  };
  /// Receives exactly one complete reply frame per submitted request.
  /// Called from the submitting thread (inline replies) or a worker.
  using Sink = std::function<void(const std::string&)>;

  /// Warm-loads `options.cache_dir` and starts workers/timer.
  /// \throws std::invalid_argument on inconsistent options (procs > 1
  /// without a cache_dir, zero workers, zero queue depth).
  explicit Service(Options options);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admits one parsed request (body already attached).  Stamps
  /// seq/id/admission time; status and rejections reply inline, run
  /// requests are queued.  The sink always receives exactly one frame
  /// (for kQueued, later, from a worker thread).
  Admission submit(Request request, Sink sink);

  /// Parse + submit + wait: the synchronous in-process client used by
  /// stress tests.  Returns the complete reply frame (including error
  /// frames for malformed headers — this never throws protocol
  /// errors).
  [[nodiscard]] std::string process(const std::string& header_line,
                                    std::string_view body = {});

  /// Counts one rejected request (requests + errors) and builds its
  /// error frame — the reader-side path for headers that never reach
  /// `submit` (parse failures, torn bodies), so every reply written to
  /// the wire is accounted for.
  [[nodiscard]] std::string reject(const std::string& id,
                                   const std::string& code,
                                   const std::string& message);

  /// Forwards a diagnostic line to `Options::log` (reader loops use
  /// this for delivery failures).
  void note_failure(const std::string& message) const;

  /// Blocks until the queue is empty and every worker is idle.
  void drain();

  /// Point-in-time counters (what a `status` request reports).
  [[nodiscard]] Counters counters() const;

  /// Entries in the in-memory cache.
  [[nodiscard]] std::size_t cache_size() const;

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  struct Pending {
    Request request;
    Sink sink;
  };
  struct Reply {
    std::string payload;
    CacheStats stats;
    std::vector<std::size_t> missing;  ///< partial: global indices lost
  };

  void worker_loop();
  void compactor_loop();
  [[nodiscard]] std::string execute(const Request& request);
  [[nodiscard]] Reply execute_run(const Request& request);
  [[nodiscard]] std::string status_header(const Request& request) const;
  void note(const std::string& message) const;

  Options options_;
  ScenarioCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;   ///< workers wait for work
  std::condition_variable drain_cv_;   ///< drain() waits for idle
  std::deque<Pending> queue_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t active_ = 0;    ///< requests currently executing
  std::uint64_t replying_ = 0;  ///< replies being delivered (drain() waits;
                                ///< excluded from `inflight` so a client that
                                ///< has read its reply sees settled counters)
  bool stopping_ = false;
  Counters counters_;

  std::mutex disk_mutex_;  ///< serialises cache-dir writes vs compaction

  std::condition_variable compact_cv_;  ///< wakes the timer for shutdown
  std::vector<std::thread> workers_;
  std::thread compactor_;
};

/// Pumps requests from `in` and writes reply frames to `out` until EOF
/// or a `shutdown` request (drains queued work before returning; true
/// iff a shutdown ended the loop — socket daemons use that to stop
/// accepting).  This is the daemon's reader loop: header parse errors
/// become structured `parse` replies and reading resynchronises at the
/// next LF.  All frames leave through one internal writer (the
/// `serve.reply` failpoint site).
bool serve_stream(Service& service, std::istream& in, std::ostream& out);

}  // namespace rv::engine::serve
