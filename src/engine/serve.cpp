#include "engine/serve.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <future>
#include <istream>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "engine/failpoint.hpp"
#include "engine/set_decl.hpp"
#include "engine/shard.hpp"
#include "io/json.hpp"

namespace rv::engine::serve {
namespace {

/// Monotonic milliseconds — paces deadlines, latency counters and the
/// compaction timer only; never feeds payload bytes (the supervisor's
/// contract, see engine/supervisor.hpp).
double now_ms() {
  // rv-lint: allow(nondeterminism) — serve pacing/latency only, never output
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(t).count();
}

/// Fixed-precision milliseconds for status latency fields.
std::string fmt_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

}  // namespace

// --------------------------------------------------------------------
// Request parsing
// --------------------------------------------------------------------

Request parse_request(std::string_view header_line) {
  if (header_line.size() > kMaxHeaderBytes) {
    throw RequestError("request header exceeds " +
                           std::to_string(kMaxHeaderBytes) + " bytes",
                       {});
  }
  Request req;
  std::string op;
  std::string key;
  std::set<std::string> seen;
  bool have_extras = false;  // any run-only key on a non-run op
  // The first semantic error, thrown once the whole object is read, so
  // the reply can echo a valid `id` and the pump can skip the body.
  std::string error;
  const auto fail = [&error](std::string message) {
    if (error.empty()) error = std::move(message);
  };
  try {
    io::JsonReader json(header_line);
    json.begin_object();
    while (json.next_member(&key)) {
      if (!seen.insert(key).second) {
        fail("duplicate key '" + key + "'");
        json.skip_value();
        continue;
      }
      have_extras = have_extras || (key != "op" && key != "id");
      if (key == "op") {
        op = json.string();
      } else if (key == "id") {
        std::string id = json.string();
        if (id.empty()) {
          fail("'id' must be non-empty");
        } else if (id.size() > 256) {
          fail("'id' exceeds 256 bytes");
        } else {
          req.id = std::move(id);
        }
      } else if (key == "set") {
        req.set = json.string();
        if (req.set.empty()) fail("'set' must be non-empty");
      } else if (key == "body_bytes") {
        const std::string_view raw = json.number().raw;
        std::size_t value = 0;
        if (raw.find_first_not_of("0123456789") != std::string_view::npos) {
          fail("'body_bytes' must be a non-negative integer");
        } else if (std::from_chars(raw.data(), raw.data() + raw.size(), value)
                           .ec != std::errc{} ||
                   value > kMaxBodyBytes) {
          fail("'body_bytes' exceeds " + std::to_string(kMaxBodyBytes) +
               " bytes");
        } else {
          req.has_body = true;
          req.body_bytes = value;
        }
      } else if (key == "format") {
        req.format = json.string();
        if (req.format != "csv" && req.format != "json" &&
            req.format != "table") {
          fail("'format' must be csv, json or table, got '" + req.format +
               "'");
        }
      } else if (key == "deadline_ms") {
        const io::JsonNumber value = json.number();
        if (value.raw.front() == '-') {
          fail("'deadline_ms' must be non-negative");
        }
        req.deadline_ms = value.value;
      } else if (key == "partial") {
        req.partial = json.boolean();
      } else {
        fail("unknown key '" + key + "'");
        json.skip_value();
      }
    }
    json.end();
  } catch (const io::JsonError& json_error) {
    throw RequestError(json_error.what(), {});  // nothing to echo or skip
  }
  if (op.empty()) fail("missing required key 'op'");
  if (op == "run") {
    req.op = Op::kRun;
    if (!req.set.empty() && req.has_body) {
      fail("'set' and 'body_bytes' are exclusive");
    }
    if (req.set.empty() && !req.has_body) {
      fail("run requests need 'set' or 'body_bytes'");
    }
  } else if (op == "status" || op == "shutdown") {
    req.op = op == "status" ? Op::kStatus : Op::kShutdown;
    if (have_extras) fail("'" + op + "' requests accept only 'id'");
  } else if (!op.empty()) {
    fail("unknown op '" + op + "'");
  }
  if (!error.empty()) throw RequestError(error, std::move(req));
  return req;
}

// --------------------------------------------------------------------
// Reply framing
// --------------------------------------------------------------------

std::string frame(const std::string& header, std::string_view payload,
                  bool has_payload) {
  std::string out;
  out.reserve(header.size() + payload.size() + 2);
  out += header;
  out += '\n';
  if (has_payload) {
    out += payload;
    out += '\n';
  }
  return out;
}

std::string error_frame(const std::string& id, const std::string& code,
                        const std::string& message) {
  return frame("{\"reply\":\"error\",\"id\":" + io::json_string(id) +
               ",\"code\":" + io::json_string(code) + ",\"message\":" +
               io::json_string(message) + "}");
}

// --------------------------------------------------------------------
// Service
// --------------------------------------------------------------------

Service::Service(Options options) : options_(std::move(options)) {
  if (options_.queue_depth == 0) {
    throw std::invalid_argument("serve: queue_depth must be > 0");
  }
  if (options_.workers == 0) {
    throw std::invalid_argument("serve: workers must be > 0");
  }
  if (options_.procs == 0) {
    throw std::invalid_argument("serve: procs must be > 0");
  }
  if (options_.procs > 1 && options_.cache_dir.empty()) {
    throw std::invalid_argument(
        "serve: procs > 1 requires a cache_dir (forked shard workers "
        "hand their outcomes back inside it)");
  }
  if (options_.compact_interval_sec > 0.0 && options_.cache_dir.empty()) {
    throw std::invalid_argument(
        "serve: compact_interval_sec requires a cache_dir");
  }
  if (!options_.cache_dir.empty()) {
    std::filesystem::create_directories(options_.cache_dir);
    const CacheLoadStats stats = load_cache_dir(options_.cache_dir, &cache_);
    note("serve: warm-loaded " + std::to_string(stats.loaded) +
         " cache entries from " + options_.cache_dir.string() + " (" +
         std::to_string(stats.files) + " files, " +
         std::to_string(stats.bad_files) + " bad)");
  }
  workers_.reserve(options_.workers);
  for (unsigned w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (options_.compact_interval_sec > 0.0) {
    compactor_ = std::thread([this] { compactor_loop(); });
  }
}

Service::~Service() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  compact_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  if (compactor_.joinable()) compactor_.join();
}

void Service::note(const std::string& message) const {
  if (options_.log) options_.log(message);
}

Service::Admission Service::submit(Request request, Sink sink) {
  request.admitted_ms = now_ms();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    request.seq = next_seq_++;
    counters_.requests += 1;
  }
  if (request.id.empty()) request.id = std::to_string(request.seq);
  try {
    RV_FAILPOINT_AT("serve.accept", request.seq);
  } catch (const failpoint::FailpointError& error) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      counters_.errors += 1;
    }
    sink(error_frame(request.id, "failed", error.what()));
    return Admission::kReplied;
  }
  switch (request.op) {
    case Op::kStatus:
      sink(frame(status_header(request)));
      return Admission::kReplied;
    case Op::kShutdown:
      sink(frame("{\"reply\":\"shutdown\",\"id\":" +
                 io::json_string(request.id) + "}"));
      return Admission::kShutdown;
    case Op::kRun:
      break;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_.size() >= options_.queue_depth) {
      counters_.rejected += 1;
      counters_.errors += 1;
      lock.unlock();
      sink(frame("{\"reply\":\"error\",\"id\":" +
                 io::json_string(request.id) +
                 ",\"code\":\"overloaded\",\"retry_after_ms\":" +
                 std::to_string(options_.retry_after_ms) +
                 ",\"message\":\"admission queue full (depth " +
                 std::to_string(options_.queue_depth) + ")\"}"));
      return Admission::kReplied;
    }
    queue_.push_back(Pending{std::move(request), std::move(sink)});
  }
  queue_cv_.notify_one();
  return Admission::kQueued;
}

std::string Service::reject(const std::string& id, const std::string& code,
                            const std::string& message) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_.requests += 1;
    counters_.errors += 1;
  }
  return error_frame(id, code, message);
}

std::string Service::process(const std::string& header_line,
                             std::string_view body) {
  Request request;
  try {
    request = parse_request(header_line);
  } catch (const RequestError& error) {
    return reject(error.request().id, error.code(), error.what());
  }
  if (request.has_body) {
    if (body.size() != request.body_bytes) {
      return reject(request.id, "parse",
                    "body size mismatch: header declared " +
                        std::to_string(request.body_bytes) + " bytes, got " +
                        std::to_string(body.size()));
    }
    request.body.assign(body);
  } else if (!body.empty()) {
    return reject(request.id, "parse",
                  "request declared no body_bytes but a body was supplied");
  }
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  (void)submit(std::move(request),
               [&promise](const std::string& reply) { promise.set_value(reply); });
  return future.get();
}

void Service::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [&] {
    return queue_.empty() && active_ == 0 && replying_ == 0;
  });
}

Counters Service::counters() const {
  Counters snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot = counters_;
    snapshot.queue_depth = queue_.size();
    snapshot.inflight = queue_.size() + active_;
  }
  snapshot.cache_entries = cache_.size();
  return snapshot;
}

std::size_t Service::cache_size() const { return cache_.size(); }

std::string Service::status_header(const Request& request) const {
  const Counters c = counters();
  const double mean_ms =
      c.latency_count > 0
          ? c.latency_total_ms / static_cast<double>(c.latency_count)
          : 0.0;
  std::ostringstream os;
  os << "{\"reply\":\"status\",\"id\":" << io::json_string(request.id)
     << ",\"requests\":" << c.requests << ",\"ok\":" << c.ok
     << ",\"errors\":" << c.errors << ",\"rejected\":" << c.rejected
     << ",\"expired\":" << c.expired << ",\"hits\":" << c.hits
     << ",\"misses\":" << c.misses << ",\"uncacheable\":" << c.uncacheable
     << ",\"inflight\":" << c.inflight << ",\"queue_depth\":" << c.queue_depth
     << ",\"cache_entries\":" << c.cache_entries
     << ",\"compactions\":" << c.compactions << ",\"latency\":{\"count\":"
     << c.latency_count << ",\"mean_ms\":" << fmt_ms(mean_ms)
     << ",\"max_ms\":" << fmt_ms(c.latency_max_ms) << "}}";
  return os.str();
}

void Service::worker_loop() {
  for (;;) {
    Pending job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      active_ += 1;
    }
    const std::string reply = execute(job.request);
    // The request completes (counters settle, `inflight` drops) before the
    // reply is delivered: a client that has read its reply must never see
    // this request still in flight on a subsequent `status`.  drain() still
    // waits out the delivery itself via `replying_` — sinks reference the
    // caller's stream state, which must outlive them.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      active_ -= 1;
      replying_ += 1;
    }
    try {
      job.sink(reply);
    } catch (const std::exception& error) {
      note(std::string("serve: reply delivery failed: ") + error.what());
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      replying_ -= 1;
      if (queue_.empty() && active_ == 0 && replying_ == 0) {
        drain_cv_.notify_all();
      }
    }
  }
}

std::string Service::execute(const Request& request) {
  const auto fail = [&](const std::string& code, const char* message) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      counters_.errors += 1;
      if (code == "deadline") counters_.expired += 1;
    }
    return error_frame(request.id, code, message);
  };
  try {
    RV_FAILPOINT_AT("serve.dispatch", request.seq);
    Reply reply = execute_run(request);
    const double latency = now_ms() - request.admitted_ms;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      counters_.ok += 1;
      counters_.hits += reply.stats.hits;
      counters_.misses += reply.stats.misses;
      counters_.uncacheable += reply.stats.uncacheable;
      counters_.latency_count += 1;
      counters_.latency_total_ms += latency;
      counters_.latency_max_ms = std::max(counters_.latency_max_ms, latency);
    }
    std::string header = reply.missing.empty()
                             ? "{\"reply\":\"ok\",\"id\":"
                             : "{\"reply\":\"partial\",\"id\":";
    io::append_json_string(header, request.id);
    header += ",\"bytes\":" + std::to_string(reply.payload.size()) +
              ",\"hits\":" + std::to_string(reply.stats.hits) +
              ",\"misses\":" + std::to_string(reply.stats.misses) +
              ",\"uncacheable\":" + std::to_string(reply.stats.uncacheable);
    if (!reply.missing.empty()) {
      header += ",\"missing_indices\":[";
      for (std::size_t i = 0; i < reply.missing.size(); ++i) {
        if (i > 0) header += ',';
        header += std::to_string(reply.missing[i]);
      }
      header += ']';
    }
    header += '}';
    return frame(header, reply.payload, true);
  } catch (const ServeError& error) {
    return fail(error.code(), error.what());
  } catch (const SetDeclError& error) {
    return fail("bad-set", error.what());
  } catch (const std::invalid_argument& error) {
    return fail("bad-set", error.what());
  } catch (const std::exception& error) {
    return fail("failed", error.what());
  }
}

Service::Reply Service::execute_run(const Request& request) {
  const double deadline_at = request.deadline_ms > 0.0
                                 ? request.admitted_ms + request.deadline_ms
                                 : 0.0;
  if (deadline_at > 0.0 && now_ms() >= deadline_at) {
    throw ServeError("deadline",
                     "deadline of " + fmt_ms(request.deadline_ms) +
                         " ms expired before dispatch (queue wait)");
  }

  ScenarioSet set;
  std::string name;
  if (!request.set.empty()) {
    if (!options_.resolver) {
      throw ServeError("bad-set",
                       "this service resolves no named sets; send an inline "
                       ".rvset body instead");
    }
    set = options_.resolver(request.set);
    name = request.set;
  } else {
    SetDecl decl = parse_set_decl(request.body);
    set = std::move(decl.set);
    name = decl.name.empty() ? "inline" : decl.name;
  }
  // A mixed set throws std::invalid_argument here, a bad-set reply,
  // before any cell runs or any file is written.
  const Family family = set.single_family();
  const std::vector<WorkItem> work = set.materialize_work();

  // One classification against the warm cache decides what is
  // computed, and its counts are what the reply header reports.
  const Classification plan = classify(work, &cache_);
  ExecOptions exec{options_.cache_dir, options_.procs, options_.threads,
                   options_.supervisor};
  if (options_.procs > 1 && !plan.misses.empty() && request.deadline_ms > 0.0) {
    const double remaining_ms =
        request.admitted_ms + request.deadline_ms - now_ms();
    if (remaining_ms <= 0.0) {
      throw ServeError("deadline", "deadline of " +
                                       fmt_ms(request.deadline_ms) +
                                       " ms expired before forked dispatch");
    }
    const double remaining_sec = remaining_ms / 1000.0;
    exec.supervisor.timeout_sec =
        exec.supervisor.timeout_sec > 0.0
            ? std::min(exec.supervisor.timeout_sec, remaining_sec)
            : remaining_sec;
  }
  // The payload is byte-identical to a single-process `rv_batch run` of
  // the same declaration, whether the misses were forked or not.
  Execution ran = engine::execute(work, plan, cache_, exec);
  ran.results.set_family(family);
  if (!plan.misses.empty() && !options_.cache_dir.empty()) {
    const std::lock_guard<std::mutex> disk(disk_mutex_);
    persist_misses(options_.cache_dir, name, plan, cache_);
  }
  const SupervisorReport& report = ran.report;
  if (report.any_failures()) note("serve: supervisor report:\n" + report.table());
  if (!report.complete() && !request.partial) {
    bool timed_out = false;
    std::string list;
    for (const ShardStatus& status : report.shards) {
      if (status.succeeded) continue;
      for (const ShardAttempt& attempt : status.attempts) {
        if (attempt.outcome == AttemptOutcome::kTimeout) timed_out = true;
      }
      if (!list.empty()) list += ", ";
      list += std::to_string(status.shard);
    }
    const bool deadline_blame = timed_out && request.deadline_ms > 0.0;
    throw ServeError(deadline_blame ? "deadline" : "failed",
                     "shards failed after retries: " + list +
                         " (request 'partial' to accept the surviving "
                         "subset)");
  }
  Reply reply;
  reply.stats = plan.stats;
  reply.missing = std::move(ran.missing);
  reply.payload = render(ran.results, request.format);
  return reply;
}

void Service::compactor_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto interval =
      std::chrono::duration<double>(options_.compact_interval_sec);
  for (;;) {
    compact_cv_.wait_for(lock, interval, [&] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    try {
      // Publish under the lock persistence shares; delete the inputs
      // after releasing it, so no request waits on the unlinks.
      CompactResult result;
      {
        const std::lock_guard<std::mutex> disk(disk_mutex_);
        result = compact_cache_dir(options_.cache_dir, options_.compact);
      }
      remove_compacted_inputs(result);
      {
        const std::lock_guard<std::mutex> counters_lock(mutex_);
        counters_.compactions += 1;
      }
      note("serve: compacted " + std::to_string(result.files.size()) +
           " cache files into " + result.output.filename().string() + " (" +
           std::to_string(result.entries) + " entries, " +
           std::to_string(result.output_bytes) + " bytes, " +
           std::to_string(result.stale_handoffs.size()) +
           " stale hand-off dirs removed)");
    } catch (const std::exception& error) {
      note(std::string("serve: compaction failed: ") + error.what());
    }
    lock.lock();
  }
}

// --------------------------------------------------------------------
// Stream pump
// --------------------------------------------------------------------

bool serve_stream(Service& service, std::istream& in, std::ostream& out) {
  std::mutex write_mutex;
  const auto write_reply = [&](const std::string& reply) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    const failpoint::Hit hit = RV_FAILPOINT_EVAL("serve.reply");
    if (hit.fired && hit.action == failpoint::Action::kTornWrite) {
      const std::size_t n = std::min<std::size_t>(hit.arg, reply.size());
      out.write(reply.data(), static_cast<std::streamsize>(n));
      out.flush();
      return;
    }
    out.write(reply.data(), static_cast<std::streamsize>(reply.size()));
    out.flush();
  };
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Request request;
    try {
      request = parse_request(line);
    } catch (const RequestError& error) {
      write_reply(
          service.reject(error.request().id, error.code(), error.what()));
      // Skip the body the rejected header declared, and its LF, so its
      // lines are not read as requests.
      if (!error.request().has_body) continue;
      const std::size_t n = error.request().body_bytes;
      in.ignore(static_cast<std::streamsize>(n));
      if (static_cast<std::size_t>(in.gcount()) != n) break;
      if (in.get() != '\n') {
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      }
      continue;
    }
    if (request.has_body) {
      request.body.resize(request.body_bytes);
      if (request.body_bytes > 0) {
        in.read(request.body.data(),
                static_cast<std::streamsize>(request.body_bytes));
        if (static_cast<std::size_t>(in.gcount()) != request.body_bytes) {
          write_reply(service.reject(request.id, "parse",
                                     "EOF inside request body"));
          break;
        }
      }
      const int terminator = in.get();
      if (terminator != '\n') {
        write_reply(service.reject(request.id, "parse",
                                   "request body must end with LF"));
        if (terminator == std::char_traits<char>::eof()) break;
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        continue;
      }
    }
    Service::Admission admission = Service::Admission::kReplied;
    try {
      admission = service.submit(std::move(request), write_reply);
    } catch (const std::exception& error) {
      service.note_failure(std::string("serve: inline reply failed: ") +
                           error.what());
    }
    if (admission == Service::Admission::kShutdown) {
      service.drain();
      return true;
    }
  }
  service.drain();
  return false;
}

void Service::note_failure(const std::string& message) const { note(message); }

}  // namespace rv::engine::serve
