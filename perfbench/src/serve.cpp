// warm-hits and miss-churn: an open loop of requests into one
// in-process `serve::Service` that warm-loads the resident cache.
//
// The generator is the daemon's reader: at each request's due time it
// parses the header with `parse_request`, attaches the body and calls
// `Service::submit`; the reply sink stamps the completion time.  One
// service worker answers in admission order, so each request's queue
// wait is the time from its submission until the previous reply left.
//
// The traced run replays the reference phase's requests through the
// same public calls, in the same order, that `Service::execute_run`,
// `dispatch_forked` and `persist` make, with a span around each, and
// requires the replayed replies to equal the service's byte for byte.
// The layers' summed self times must match the untraced time of the
// same requests sent back to back through `Service::process`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "engine/cache_store.hpp"
#include "engine/families.hpp"
#include "engine/serve.hpp"
#include "engine/set_decl.hpp"
#include "engine/shard.hpp"
#include "engine/supervisor.hpp"
#include "rv_batch_sets.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace serve = rv::engine::serve;
using rv::engine::ResultSet;
using rv::engine::RunnerOptions;
using rv::engine::ScenarioCache;
using rv::engine::ScenarioSet;
using rv::engine::WorkItem;

/// Load shape of one serve workload.  The latency limit applies to
/// `req_ms_tail`; every request carries a deadline of twice the limit,
/// so an overloaded rung sheds its backlog instead of outliving the run.
/// The ladder's steps are fine so that `goodput_rps` moves with the
/// service's capacity instead of jumping between coarse rungs.
struct Shape {
  double ref_rate = 1.0;   ///< requests/s of the reference phase
  double ladder = 1.0;     ///< rate of the ladder's first rung
  double ratio = 1.0;      ///< step between rungs
  int rungs = 1;           ///< at most this many rungs
  double rung_share = 0.05;  ///< share of `--seconds` each rung lasts
  double limit_ms = 1.0;   ///< latency limit of `goodput_rps`
  std::size_t procs = 1;   ///< forked shard workers per dispatch
};
/// Share of `--seconds` spent at the reference rate.
constexpr double kReferenceShare = 0.4;

Shape shape_of(const Config& config) {
  // At the reference rates the service worker is busy about 45%
  // (warm-hits) and a quarter (miss-churn) of the time, so queueing
  // stays a small part of the latency, while few warm-hits requests
  // find the worker asleep: a wake-up costs a different amount in each
  // run on a shared machine.  The limits are loose enough that the
  // ladder stops where the backlog starts to grow, near the service's
  // capacity, rather than where the largest requests' queueing crosses
  // a line.  Rungs last long enough for a rate above capacity to show
  // that growth: about a thousand warm-hits requests, a few dozen
  // forked miss-churn requests.
  Shape s = config.workload == "warm-hits"
                ? Shape{500.0, 540.0, 1.08, 12, 0.05, 200.0, 1}
                : Shape{20.0, 25.0, 1.1, 12, 0.1, 200.0, 2};
  if (config.tiny) {
    s.ref_rate /= 4.0;
    s.ladder /= 4.0;
  }
  return s;
}

ScenarioSet resolve(const std::string& name) { return rv::batch::build_builtin_set(name); }

/// serve.cpp's private file-name rule for per-set persistence files.
std::string sanitize_name(const std::string& name) {
  std::string out = name.empty() ? "inline" : name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// A fresh service directory holding the resident cache (only `only`,
/// when given).  Hard links are safe: the engine replaces cache files
/// by rename, never in place.
void link_base(const fs::path& base, const fs::path& dir, const std::string& only) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const fs::path& file : rv::engine::list_cache_files(base)) {
    if (!only.empty() && file.filename() != only) continue;
    std::error_code ec;
    fs::create_hard_link(file, dir / file.filename(), ec);
    if (ec) fs::copy_file(file, dir / file.filename());
  }
}

std::uintmax_t dir_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const fs::path& file : rv::engine::list_cache_files(dir)) bytes += fs::file_size(file);
  return bytes;
}

serve::Options service_options(const fs::path& dir, std::size_t procs) {
  serve::Options options;
  options.workers = 1;
  options.threads = 1;
  options.procs = procs;
  options.cache_dir = dir;
  options.resolver = resolve;
  return options;
}

/// One request as sent and answered.
struct Request {
  std::size_t input = 0;
  std::string id;
  std::string header;
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  std::string reply;
};

std::string header_for(const Input& in, const std::string& id, double deadline_ms) {
  std::string h = "{\"op\":\"run\",\"id\":\"" + id + "\",";
  if (!in.set.empty()) {
    h += "\"set\":\"" + in.set + "\"";
  } else {
    h += "\"body_bytes\":" + std::to_string(in.body.size());
  }
  char deadline[64];
  std::snprintf(deadline, sizeof deadline, "%.0f", deadline_ms);
  return h + ",\"format\":\"" + in.format + "\",\"deadline_ms\":" + deadline + "}";
}

/// The reply header `Service::execute` writes for an ok run.
std::string ok_header(const std::string& id, std::size_t bytes, std::uint64_t hits,
                      std::uint64_t misses) {
  return "{\"reply\":\"ok\",\"id\":\"" + id + "\",\"bytes\":" + std::to_string(bytes) +
         ",\"hits\":" + std::to_string(hits) + ",\"misses\":" + std::to_string(misses) +
         ",\"uncacheable\":0}";
}

std::uint64_t header_field(const std::string& reply, const std::string& key) {
  const std::size_t at = reply.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(reply.c_str() + at + key.size() + 3, nullptr, 10);
}

/// Sends `requests` open-loop at `rate`, starting now; returns after
/// every reply arrived.  The generator sleeps until shortly before each
/// due time and spins the rest, so its own wake-up delay stays out of
/// the latencies.
void send_open_loop(serve::Service& service, const std::vector<Input>& inputs,
                    std::vector<Request>& requests, double rate) {
  constexpr double kSpinS = 0.0005;
  const double start = now_s() + 0.002;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Request& r = requests[i];
    r.due = start + static_cast<double>(i) / rate;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(r.due - kSpinS))));
    while (now_s() < r.due) {
    }
    r.sent = now_s();
    serve::Request parsed = serve::parse_request(r.header);
    if (parsed.has_body) parsed.body = inputs[r.input].body;
    (void)service.submit(std::move(parsed), [&r](const std::string& reply) {
      r.done = now_s();
      r.reply = reply;
    });
  }
  service.drain();
}

/// Per-phase outcome of the checks and timings.
struct Phase {
  std::vector<double> latency_ms;  ///< ok replies, from due time
  std::vector<double> service_ms;  ///< ok replies, from dequeue
  std::vector<std::size_t> ok_position;  ///< each ok reply's place in the phase
  std::vector<std::uint64_t> ok_cells;   ///< each ok reply's cells
  std::vector<double> wait_ms;     ///< queue wait, every request
  std::vector<double> lag_ms;      ///< generator lateness
  std::uint64_t refused = 0;  ///< error replies: refused, expired, failed
  std::uint64_t wrong = 0;    ///< ok replies with a wrong byte or count
  std::uint64_t miss_requests = 0;  ///< ok replies with at least one miss
  double tail_all_ms = 0.0;  ///< tail with failures counted as over the limit
  bool backlog_growing = false;
};

struct References {
  std::vector<std::string> payload;
  std::vector<std::size_t> items;
};

Phase check_phase(const std::vector<Request>& requests, const References& refs,
                  const Shape& shape, bool all_hits, Checker& checker) {
  Phase p;
  std::vector<double> with_failures;
  double previous_done = 0.0;
  for (std::size_t position = 0; position < requests.size(); ++position) {
    const Request& r = requests[position];
    const double start = std::max(r.sent, previous_done);
    previous_done = std::max(previous_done, r.done);
    p.lag_ms.push_back((r.sent - r.due) * 1e3);
    p.wait_ms.push_back((start - r.sent) * 1e3);
    const std::uint64_t hits = header_field(r.reply, "hits");
    const std::uint64_t misses = header_field(r.reply, "misses");
    const std::size_t items = refs.items[r.input];
    if (r.reply.rfind("{\"reply\":\"ok\"", 0) != 0) {
      p.refused += 1;
      with_failures.push_back(1e300);
      continue;
    }
    const std::string& payload = refs.payload[r.input];
    if (hits + misses != items || (all_hits && misses != 0) ||
        !checker.same(r.reply, serve::frame(ok_header(r.id, payload.size(), hits, misses),
                                            payload, true))) {
      p.wrong += 1;
      with_failures.push_back(1e300);
      continue;
    }
    const double latency = (r.done - r.due) * 1e3;
    p.latency_ms.push_back(latency);
    p.service_ms.push_back((r.done - start) * 1e3);
    p.ok_position.push_back(position);
    p.ok_cells.push_back(items);
    with_failures.push_back(latency);
    if (misses > 0) p.miss_requests += 1;
  }
  p.tail_all_ms = tail(with_failures).value;
  // A growing backlog: below capacity the open loop's latency holds
  // steady, above it every request waits longer than the one before, so
  // the last quarter's median pulls away from the first quarter's.
  const std::size_t q = with_failures.size() / 4;
  if (q >= 2) {
    const std::vector<double> first(with_failures.begin(), with_failures.begin() + q);
    const std::vector<double> last(with_failures.end() - q, with_failures.end());
    p.backlog_growing =
        median(last) > median(first) + std::max(0.1 * shape.limit_ms, median(p.service_ms));
  }
  return p;
}

/// A rung passes when nothing was refused or expired, its tail meets the
/// limit, and its backlog did not grow.
bool rung_passes(const Phase& p, const Shape& shape) {
  return p.refused == 0 && p.tail_all_ms <= shape.limit_ms && !p.backlog_growing;
}

// ---------------------------------------------------------------------
// Traced replay of Service::execute_run
// ---------------------------------------------------------------------

struct Replay {
  Tracer tracer;
  ScenarioCache cache;
  fs::path dir;
  std::size_t procs = 1;
  // Counters the per-layer report needs beyond span totals.
  std::uint64_t inline_requests = 0;
  double body_bytes = 0.0;
  double items = 0.0;
  double payload_bytes = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t miss_requests = 0;
  std::uint64_t stores = 0;
  std::uint64_t lookups = 0;
  double lookup_s = 0.0;
  std::uint64_t saves = 0;
  double saved_bytes = 0.0;
  std::uint64_t dispatches = 0;
  std::uint64_t attempts = 0;
  std::uint64_t failed_shards = 0;
  std::map<std::string, std::uint64_t> emits;
  std::vector<WorkItem> computed;  ///< every miss, for the serial sweep pass

  /// Replays one request; the reply frame `Service` would send.
  std::string execute(const std::string& header, const std::string& body, std::uint64_t id);

 private:
  std::string run(const std::string& header, const std::string& body,
                  std::vector<std::string>* keys);
  void dispatch_forked(const std::string& name, const std::vector<WorkItem>& misses);
  void persist(const std::string& name, const std::vector<WorkItem>& work);
};

std::string Replay::execute(const std::string& header, const std::string& body,
                            std::uint64_t id) {
  tracer.begin_request(id);
  std::vector<std::string> keys;
  std::string reply = run(header, body, &keys);
  // Lookups happen inside run_scenarios, where no span can reach; time
  // them on the request's keys outside the request's span.
  ScenarioCache::Entry entry;
  const double start = now_s();
  for (const std::string& key : keys) (void)cache.lookup(key, &entry);
  lookup_s += now_s() - start;
  lookups += keys.size();
  return reply;
}

std::string Replay::run(const std::string& header, const std::string& body,
                        std::vector<std::string>* keys) {
  Tracer::Scope root(tracer, "serve", "request");
  serve::Request request;
  {
    Tracer::Scope s(tracer, "serve", "parse_request");
    request = serve::parse_request(header);
  }
  if (request.has_body) request.body = body;
  ScenarioSet set;
  std::string name;
  if (!request.set.empty()) {
    Tracer::Scope s(tracer, "set_decl", "resolve");
    set = resolve(request.set);
    name = request.set;
  } else {
    inline_requests += 1;
    body_bytes += static_cast<double>(request.body.size());
    Tracer::Scope s(tracer, "set_decl", "parse_set_decl");
    rv::engine::SetDecl decl = rv::engine::parse_set_decl(request.body);
    set = std::move(decl.set);
    name = decl.name.empty() ? "inline" : decl.name;
  }
  std::vector<WorkItem> work;
  {
    Tracer::Scope s(tracer, "scenario_set", "materialize_work");
    work = set.materialize_work();
  }
  items += static_cast<double>(work.size());
  std::vector<WorkItem> misses;
  std::uint64_t h = 0;
  for (const WorkItem& item : work) {
    std::optional<std::string> key;
    {
      Tracer::Scope s(tracer, "families", "cache_key");
      key = rv::engine::cache_key(item);
    }
    if (!key) throw std::logic_error("generated an uncacheable item");
    bool hit = false;
    {
      Tracer::Scope s(tracer, "cache", "contains");
      hit = cache.contains(*key);
    }
    if (hit) {
      h += 1;
    } else {
      misses.push_back(item);
    }
    keys->push_back(std::move(*key));
  }
  hits += h;
  this->misses += misses.size();
  if (!misses.empty()) {
    miss_requests += 1;
    computed.insert(computed.end(), misses.begin(), misses.end());
    if (procs <= 1) {
      Tracer::Scope s(tracer, "runner", "run_misses");
      RunnerOptions options;
      options.threads = 1;
      options.cache = &cache;
      (void)rv::engine::run_scenarios(misses, options);
    } else {
      dispatch_forked(name, misses);
    }
    persist(name, work);
  }
  ResultSet results;
  {
    Tracer::Scope s(tracer, "runner", "warm_replay");
    RunnerOptions options;
    options.threads = 1;
    options.cache = &cache;
    results = rv::engine::run_scenarios(work, options);
  }
  std::string payload;
  {
    static const std::map<std::string, const char*> kEmit = {
        {"csv", "emit_csv"}, {"json", "emit_json"}, {"table", "emit_table"}};
    Tracer::Scope s(tracer, "runner", kEmit.at(request.format));
    payload = render(results, request.format);
  }
  emits[request.format] += 1;
  payload_bytes += static_cast<double>(payload.size());
  Tracer::Scope s(tracer, "serve", "frame");
  return serve::frame(ok_header(request.id, payload.size(), h, misses.size()), payload, true);
}

void Replay::dispatch_forked(const std::string& name, const std::vector<WorkItem>& misses) {
  // The children's private copy of the resident cache; releasing it is
  // part of the copy's cost.
  std::optional<ScenarioCache> snapshot;
  snapshot.emplace();
  ScenarioCache& warm = *snapshot;
  {
    Tracer::Scope s(tracer, "shard", "warm_snapshot");
    for (auto& [key, entry] : cache.snapshot()) warm.store(key, std::move(entry));
  }
  const std::string shard_set = sanitize_name(name) + "-serve";
  const auto shard_path = [&](std::size_t p) {
    return dir / rv::engine::shard_file_name(shard_set, p, procs);
  };
  // The child body `Service::dispatch_forked` runs.
  const auto child_main = [&](std::size_t p) -> int {
    const rv::engine::ShardPlan plan = rv::engine::shard_plan(misses.size(), p, procs);
    RunnerOptions options;
    options.threads = 1;
    options.cache = &warm;
    (void)rv::engine::run_shard(misses, plan, options);
    ScenarioCache own;
    ScenarioCache::Entry entry;
    for (const std::size_t i : plan.indices) {
      const std::optional<std::string> key = rv::engine::cache_key(misses[i]);
      if (key && warm.lookup(*key, &entry)) own.store(*key, entry);
    }
    rv::engine::save_cache_file(shard_path(p), own);
    return 0;
  };
  rv::engine::SupervisorReport report;
  {
    Tracer::Scope s(tracer, "supervisor", "supervise_shards");
    report = rv::engine::supervise_shards(procs, child_main, {});
  }
  dispatches += 1;
  for (const rv::engine::ShardStatus& status : report.shards) {
    attempts += status.attempts.size();
    if (!status.succeeded) failed_shards += 1;
  }
  {
    Tracer::Scope s(tracer, "shard", "release_snapshot");
    snapshot.reset();
  }
  // Folding back is `load_cache_file` into the resident cache; loading
  // into a scratch cache first splits decoding from the stores (same
  // first-writer-wins result).
  Tracer::Scope fold(tracer, "shard", "fold_back");
  for (std::size_t p = 0; p < procs; ++p) {
    ScenarioCache loaded;
    {
      Tracer::Scope s(tracer, "cache_store", "load_cache_file");
      (void)rv::engine::load_cache_file(shard_path(p), &loaded);
    }
    Tracer::Scope s(tracer, "cache", "store");
    for (auto& [key, entry] : loaded.snapshot()) {
      (void)cache.store(key, std::move(entry));
      stores += 1;
    }
  }
}

void Replay::persist(const std::string& name, const std::vector<WorkItem>& work) {
  Tracer::Scope root(tracer, "serve", "persist");
  ScenarioCache own;
  ScenarioCache::Entry entry;
  for (const WorkItem& item : work) {
    std::optional<std::string> key;
    {
      Tracer::Scope s(tracer, "families", "cache_key");
      key = rv::engine::cache_key(item);
    }
    bool found = false;
    {
      Tracer::Scope s(tracer, "cache", "lookup");
      found = key && cache.lookup(*key, &entry);
    }
    if (found) own.store(*key, entry);
  }
  if (own.size() == 0) return;
  const fs::path path = dir / (sanitize_name(name) + "-serve.rvcache");
  {
    Tracer::Scope s(tracer, "cache_store", "save_cache_file");
    rv::engine::save_cache_file(path, own);
  }
  saves += 1;
  saved_bytes += static_cast<double>(fs::file_size(path));
}

}  // namespace

std::size_t build_base(const fs::path& dir) {
  fs::create_directories(dir);
  RunnerOptions options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  std::size_t outcomes = 0;
  const auto save = [&](const ScenarioSet& set, const std::string& name) {
    ScenarioCache cache;
    options.cache = &cache;
    (void)rv::engine::run_scenarios(set.materialize_work(), options);
    rv::engine::save_cache_file(dir / (name + rv::engine::kCacheFileExtension), cache);
    outcomes += cache.size();
  };
  for (const std::string& body : universe_bodies()) {
    const rv::engine::SetDecl decl = rv::engine::parse_set_decl(body);
    save(decl.set, decl.name);
  }
  for (const std::string& name : builtin_names()) save(resolve(name), name);
  return outcomes;
}

namespace {

/// Uncached reference documents of every input (computed once per
/// distinct declaration, outside any timed window).
References compute_references(const std::vector<Input>& inputs, const Config& config,
                              Result& result, Checker& checker) {
  References refs;
  std::map<std::string, ResultSet> computed;
  RunnerOptions options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  for (const Input& in : inputs) {
    const std::string& key = in.set.empty() ? in.body : in.set;
    auto found = computed.find(key);
    if (found == computed.end()) {
      const ScenarioSet set =
          in.set.empty() ? rv::engine::parse_set_decl(in.body).set : resolve(in.set);
      found = computed.emplace(key, rv::engine::run_scenarios(set.materialize_work(), options))
                  .first;
    }
    refs.payload.push_back(render(found->second, in.format));
    refs.items.push_back(found->second.size());
    if (!in.golden.empty()) {
      const std::string golden =
          read_file(config.repo / "tests" / "golden" / "rv_batch" / in.golden);
      // Untimed, so failed but not attempted when it misses its pin.
      if (!checker.same(refs.payload.back(), golden)) result.failed += 1;
    }
  }
  return refs;
}

}  // namespace

Result run_serve(const Config& config) {
  Result result;
  Report& report = result.report;
  const Shape shape = shape_of(config);
  const bool warm = config.workload == "warm-hits";
  const double deadline_ms = 2.0 * shape.limit_ms;
  Checker checker(config.corrupt);

  // miss-churn's service holds only the grid its bodies overlap: every
  // forked request copies the whole resident cache, and a 10^5-entry
  // copy would leave too few requests in a run for a latency tail.
  const std::string resident = warm ? "" : churn_resident_file();
  // The traced run only needs the reference phase.
  const double ref_s = kReferenceShare * config.seconds;
  const double rung_s = shape.rung_share * config.seconds;
  const auto count_at = [](double rate, double seconds) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(rate * seconds)));
  };
  std::size_t total = count_at(shape.ref_rate, ref_s);
  if (!config.trace) {
    for (int k = 0; k < shape.rungs; ++k) {
      total += count_at(shape.ladder * std::pow(shape.ratio, k), rung_s);
    }
  }
  const std::vector<Input> inputs =
      warm ? warm_hit_pool(config.seed, config.tiny ? 40 : 480)
           : miss_churn_bodies(config.seed, total);
  std::size_t next_request = 0;
  const auto make_requests = [&](std::size_t n) {
    std::vector<Request> requests(n);
    for (Request& r : requests) {
      // warm-hits cycles through its shuffled pool, so every window of
      // a pool's length carries the same mix.
      r.input = warm ? next_request % inputs.size() : next_request;
      char id[32];
      std::snprintf(id, sizeof id, "r%zu", next_request++);
      r.id = id;
      r.header = header_for(inputs[r.input], r.id, deadline_ms);
    }
    return requests;
  };

  const References refs = compute_references(inputs, config, result, checker);

  // Set-up: service construction through its warm load, median of five.
  const fs::path dir = config.work / "service";
  link_base(config.base, dir, resident);
  std::vector<double> setups;
  std::unique_ptr<serve::Service> service;
  double rss_delta = 0.0;
  for (int k = 0; k < 5; ++k) {
    service.reset();
    const double rss = current_rss_bytes();
    const double start = now_s();
    service = std::make_unique<serve::Service>(service_options(dir, shape.procs));
    setups.push_back(now_s() - start);
    if (k == 0) rss_delta = current_rss_bytes() - rss;
  }
  const std::size_t entries = service->cache_size();

  const double cpu_start = cpu_seconds();
  const double wall_start = now_s();
  std::vector<Request> reference = make_requests(count_at(shape.ref_rate, ref_s));
  send_open_loop(*service, inputs, reference, shape.ref_rate);
  const double cpu_util = (cpu_seconds() - cpu_start) / (now_s() - wall_start);
  // Before the ladder, whose length depends on the machine's speed.
  const double peak_rss = peak_rss_mb();
  const Phase ref = check_phase(reference, refs, shape, warm, checker);
  result.attempted += reference.size();
  result.failed += ref.refused + ref.wrong;
  const Tail req_tail = tail(ref.latency_ms);
  const Tail lag_tail = tail(ref.lag_ms);

  // Service figures come from the reference phase cut into windows of
  // one pass through the input list; on warm-hits every such window
  // carries the same mix.  As on cold-sweep, only the faster half of the
  // windows counts, so slow phases of a shared machine drop out.
  // Requests past the last whole window are left out, unless there is
  // at most one window (miss-churn never repeats an input).
  struct Window {
    double busy_ms = 0.0;
    std::uint64_t cells = 0;
    std::vector<double> service_ms;
  };
  std::vector<Window> windows(std::max<std::size_t>(1, reference.size() / inputs.size()));
  for (std::size_t j = 0; j < ref.service_ms.size(); ++j) {
    const std::size_t w = windows.size() == 1 ? 0 : ref.ok_position[j] / inputs.size();
    if (w >= windows.size()) continue;
    windows[w].busy_ms += ref.service_ms[j];
    windows[w].cells += ref.ok_cells[j];
    windows[w].service_ms.push_back(ref.service_ms[j]);
  }
  const std::size_t windows_run = windows.size();
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) { return a.busy_ms < b.busy_ms; });
  windows.resize((windows.size() + 1) / 2);
  double busy_s = 0.0;
  std::uint64_t cells = 0;
  std::vector<double> service_ms;
  for (const Window& w : windows) {
    busy_s += w.busy_ms / 1e3;
    cells += w.cells;
    service_ms.insert(service_ms.end(), w.service_ms.begin(), w.service_ms.end());
  }
  const Tail set_tail = tail(service_ms);

  char line[384];
  std::snprintf(line, sizeof line,
                "%s: open loop at %.1f req/s for %.1f s, %zu requests; req_ms_tail = p%.2f "
                "of %zu, set_ms_tail = p%.2f of %zu (faster %zu of %zu windows); "
                "loadgen.lag_ms_tail = %.3f ms (p%.2f)",
                config.workload.c_str(), shape.ref_rate, ref_s, reference.size(), req_tail.pct,
                req_tail.samples, set_tail.pct, set_tail.samples, windows.size(), windows_run,
                lag_tail.value, lag_tail.pct);
  report.note(line);
  std::snprintf(line, sizeof line, "  service ms: p25 %.3f p50 %.3f p75 %.3f p90 %.3f",
                percentile(ref.service_ms, 25), percentile(ref.service_ms, 50),
                percentile(ref.service_ms, 75), percentile(ref.service_ms, 90));
  report.note(line);
  if (ref.miss_requests != (warm ? 0u : ref.latency_ms.size())) {
    report.note("shape: " + std::to_string(ref.miss_requests) + " of " +
                std::to_string(ref.latency_ms.size()) + " ok replies had misses");
  }

  if (!config.trace) {
    // Goodput: climb the ladder until a rung misses the latency limit or
    // its backlog grows.
    double goodput = 0.0;
    if (rung_passes(ref, shape)) {
      goodput = shape.ref_rate;
      for (int k = 0; k < shape.rungs; ++k) {
        const double rate = shape.ladder * std::pow(shape.ratio, k);
        std::vector<Request> rung = make_requests(count_at(rate, rung_s));
        send_open_loop(*service, inputs, rung, rate);
        const Phase p = check_phase(rung, refs, shape, warm, checker);
        const bool passes = rung_passes(p, shape);
        // The rung that ends the ladder is a capacity probe: the requests
        // it had refused or expired are its expected outcome and count
        // against the rung, not as failed operations.  Wrong bytes always
        // count.
        result.attempted += rung.size() - (passes ? 0 : p.refused);
        result.failed += p.wrong;
        std::snprintf(line, sizeof line,
                      "  rung %.1f req/s: tail %.4g ms (limit %.0f), mean service %.3f ms, "
                      "%llu refused or expired%s",
                      rate, p.tail_all_ms, shape.limit_ms,
                      std::accumulate(p.service_ms.begin(), p.service_ms.end(), 0.0) /
                          static_cast<double>(std::max<std::size_t>(1, p.service_ms.size())),
                      static_cast<unsigned long long>(p.refused),
                      p.backlog_growing ? ", backlog growing" : "");
        report.note(line);
        if (!passes) break;
        goodput = rate;
      }
    } else {
      // Even the reference rate misses the limit: report the rate of
      // replies that met it.
      std::size_t met = 0;
      for (const double ms : ref.latency_ms) met += ms <= shape.limit_ms ? 1 : 0;
      goodput = static_cast<double>(met) / ref_s;
    }
    report.set("cells_per_s", static_cast<double>(cells) / busy_s, "1/s");
    report.set("set_ms_p50", median(service_ms), "ms");
    report.set("set_ms_tail", set_tail.value, "ms");
    report.set("goodput_rps", goodput, "1/s");
    report.set("setup_s", median(setups), "s");
    report.set("peak_rss_mb", peak_rss, "MiB");
    result.correct = checker.mismatches() == 0;
    return result;
  }

  // ---- traced run ----
  const serve::Counters counters = service->counters();
  service.reset();
  const std::size_t files_after_run = rv::engine::list_cache_files(dir).size();

  // The reference phase's ok requests are replayed back to back twice,
  // each time from a fresh copy of the resident cache: untraced through
  // `Service::process`, which gives the untraced `serve.exec_ms`, and
  // traced through the public calls.  The two take turns every few
  // requests, so the machine's drift falls on both alike.  Without
  // forked children, the service's worker and this thread also share
  // one CPU; forked children are left free, as pinned they would queue
  // behind their parent.  Short runs repeat the whole replay until the
  // untraced side has taken kMinCheckS.  Both sides must reproduce the
  // service's replies byte for byte.  A request the service failed is
  // already counted, and is skipped.
  constexpr double kMinCheckS = 1.0;
  constexpr int kMaxRounds = 20;
  constexpr std::size_t kTurn = 16;
  std::vector<std::size_t> ok;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i].reply.rfind("{\"reply\":\"ok\"", 0) == 0) ok.push_back(i);
  }
  const fs::path exec_dir = config.work / "exec";
  std::optional<PinToCpu> pin;
  if (shape.procs == 1) pin.emplace(sched_getcpu());
  Replay replay;
  replay.dir = config.work / "replay";
  replay.procs = shape.procs;
  double load_s = 0.0;
  double load_mb = 0.0;
  double exec_s = 0.0;
  int rounds = 0;
  while (rounds == 0 || (exec_s < kMinCheckS && rounds < kMaxRounds)) {
    link_base(config.base, exec_dir, resident);
    serve::Service untraced(service_options(exec_dir, shape.procs));
    link_base(config.base, replay.dir, resident);
    replay.cache.clear();
    const double load_start = now_s();
    (void)rv::engine::load_cache_dir(replay.dir, &replay.cache);
    if (rounds == 0) {
      load_s = now_s() - load_start;
      load_mb = static_cast<double>(dir_bytes(replay.dir)) / (1024.0 * 1024.0);
    }
    for (std::size_t first = 0; first < ok.size(); first += kTurn) {
      const std::size_t last = std::min(ok.size(), first + kTurn);
      for (std::size_t j = first; j < last; ++j) {
        const Request& r = reference[ok[j]];
        const double start = now_s();
        const std::string reply = untraced.process(r.header, inputs[r.input].body);
        exec_s += now_s() - start;
        result.attempted += 1;
        if (!checker.same(reply, r.reply)) result.failed += 1;
      }
      for (std::size_t j = first; j < last; ++j) {
        const Request& r = reference[ok[j]];
        std::string reply;
        try {
          reply = replay.execute(r.header, inputs[r.input].body, ok[j]);
        } catch (const std::exception& error) {
          reply = std::string("replay failed: ") + error.what();
        }
        result.attempted += 1;
        if (!checker.same(reply, r.reply)) result.failed += 1;
      }
    }
    rounds += 1;
  }
  pin.reset();

  // Restart: a fresh service on the run's directory replays its bodies.
  double restart_hit_ratio = 0.0;
  if (!warm) {
    serve::Service restarted(service_options(dir, 1));
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const Request& r : reference) {
      const std::string reply = restarted.process(r.header, inputs[r.input].body);
      hits += header_field(reply, "hits");
      misses += header_field(reply, "misses");
    }
    restart_hit_ratio = static_cast<double>(hits) / static_cast<double>(hits + misses);
  }

  Tracer cells_tracer;
  double serial_ms = 0.0;
  report_sweep(replay.computed, cells_tracer, report, &serial_ms);

  const Tracer& t = replay.tracer;
  // Replayed requests, over every round.
  const double n = static_cast<double>(std::max<std::size_t>(1, ok.size() * rounds));
  const auto mean = [&](const char* name, double scale) {
    std::size_t count = 0;
    const double sum = t.total(name, &count);
    return count > 0 ? sum / static_cast<double>(count) * scale : 0.0;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::size_t key_count = 0;
  const double key_s = t.total("cache_key", &key_count);
  const double store_s = t.total("store");

  report.set("req_ms_p50", median(ref.latency_ms), "ms");
  report.set("req_ms_tail", req_tail.value, "ms");
  report.set("set_decl.parse_us", mean("parse_set_decl", 1e6), "us");
  report.set("set_decl.body_kb",
             ratio(replay.body_bytes, static_cast<double>(replay.inline_requests)) / 1024.0,
             "KiB");
  report.set("scenario_set.materialize_us", t.total("materialize_work") / n * 1e6, "us");
  report.set("scenario_set.items", replay.items / n, "count");
  report.set("families.cache_key_ns", ratio(key_s, static_cast<double>(key_count)) * 1e9, "ns");
  report.set("families.cache_key_share", ratio(key_s, t.root_total()), "share");
  // Misses run in-process only with one proc; forked children are the
  // supervisor's.
  report.set("runner.cold_ms", mean("run_misses", 1e3), "ms");
  report.set("runner.parallel_efficiency", 0.0, "share");
  report.set("runner.warm_replay_us", t.total("warm_replay") / n * 1e6, "us");
  report.set("runner.emit_csv_us", mean("emit_csv", 1e6), "us");
  report.set("runner.emit_json_us", mean("emit_json", 1e6), "us");
  report.set("runner.emit_table_us", mean("emit_table", 1e6), "us");
  report.set("runner.emit_kb", replay.payload_bytes / n / 1024.0, "KiB");
  report.set("cache.entries", static_cast<double>(entries), "count");
  report.set("cache.bytes_per_entry", ratio(rss_delta, static_cast<double>(entries)), "B");
  report.set("cache.contains_ns", mean("contains", 1e9), "ns");
  report.set("cache.lookup_ns", ratio(replay.lookup_s, static_cast<double>(replay.lookups)) * 1e9,
             "ns");
  report.set("cache.hit_ratio",
             ratio(static_cast<double>(replay.hits),
                   static_cast<double>(replay.hits + replay.misses)),
             "share");
  report.set("cache.store_ns", ratio(store_s, static_cast<double>(replay.stores)) * 1e9, "ns");
  report.set("cache_store.load_s", load_s, "s");
  report.set("cache_store.load_mb_per_s", load_mb / load_s, "MiB/s");
  report.set("cache_store.save_ms", mean("save_cache_file", 1e3), "ms");
  report.set("cache_store.saved_kb_per_req", replay.saved_bytes / n / 1024.0, "KiB");
  report.set("cache_store.files_after_run", static_cast<double>(files_after_run), "count");
  report.set("cache_store.restart_hit_ratio", restart_hit_ratio, "share");
  report.set("shard.warm_snapshot_ms",
             mean("warm_snapshot", 1e3) + mean("release_snapshot", 1e3), "ms");
  report.set("shard.fold_back_ms", mean("fold_back", 1e3), "ms");
  report.set("supervisor.dispatch_ms", mean("supervise_shards", 1e3), "ms");
  report.set("supervisor.attempts_per_req",
             ratio(static_cast<double>(replay.attempts), static_cast<double>(replay.dispatches)),
             "count");
  report.set("supervisor.failed_shards", static_cast<double>(replay.failed_shards), "count");
  report.set("supervisor.dispatch_share",
             ratio(static_cast<double>(replay.dispatches),
                   static_cast<double>(replay.miss_requests)),
             "share");
  report.set("serve.parse_request_us", mean("parse_request", 1e6), "us");
  report.set("serve.frame_us", mean("frame", 1e6), "us");
  report.set("serve.exec_ms", exec_s / n * 1e3, "ms");
  report.set("serve.persist_ms", mean("persist", 1e3), "ms");
  report.set("serve.queue_wait_ms_p50", median(ref.wait_ms), "ms");
  report.set("serve.queue_wait_ms_tail", tail(ref.wait_ms).value, "ms");
  report.set("serve.rejected", static_cast<double>(counters.rejected), "count");
  report.set("serve.expired", static_cast<double>(counters.expired), "count");
  report.set("loadgen.lag_ms_tail", lag_tail.value, "ms");
  report.set("loadgen.sent", static_cast<double>(reference.size()), "count");
  report.set("loadgen.offered_rps", shape.ref_rate, "1/s");
  report.set("proc.cpu_util", cpu_util, "cores");
  report_self_times(t, n, serial_ms / n, report);
  check_trace(t.root_total(), exec_s, "Service::process time", config, result);
  replay.tracer.write(config.work / "spans.jsonl");
  result.correct = checker.mismatches() == 0;
  return result;
}

}  // namespace perfbench
