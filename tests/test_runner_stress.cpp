// Concurrency stress for the Runner thread pool and the shared
// ScenarioCache — written for the TSan leg of the sanitizer matrix
// (see docs/DEVELOPMENT.md), where it is the test that makes the
// "thread-safe" claims earn their keep: several driver threads hammer
// ONE cache through concurrent run_scenarios calls (mixed cache hits,
// misses, and uncacheable items, so every branch of the runner's
// memoization races with the others) while a reader thread polls
// size() / snapshot() / lookup() the whole time.  Under TSan any
// unsynchronised access in ScenarioCache or the runner's counters is a
// hard failure; under the plain build the test still pins the
// certified property that concurrency must never change bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/families.hpp"
#include "engine/runner.hpp"
#include "engine/serve.hpp"
#include "io/csv.hpp"
#include "search/algorithm4.hpp"
#include "rv_batch_sets.hpp"
#include "support/io.hpp"

namespace {

using namespace rv;

// A mixed work list: 12 cacheable rendezvous cells (4 distinct
// scenarios x 3 repeats, so even a single run produces hits), 2
// cacheable linear cells, and 2 uncacheable search cells (an anonymous
// program factory has no content key).
std::vector<engine::WorkItem> mixed_work() {
  std::vector<engine::WorkItem> work;
  const double speeds[] = {0.5, 1.0, 2.0, 3.0};
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const double v : speeds) {
      engine::WorkItem item;
      item.family = engine::Family::kRendezvous;
      // Built via append, not operator+: `"lit" + std::string&&`
      // trips gcc 12's -Wrestrict false positive (PR 105329) at -O3.
      item.label = "v";
      item.label += io::format_double(v, 2);
      item.label += "#";
      item.label += std::to_string(repeat);
      item.scenario.attrs.speed = v;
      item.scenario.visibility = 0.25;
      item.scenario.max_time = 500.0;
      work.push_back(std::move(item));
    }
  }
  for (const double d : {1.0, 2.0}) {
    engine::WorkItem item;
    item.family = engine::Family::kLinear;
    item.label = "line-d";
    item.label += io::format_double(d, 1);
    item.linear.mode = engine::LinearMode::kZigZagSearch;
    item.linear.target = d;
    item.linear.visibility = 0.05;
    work.push_back(std::move(item));
  }
  for (int i = 0; i < 2; ++i) {
    engine::WorkItem item;
    item.family = engine::Family::kSearch;
    item.label = "anonymous#";
    item.label += std::to_string(i);
    item.search.visibility = 0.25;
    item.search.max_time = 500.0;
    item.search.program_factory = [] { return search::make_search_program(); };
    work.push_back(std::move(item));
  }
  return work;
}

constexpr std::size_t kCacheableDistinct = 4 + 2;  // scenarios + linear cells
constexpr std::size_t kCacheablePerRun = 12 + 2;
constexpr std::size_t kUncacheablePerRun = 2;

TEST(RunnerStress, ConcurrentRunnersSharedCacheAndPollingReader) {
  const std::vector<engine::WorkItem> work = mixed_work();

  // Byte reference: single-threaded, no cache.  Split per family —
  // emission requires homogeneous records.
  engine::RunnerOptions reference_opts;
  reference_opts.threads = 1;
  const engine::ResultSet reference =
      engine::run_scenarios(work, reference_opts);
  const std::string ref_rendezvous =
      reference.filtered(engine::Family::kRendezvous).to_csv();
  const std::string ref_linear =
      reference.filtered(engine::Family::kLinear).to_csv();
  const std::string ref_search =
      reference.filtered(engine::Family::kSearch).to_csv();

  engine::ScenarioCache cache;
  constexpr int kDrivers = 4;
  constexpr int kIterations = 4;
  std::atomic<int> drivers_done{0};
  std::atomic<int> byte_mismatches{0};
  std::atomic<std::uint64_t> total_hits{0}, total_misses{0},
      total_uncacheable{0};

  // The reader: polls the cache's whole read surface while the drivers
  // are writing to it.  Everything it sees must be internally
  // consistent (snapshot sorted by key, size matching, entries
  // replayable) even though it races with store().
  std::atomic<int> reader_violations{0};
  std::thread reader([&] {
    while (drivers_done.load(std::memory_order_acquire) < kDrivers) {
      const std::size_t n = cache.size();
      const auto snap = cache.snapshot();
      if (snap.size() < n) reader_violations.fetch_add(1);
      for (std::size_t i = 1; i < snap.size(); ++i) {
        if (!(snap[i - 1].first < snap[i].first)) {
          reader_violations.fetch_add(1);
        }
      }
      engine::ScenarioCache::Entry entry;
      for (const auto& [key, value] : snap) {
        if (!cache.lookup(key, &entry)) reader_violations.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&] {
      for (int it = 0; it < kIterations; ++it) {
        engine::RunnerOptions opts;
        opts.threads = 3;
        opts.cache = &cache;
        const engine::ResultSet result = engine::run_scenarios(work, opts);
        const engine::CacheStats& stats = result.cache_stats();
        total_hits.fetch_add(stats.hits);
        total_misses.fetch_add(stats.misses);
        total_uncacheable.fetch_add(stats.uncacheable);
        if (result.filtered(engine::Family::kRendezvous).to_csv() !=
                ref_rendezvous ||
            result.filtered(engine::Family::kLinear).to_csv() != ref_linear ||
            result.filtered(engine::Family::kSearch).to_csv() != ref_search) {
          byte_mismatches.fetch_add(1);
        }
      }
      drivers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (std::thread& t : drivers) t.join();
  reader.join();

  // Concurrency must never change bytes: every one of the 16 runs
  // (any thread interleaving, any hit/miss split) emitted the
  // single-threaded uncached reference exactly.
  EXPECT_EQ(byte_mismatches.load(), 0);
  EXPECT_EQ(reader_violations.load(), 0);

  // Accounting: every cacheable item was a hit or a miss, every
  // anonymous-factory item counted uncacheable, and the cache holds
  // exactly the distinct cacheable cells (a racing double-compute
  // stores once — first writer wins).
  constexpr std::uint64_t kRuns = kDrivers * kIterations;
  EXPECT_EQ(total_hits.load() + total_misses.load(),
            kRuns * kCacheablePerRun);
  EXPECT_EQ(total_uncacheable.load(), kRuns * kUncacheablePerRun);
  EXPECT_GE(total_misses.load(), kCacheableDistinct);
  EXPECT_EQ(cache.size(), kCacheableDistinct);

  // The surviving entries replay to the reference bytes.
  engine::RunnerOptions replay_opts;
  replay_opts.threads = 2;
  replay_opts.cache = &cache;
  const engine::ResultSet replay = engine::run_scenarios(work, replay_opts);
  EXPECT_EQ(replay.cache_stats().hits, kCacheablePerRun);
  EXPECT_EQ(replay.cache_stats().misses, 0u);
  EXPECT_EQ(replay.filtered(engine::Family::kRendezvous).to_csv(),
            ref_rendezvous);
  EXPECT_EQ(replay.filtered(engine::Family::kLinear).to_csv(), ref_linear);
  EXPECT_EQ(replay.filtered(engine::Family::kSearch).to_csv(), ref_search);
}

// ---------------------------------------------------------------------
// Serve-layer concurrency: many client threads against ONE in-process
// Service (the same object the rv_serve daemon wraps), mixing valid
// runs, malformed headers, unknown sets, and status polls.  Under TSan
// any unsynchronised access in the admission queue, worker pool, or
// counter block is a hard failure; under the plain build the test pins
// that concurrency never changes reply bytes and that the counters
// balance exactly.
// ---------------------------------------------------------------------

/// Splits one reply frame into header and payload via the library
/// decoder (also exercising read_frame under concurrency).
std::pair<std::string, std::string> split_frame(const std::string& frame) {
  std::istringstream stream(frame);
  std::string header, payload;
  if (!engine::serve::read_frame(stream, &header, &payload)) {
    ADD_FAILURE() << "unreadable frame: " << frame;
  }
  return {header, payload};
}

TEST(ServeStress, ConcurrentClientsOneServiceBytesAndCountersHold) {
  namespace serve = engine::serve;
  serve::Options options;
  options.workers = 4;
  options.threads = 2;
  options.resolver = [](const std::string& name) {
    return rv::batch::build_builtin_set(name);
  };
  serve::Service service(std::move(options));

  // Byte reference: one clean run through the same service surface.
  const auto [ref_header, ref_payload] = split_frame(
      service.process(R"({"op":"run","id":"ref","set":"linear-line"})"));
  ASSERT_NE(ref_header.find("\"reply\":\"ok\""), std::string::npos)
      << ref_header;
  ASSERT_FALSE(ref_payload.empty());

  constexpr int kClients = 4;
  constexpr int kIterations = 6;
  std::atomic<int> byte_mismatches{0};
  std::atomic<int> wrong_replies{0};
  std::atomic<int> clients_done{0};

  // A status poller races every client: its replies must always be
  // well-formed status frames whatever instant they sample.
  std::thread poller([&] {
    while (clients_done.load(std::memory_order_acquire) < kClients) {
      const auto [header, payload] =
          split_frame(service.process(R"({"op":"status","id":"poll"})"));
      if (header.find("\"reply\":\"status\"") == std::string::npos ||
          !payload.empty()) {
        wrong_replies.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int it = 0; it < kIterations; ++it) {
        std::string id = "c";
        id += std::to_string(c);
        id += "#";
        id += std::to_string(it);
        const auto [header, payload] = split_frame(service.process(
            R"({"op":"run","id":")" + id + R"(","set":"linear-line"})"));
        if (header.find("\"reply\":\"ok\"") == std::string::npos ||
            header.find("\"id\":\"" + id + "\"") == std::string::npos) {
          wrong_replies.fetch_add(1);
        }
        if (payload != ref_payload) byte_mismatches.fetch_add(1);

        // Malformed header: a structured parse error, service intact.
        const auto [parse_header, parse_payload] =
            split_frame(service.process("{\"op\":"));
        if (parse_header.find("\"code\":\"parse\"") == std::string::npos ||
            !parse_payload.empty()) {
          wrong_replies.fetch_add(1);
        }
        // Unknown set: bad-set.
        const auto [bad_header, bad_payload] = split_frame(
            service.process(R"({"op":"run","set":"no-such-set"})"));
        if (bad_header.find("\"code\":\"bad-set\"") == std::string::npos ||
            !bad_payload.empty()) {
          wrong_replies.fetch_add(1);
        }
      }
      clients_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (std::thread& t : clients) t.join();
  poller.join();

  EXPECT_EQ(byte_mismatches.load(), 0);
  EXPECT_EQ(wrong_replies.load(), 0);

  // Counter balance (the poller's status count varies; everything it
  // adds lands in `requests` only, so check exact equalities on the
  // deterministic slices and consistency on the rest).
  constexpr std::uint64_t kRuns = kClients * kIterations + 1;  // + reference
  constexpr std::uint64_t kBad = 2 * kClients * kIterations;
  const serve::Counters counters = service.counters();
  EXPECT_EQ(counters.ok, kRuns);
  EXPECT_EQ(counters.errors, kBad);
  EXPECT_EQ(counters.expired, 0u);
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(counters.inflight, 0u);
  EXPECT_EQ(counters.queue_depth, 0u);
  EXPECT_GE(counters.requests, kRuns + kBad);  // + status polls
  // linear-line holds 4 cacheable cells: every run accounts each one
  // as a hit or a miss, racing first-computers store once.
  EXPECT_EQ(counters.hits + counters.misses, kRuns * 4);
  EXPECT_GE(counters.misses, 4u);
  EXPECT_EQ(counters.uncacheable, 0u);
  EXPECT_EQ(service.cache_size(), 4u);

  // Warm replay after the storm: all hits, reference bytes.
  const auto [warm_header, warm_payload] = split_frame(
      service.process(R"({"op":"run","id":"warm","set":"linear-line"})"));
  EXPECT_NE(warm_header.find("\"hits\":4,\"misses\":0"), std::string::npos)
      << warm_header;
  EXPECT_EQ(warm_payload, ref_payload);
}

}  // namespace
