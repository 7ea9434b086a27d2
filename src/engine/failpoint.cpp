#include "engine/failpoint.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "mathx/rng.hpp"

namespace rv::engine::failpoint {

namespace {

/// Counter-slab capacity.  256 entries × 16 bytes = one page; a spec
/// arming more than 256 failpoints is a configuration error.
constexpr std::size_t kMaxEntries = 256;

constexpr std::uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kDefaultCrashCode = 86;
constexpr std::uint64_t kDefaultDelayMs = 100;

/// One armed spec entry.  Immutable once published (hit_slow reads a
/// snapshot pointer); the mutable state lives in the counter slab.
struct Entry {
  std::string site;
  Action action = Action::kError;
  std::uint64_t arg = 0;
  std::uint64_t one_in = 1;   ///< fire each hit with probability 1/one_in
  std::uint64_t after = 0;    ///< ignore the first `after` hits
  std::uint64_t limit = 0;    ///< at most `limit` fires (0 = unlimited)
  std::size_t index = kAnyIndex;  ///< only hits reporting this index
  std::uint64_t seed = kDefaultSeed;
  std::size_t slot = 0;       ///< counter-slab slot
};

/// Per-entry counters.  The slab is MAP_SHARED so forked children
/// (shard workers, supervisor retries) increment the same memory: a
/// `limit=1` budget spent by a crashed child stays spent in its
/// retry.  Plain 64-bit atomics are address-free, which is exactly
/// what cross-process shared memory requires.
struct Counters {
  std::atomic<std::uint64_t> hits;
  std::atomic<std::uint64_t> fires;
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "failpoint counters must be lock-free to share across fork");

Counters* slab() {
  static Counters* shared = [] {
    void* mem = ::mmap(nullptr, kMaxEntries * sizeof(Counters),
                       PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                       -1, 0);
    if (mem != MAP_FAILED) return static_cast<Counters*>(mem);
    // No shared mapping (exotic sandbox): fall back to process-local
    // counters — everything still works except cross-fork budgets.
    return new Counters[kMaxEntries]();
  }();
  return shared;
}

std::mutex& arm_mutex() {
  static std::mutex m;
  return m;
}

/// The armed snapshot.  Readers load the pointer once; writers build a
/// new vector under the mutex and retire the old one to a graveyard
/// (kept reachable so in-flight readers stay valid and leak checkers
/// stay quiet).
std::atomic<const std::vector<Entry>*> g_entries{nullptr};
std::vector<std::unique_ptr<const std::vector<Entry>>>& graveyard() {
  static std::vector<std::unique_ptr<const std::vector<Entry>>> g;
  return g;
}
std::size_t g_next_slot = 0;  // guarded by arm_mutex()

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

[[noreturn]] void bad_spec(const std::string& why) {
  throw std::invalid_argument("RV_FAILPOINTS: " + why);
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  std::size_t end = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &end);
  } catch (const std::exception&) {
    bad_spec(what + " expects an unsigned integer, got '" + text + "'");
  }
  if (end != text.size() || text.empty() || text[0] == '-') {
    bad_spec(what + " expects an unsigned integer, got '" + text + "'");
  }
  return value;
}

bool valid_site_name(std::string_view site) {
  if (site.empty()) return false;
  for (const char c : site) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

/// Parses one `site=action[(arg)][,trigger]...` entry (slot unset).
Entry parse_entry(const std::string& text) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos) {
    bad_spec("entry '" + text + "' has no '=' (want site=action[,trigger]*)");
  }
  Entry entry;
  entry.site = text.substr(0, eq);
  if (!valid_site_name(entry.site)) {
    bad_spec("site name '" + entry.site + "' must match [a-z0-9_.]+");
  }
  // Split the right-hand side on ',' — first token is the action, the
  // rest are triggers.
  std::vector<std::string> tokens;
  std::size_t pos = eq + 1;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    tokens.push_back(text.substr(pos, comma - pos));
    pos = comma + 1;
  }
  const std::string& action = tokens[0];
  std::string name = action;
  std::string arg;
  bool has_arg = false;
  const std::size_t open = action.find('(');
  if (open != std::string::npos) {
    if (action.back() != ')') {
      bad_spec("malformed action '" + action + "' (unbalanced parentheses)");
    }
    name = action.substr(0, open);
    arg = action.substr(open + 1, action.size() - open - 2);
    has_arg = true;
  }
  if (name == "crash") {
    entry.action = Action::kCrash;
    entry.arg = has_arg ? parse_u64(arg, "crash(exit_code)") : kDefaultCrashCode;
    if (entry.arg > 255) bad_spec("crash exit code must be in [0, 255]");
  } else if (name == "error") {
    if (has_arg) bad_spec("error takes no argument");
    entry.action = Action::kError;
  } else if (name == "delay") {
    entry.action = Action::kDelay;
    entry.arg = has_arg ? parse_u64(arg, "delay(ms)") : kDefaultDelayMs;
  } else if (name == "torn_write") {
    entry.action = Action::kTornWrite;
    entry.arg = has_arg ? parse_u64(arg, "torn_write(bytes)") : 0;
  } else {
    bad_spec("unknown action '" + name +
             "' (want crash, error, delay or torn_write)");
  }
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& trigger = tokens[i];
    if (trigger.rfind("1in", 0) == 0) {
      entry.one_in = parse_u64(trigger.substr(3), "1inN");
      if (entry.one_in == 0) bad_spec("1inN needs N >= 1");
    } else if (trigger.rfind("after=", 0) == 0) {
      entry.after = parse_u64(trigger.substr(6), "after=");
    } else if (trigger.rfind("limit=", 0) == 0) {
      entry.limit = parse_u64(trigger.substr(6), "limit=");
    } else if (trigger.rfind("index=", 0) == 0) {
      entry.index =
          static_cast<std::size_t>(parse_u64(trigger.substr(6), "index="));
    } else if (trigger.rfind("seed=", 0) == 0) {
      entry.seed = parse_u64(trigger.substr(5), "seed=");
    } else {
      bad_spec("unknown trigger '" + trigger +
               "' (want 1inN, after=K, limit=K, index=K or seed=N)");
    }
  }
  return entry;
}

void publish(std::vector<Entry> entries) {
  auto next = std::make_unique<const std::vector<Entry>>(std::move(entries));
  const std::vector<Entry>* raw = next.get();
  const int count = static_cast<int>(raw->size());
  graveyard().push_back(std::move(next));
  g_entries.store(raw->empty() ? nullptr : raw, std::memory_order_release);
  detail::g_armed.store(count, std::memory_order_release);
}

}  // namespace

namespace detail {

std::atomic<int> g_armed{0};

Hit hit_slow(std::string_view site, std::size_t index) {
  const std::vector<Entry>* entries =
      g_entries.load(std::memory_order_acquire);
  if (entries == nullptr) return Hit{};
  for (const Entry& entry : *entries) {
    if (entry.site != site) continue;
    if (entry.index != kAnyIndex && entry.index != index) continue;
    Counters& counters = slab()[entry.slot];
    const std::uint64_t ordinal =
        counters.hits.fetch_add(1, std::memory_order_relaxed);
    if (ordinal < entry.after) continue;
    if (entry.one_in > 1) {
      // A fresh generator per hit, keyed by (seed, site, ordinal):
      // stateless, so the decision for hit h never depends on thread
      // interleaving — only on how often the site was reached.
      mathx::Xoshiro256 rng(entry.seed ^ fnv1a64(entry.site) ^
                            (0x9e3779b97f4a7c15ull * (ordinal + 1)));
      if (rng.uniform_int(1, static_cast<std::int64_t>(entry.one_in)) != 1) {
        continue;
      }
    }
    const std::uint64_t fired =
        counters.fires.fetch_add(1, std::memory_order_relaxed);
    if (entry.limit != 0 && fired >= entry.limit) continue;
    switch (entry.action) {
      case Action::kCrash:
        std::fprintf(stderr, "failpoint: '%s' fired: crash(%d)\n",
                     entry.site.c_str(), static_cast<int>(entry.arg));
        ::_exit(static_cast<int>(entry.arg));
      case Action::kError:
        throw FailpointError("failpoint '" + entry.site + "' fired: error");
      case Action::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(entry.arg));
        return Hit{true, Action::kDelay, entry.arg};
      case Action::kTornWrite:
        return Hit{true, Action::kTornWrite, entry.arg};
    }
  }
  return Hit{};
}

}  // namespace detail

void arm(const std::string& spec) {
  if (spec.empty()) bad_spec("empty spec");
  // Parse everything first — a malformed spec must arm nothing.
  std::vector<Entry> parsed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    parsed.push_back(parse_entry(spec.substr(pos, semi - pos)));
    pos = semi + 1;
  }
  const std::lock_guard<std::mutex> lock(arm_mutex());
  const std::vector<Entry>* current =
      g_entries.load(std::memory_order_acquire);
  std::vector<Entry> next = current ? *current : std::vector<Entry>{};
  for (Entry& entry : parsed) {
    if (g_next_slot >= kMaxEntries) {
      bad_spec("too many armed failpoints (max " +
               std::to_string(kMaxEntries) + ")");
    }
    entry.slot = g_next_slot++;
    slab()[entry.slot].hits.store(0, std::memory_order_relaxed);
    slab()[entry.slot].fires.store(0, std::memory_order_relaxed);
    next.push_back(std::move(entry));
  }
  publish(std::move(next));
}

void arm_from_env() {
  const char* spec = std::getenv("RV_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') return;
  try {
    arm(spec);
  } catch (const std::invalid_argument& e) {
    // A chaos run with a typo'd spec must not silently run fault-free
    // and "pass" — fail the process before it does any work.
    std::fprintf(stderr, "failpoint: %s\n", e.what());
    ::_exit(2);
  }
}

void disarm_all() {
  const std::lock_guard<std::mutex> lock(arm_mutex());
  for (std::size_t i = 0; i < g_next_slot; ++i) {
    slab()[i].hits.store(0, std::memory_order_relaxed);
    slab()[i].fires.store(0, std::memory_order_relaxed);
  }
  g_next_slot = 0;
  publish({});
}

std::size_t armed_count() {
  const int n = detail::g_armed.load(std::memory_order_acquire);
  return n < 0 ? 0 : static_cast<std::size_t>(n);
}

std::vector<SiteStats> stats() {
  const std::vector<Entry>* entries =
      g_entries.load(std::memory_order_acquire);
  std::vector<SiteStats> out;
  if (entries == nullptr) return out;
  out.reserve(entries->size());
  for (const Entry& entry : *entries) {
    SiteStats s;
    s.site = entry.site;
    s.hits = slab()[entry.slot].hits.load(std::memory_order_relaxed);
    s.fires = slab()[entry.slot].fires.load(std::memory_order_relaxed);
    // The fire counter also counts fires suppressed past the limit;
    // report what actually happened.
    if (entry.limit != 0 && s.fires > entry.limit) s.fires = entry.limit;
    out.push_back(std::move(s));
  }
  return out;
}

namespace {
/// Arms from the environment before main() in every binary that pulls
/// this TU (everything touching the runner or cache store does).
[[maybe_unused]] const bool g_env_armed = (arm_from_env(), true);
}  // namespace

}  // namespace rv::engine::failpoint
