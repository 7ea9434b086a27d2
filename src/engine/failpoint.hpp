#pragma once

/// \file failpoint.hpp
/// Deterministic fault injection for the sharded pipeline.
///
/// A *failpoint* is a named site in production code where a fault can
/// be injected on demand: a crash, a thrown error, a delay, or a torn
/// (truncated) write.  Sites are compiled in permanently and cost one
/// relaxed atomic load when nothing is armed, so shipping them is
/// free; chaos tests and operators arm them through the
/// `RV_FAILPOINTS` environment variable or the programmatic `arm()`
/// API.
///
/// Spec grammar (entries joined by ';'):
///
///     site=action[(arg)][,trigger]...
///
///     actions   crash(exit_code)   _exit(exit_code)        [default 86]
///               error              throw FailpointError
///               delay(ms)          sleep, then continue    [default 100]
///               torn_write(bytes)  site-applied truncation [default 0]
///     triggers  1inN      fire each hit with probability 1/N
///                         (deterministic per hit ordinal, see below)
///               after=K   ignore the first K hits
///               limit=K   fire at most K times (0 = unlimited)
///               index=K   only hits reporting index K (shard id, ...)
///               seed=N    the 1inN decision stream's seed
///
/// Example — crash shard 1's worker on its first attempt only:
///
///     RV_FAILPOINTS='shard.worker.start=crash(87),index=1,limit=1'
///
/// Determinism: the `1inN` coin for hit ordinal `h` is drawn from a
/// `mathx::Xoshiro256` seeded with (seed, site-name hash, h) — no
/// global stream, no ordering dependence — so a chaos run is
/// reproducible by seed at any thread count.  Hit and fire counters
/// live in a `MAP_SHARED` slab so forked children (shard workers,
/// supervisor retries) consume the same budget: `limit=1` means once
/// per *run*, not once per process.
///
/// Un-armed builds show zero behavioral drift: sites return inert
/// `Hit{}` values and goldens/`cache_key` are untouched.  Site names
/// must match `[a-z0-9_.]+` and be unique, enforced by the
/// `failpoint-site` rule in tools/rv_lint.cpp.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rv::engine::failpoint {

/// Thrown by the `error` action.  Deliberately a distinct type so
/// chaos tests can tell an injected fault from a real one.
class FailpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Action : std::uint8_t { kCrash, kError, kDelay, kTornWrite };

/// What a site observes when it evaluates.  `crash` and `error` never
/// return; `delay` returns after sleeping; `torn_write` returns its
/// byte budget for the site to apply (only sites that write files
/// honour it — everywhere else it is inert by design).
struct Hit {
  bool fired = false;
  Action action = Action::kError;
  std::uint64_t arg = 0;
};

/// Index wildcard: hits that report no index, and armed entries with
/// no `index=` selector.
inline constexpr std::size_t kAnyIndex = static_cast<std::size_t>(-1);

namespace detail {
/// Count of armed entries; the macros' fast path reads only this.
extern std::atomic<int> g_armed;
Hit hit_slow(std::string_view site, std::size_t index);
}  // namespace detail

/// True when at least one entry is armed (in this process tree).
[[nodiscard]] inline bool enabled() {
  return detail::g_armed.load(std::memory_order_acquire) != 0;
}

/// Evaluates the site: the disabled path is one atomic load.  `index`
/// selects which hits an `index=K` entry matches (e.g. the shard id).
inline Hit hit(std::string_view site, std::size_t index = kAnyIndex) {
  if (!enabled()) return Hit{};
  return detail::hit_slow(site, index);
}

/// Arms every entry of `spec` (see the grammar above), *appending* to
/// whatever is already armed.  All-or-nothing: a malformed spec throws
/// std::invalid_argument and arms no entry.
void arm(const std::string& spec);

/// Arms from the RV_FAILPOINTS environment variable, if set.  Called
/// automatically before main() in every binary linking this TU; a
/// malformed value is a loud _exit(2), not a silently inert run.
void arm_from_env();

/// Disarms everything and zeroes the shared counters.
void disarm_all();

/// Number of armed entries.
[[nodiscard]] std::size_t armed_count();

/// Per-entry counters (observability for tests and tools).  `fires`
/// is capped at the entry's limit when one is set.
struct SiteStats {
  std::string site;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};
[[nodiscard]] std::vector<SiteStats> stats();

}  // namespace rv::engine::failpoint

/// Fire-and-forget site: crash/error/delay act here, torn_write is
/// inert (nothing to truncate).
#define RV_FAILPOINT(site)                          \
  do {                                              \
    (void)::rv::engine::failpoint::hit(site);       \
  } while (0)

/// Site with an index (shard id, record ordinal, ...) for `index=K`
/// entry selectors.
#define RV_FAILPOINT_AT(site, index)                 \
  do {                                               \
    (void)::rv::engine::failpoint::hit(site, index); \
  } while (0)

/// Site that inspects the Hit (the torn_write consumer).
#define RV_FAILPOINT_EVAL(site) ::rv::engine::failpoint::hit(site)
