#pragma once

// The three workloads and what they share: run configuration, the
// byte-for-byte checker, and document rendering.

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "engine/runner.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path repo;  ///< checkout root (examples/, tests/golden/)
  std::filesystem::path base;  ///< resident cache built by `build_base`
  std::filesystem::path work;  ///< this run's scratch directory
  /// Checker self-test: flip one byte of the reply with this ordinal
  /// before it is compared (-1: never).
  long corrupt = -1;
  /// Shrinks the serve workloads' rates and pools for smoke tests.
  bool tiny = false;
  /// Largest |traced - untraced| / untraced a traced run accepts: the
  /// bound BENCHMARK.json gives `set_ms_p50`.
  double trace_bound = 0.0;
};

struct Result {
  bool correct = true;  ///< no timed document or reply differed from its reference
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< errors, refusals, expiries and wrong bytes
  Report report;
};

/// Compares every timed document/reply with its reference, byte for
/// byte.  The reference is always computed outside the timed window.
class Checker {
 public:
  explicit Checker(long corrupt) : corrupt_(corrupt) {}
  /// True when `actual` equals `expected`.
  bool same(std::string_view actual, std::string_view expected);
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }

 private:
  long corrupt_;
  long checked_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// The document `rv_serve` returns for `format` (csv, json or table).
std::string render(const rv::engine::ResultSet& results, const std::string& format);

/// Runs `work` serially through the family cell runners and reports the
/// `sweep.*` metrics; `*serial_ms` receives the total cell time.
void report_sweep(const std::vector<rv::engine::WorkItem>& work, Tracer& tracer,
                  Report& report, double* serial_ms);

/// Sets `self_ms.<layer>` for every layer, 0 for a layer without spans:
/// the traced layers' self times per `units` (declarations or
/// requests), and `sweep_ms` for the sweep, which a separate serial pass
/// times.
void report_self_times(const Tracer& tracer, double units, double sweep_ms, Report& report);

/// Traced-run consistency check: the traced layers' self times, summed
/// (`traced_s`), must account for `untraced_s`, the untraced time of the
/// same work, within `config.trace_bound`.  Sets
/// `trace.overhead_share`; a miss counts one failed operation.
void check_trace(double traced_s, double untraced_s, const std::string& untraced_name,
                 const Config& config, Result& result);

Result run_cold_sweep(const Config& config);
/// warm-hits and miss-churn.
Result run_serve(const Config& config);

/// Computes the resident universe and writes it to `dir` as cache
/// files, one per declaration; returns the number of outcomes.
std::size_t build_base(const std::filesystem::path& dir);

}  // namespace perfbench
