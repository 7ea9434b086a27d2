#pragma once

#include <sched.h>

// Shared pieces of the end-to-end benchmark: the clock, order
// statistics, the metric report, the seeded generator's inputs, and
// the span recorder of traced runs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------
// Clock and order statistics
// ---------------------------------------------------------------------

/// Monotonic seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile `p` in [0, 100] of `values` (copied, sorted).
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it, and the
/// value there; never below the median (with fewer than 21 samples the
/// median is reported).
struct Tail {
  double pct = 100.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

/// The whole file as bytes.  \throws std::runtime_error when unreadable.
std::string read_file(const std::filesystem::path& path);

/// Peak resident set of this process, MiB (getrusage).
double peak_rss_mb();
/// Current resident set of this process, bytes (/proc/self/statm).
double current_rss_bytes();
/// CPU seconds (user + system) of this process and its waited-for
/// children.
double cpu_seconds();

/// Pins the calling thread to `cpu`, and with it every thread and
/// process it starts while pinned; restores the old mask on
/// destruction.  On a shared machine two threads can run at different
/// speeds for a whole run, so work that is compared across threads must
/// share a CPU.
class PinToCpu {
 public:
  explicit PinToCpu(int cpu);
  ~PinToCpu();
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// Metrics of one run, printed as the result line's `metrics` object.
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  /// One human-readable note printed above the result line.
  void note(const std::string& line) { notes_.push_back(line); }
  /// The result line: exactly the metrics of `schema`, in its order.  A
  /// layer that did no work must be set to 0 explicitly.
  /// \throws std::logic_error when the run left a schema metric unset,
  /// or set a metric the schema lacks or with another unit.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed,
                                 const std::vector<Metric>& schema) const;
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> notes_;
};

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

/// Deterministic 64-bit generator (splitmix64); the benchmark's only
/// source of randomness, so equal seeds give equal inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
  /// Uniform double in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

/// One `.rvset` declaration or serve request the generator produced.
struct Input {
  std::string set;     ///< named built-in set (exclusive with body)
  std::string body;    ///< inline `.rvset` text
  std::string format = "csv";
  std::string golden;  ///< tests/golden/rv_batch/<golden> pins the CSV
};

/// The universe of cheap cells the resident cache holds: every inline
/// warm-hits request is a sub-grid of one of these declarations.
std::vector<std::string> universe_bodies();
/// The five built-in set names (each also resident).
std::vector<std::string> builtin_names();

/// cold-sweep: the five twins plus seeded perturbations of their cell
/// shapes, one pass of the closed loop.
std::vector<Input> cold_sweep_inputs(std::uint64_t seed,
                                     const std::filesystem::path& repo);
/// warm-hits: a pool of distinct all-hit requests.
std::vector<Input> warm_hit_pool(std::uint64_t seed, std::size_t count);
/// The one resident cache file miss-churn's service holds: the grid its
/// bodies overlap.
std::string churn_resident_file();
/// miss-churn: novel inline bodies whose grids overlap earlier ones.
std::vector<Input> miss_churn_bodies(std::uint64_t seed, std::size_t count);

/// Renders a double the way the generator writes it into `.rvset` text
/// (shortest round-trip form accepted by the strict number grammar).
std::string num(double value);

// ---------------------------------------------------------------------
// Spans (traced runs only)
// ---------------------------------------------------------------------

/// In-memory span recorder for a single thread.  A span is opened
/// around one call into a layer's public function; a layer's self time
/// is its spans' durations minus what their child spans cover.
class Tracer {
 public:
  struct Span {
    const char* layer = "";
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  void begin_request(std::uint64_t id) { request_ = id; }

  /// Total duration of spans named `name` (seconds) and their count.
  [[nodiscard]] double total(const std::string& name,
                             std::size_t* count = nullptr) const;
  /// Self time per layer, seconds.
  [[nodiscard]] std::map<std::string, double> self_times() const;
  /// Sum of root-span durations, seconds.
  [[nodiscard]] double root_total() const;
  /// Writes one JSON line per span.
  void write(const std::filesystem::path& path) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
  std::uint64_t request_ = 0;
};

}  // namespace perfbench
