// bench_diff — compare two google-benchmark JSON outputs and fail on
// regressions.
//
// The repository commits BENCH_engine.json (the engine perf
// trajectory); CI regenerates it from a Release build every run.  This
// tool turns that artifact into a *gate*: given a baseline and a
// candidate file it matches benchmark series by name, computes the
// relative change of the chosen metric, and exits non-zero when any
// selected series regresses by more than the threshold, when a
// selected series silently disappears from the candidate, or when a
// --series filter matches no baseline series.
//
//   bench_diff <baseline.json> <candidate.json>
//              [--series <substring>]...      restrict to matching names
//              [--max-regress-pct <X>]        default 10
//              [--metric real_time|cpu_time]  default real_time
//              [--require-optimized]          candidate context must carry
//                                             "rv_optimized_build": "true"
//   bench_diff --self-test                    verify the gate on synthetic
//                                             data (injects a regression
//                                             and expects it to be caught)
//
// Exit codes: 0 pass, 1 regression/gate failure, 2 usage or parse error.
//
// The files are read with the project's strict JSON reader
// (`rv::io::JsonReader`, src/io/json.hpp), so the tool links rv_core.
// It walks the "context" object and the "benchmarks" array and skips
// every other member; a non-JSON token anywhere (a bare inf/nan, a hex
// float, a leading zero) fails the parse instead of entering the gate.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"

namespace {

struct Series {
  std::string name;
  double real_time = 0.0;
  double cpu_time = 0.0;
};

struct BenchFile {
  std::string optimized;  ///< context "rv_optimized_build" (empty if absent)
  std::string build_type;  ///< context "library_build_type" (informational)
  std::vector<Series> series;
};

const Series* find_series(const BenchFile& file, const std::string& name) {
  for (const Series& s : file.series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// Reads one "benchmarks" entry; false when it lacks the name or a time
// field (big-O and RMS aggregates carry no time).
bool read_series(rv::io::JsonReader& json, Series* s) {
  std::string key;
  int fields = 0;
  json.begin_object();
  while (json.next_member(&key)) {
    if (key == "name") {
      s->name = json.string();
    } else if (key == "real_time") {
      s->real_time = json.number().value;
    } else if (key == "cpu_time") {
      s->cpu_time = json.number().value;
    } else {
      json.skip_value();
      continue;
    }
    ++fields;
  }
  return fields == 3;
}

// Reads the context flags and the "benchmarks" array and skips every
// other member.  Says why on stderr and returns nullopt when the text
// is not strict JSON or has no "benchmarks" array.
std::optional<BenchFile> parse_bench_json(std::string_view text) {
  BenchFile out;
  bool have_benchmarks = false;
  try {
    rv::io::JsonReader json(text);
    std::string key;
    json.begin_object();
    while (json.next_member(&key)) {
      if (key == "context") {
        json.begin_object();
        while (json.next_member(&key)) {
          if (key == "rv_optimized_build") {
            out.optimized = json.string();
          } else if (key == "library_build_type") {
            out.build_type = json.string();
          } else {
            json.skip_value();
          }
        }
      } else if (key == "benchmarks") {
        have_benchmarks = true;
        json.begin_array();
        while (json.next_element()) {
          Series s;
          // First occurrence wins (repetition aggregates repeat the name).
          if (read_series(json, &s) && find_series(out, s.name) == nullptr) {
            out.series.push_back(std::move(s));
          }
        }
      } else {
        json.skip_value();
      }
    }
    json.end();
  } catch (const rv::io::JsonError& error) {
    std::fprintf(stderr, "bench_diff: %s\n", error.what());
    return std::nullopt;
  }
  if (!have_benchmarks) {
    std::fprintf(stderr, "bench_diff: no \"benchmarks\" array\n");
    return std::nullopt;
  }
  return out;
}

std::optional<BenchFile> load_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = parse_bench_json(buf.str());
  if (!parsed) {
    std::fprintf(stderr, "bench_diff: %s is not google-benchmark JSON\n",
                 path.c_str());
  }
  return parsed;
}

struct Options {
  std::string baseline;
  std::string candidate;
  std::vector<std::string> series_filters;
  double max_regress_pct = 10.0;
  bool use_cpu_time = false;
  bool require_optimized = false;
};

bool name_selected(const Options& opts, const std::string& name) {
  if (opts.series_filters.empty()) return true;
  return std::any_of(opts.series_filters.begin(), opts.series_filters.end(),
                     [&](const std::string& f) {
                       return name.find(f) != std::string::npos;
                     });
}

// Core comparison; returns the number of gate failures and prints the
// per-series report.
int compare(const Options& opts, const BenchFile& base,
            const BenchFile& cand) {
  int failures = 0;
  if (opts.require_optimized && cand.optimized != "true") {
    std::fprintf(stderr,
                 "bench_diff: candidate context lacks \"rv_optimized_build\": "
                 "\"true\" (got \"%s\", library_build_type \"%s\") — "
                 "unoptimized timings are not comparable\n",
                 cand.optimized.c_str(), cand.build_type.c_str());
    ++failures;
  }
  std::printf("%-44s %14s %14s %9s\n", "series", "baseline(ns)",
              "candidate(ns)", "delta");
  for (const Series& b : base.series) {
    if (!name_selected(opts, b.name)) continue;
    const Series* c = find_series(cand, b.name);
    if (!c) {
      std::printf("%-44s %14.1f %14s %9s  MISSING\n", b.name.c_str(),
                  opts.use_cpu_time ? b.cpu_time : b.real_time, "-", "-");
      ++failures;
      continue;
    }
    const double bv = opts.use_cpu_time ? b.cpu_time : b.real_time;
    const double cv = opts.use_cpu_time ? c->cpu_time : c->real_time;
    const double pct = bv > 0.0 ? (cv - bv) / bv * 100.0 : 0.0;
    const bool regressed = pct > opts.max_regress_pct;
    std::printf("%-44s %14.1f %14.1f %+8.1f%%%s\n", b.name.c_str(), bv, cv,
                pct, regressed ? "  REGRESSION" : "");
    if (regressed) ++failures;
  }
  // A filter that matches nothing in the baseline gates nothing: it is
  // stale (its series were deleted or renamed) and must be dropped.
  for (const std::string& f : opts.series_filters) {
    const bool matched =
        std::any_of(base.series.begin(), base.series.end(),
                    [&](const Series& s) {
                      return s.name.find(f) != std::string::npos;
                    });
    if (!matched) {
      std::fprintf(stderr,
                   "bench_diff: --series %s matches no baseline series\n",
                   f.c_str());
      ++failures;
    }
  }
  if (opts.series_filters.empty() && base.series.empty()) {
    std::fprintf(stderr,
                 "bench_diff: the baseline has no series — the gate would "
                 "be vacuous\n");
    ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_diff: %d failure(s) at threshold +%.1f%% on %s\n",
                 failures, opts.max_regress_pct,
                 opts.use_cpu_time ? "cpu_time" : "real_time");
  }
  return failures;
}

// Synthetic end-to-end check of the gate: a baseline and a candidate
// with one series regressed well past any sane threshold must fail,
// and the same candidate with the regression removed must pass.  Run
// by CTest (bench_diff_selftest) and by the CI perf step, so a broken
// comparator cannot silently wave regressions through.
int self_test() {
  const char* base_json = R"({
    "context": {"rv_optimized_build": "true",
                "library_build_type": "release"},
    "benchmarks": [
      {"name": "BM_A/10", "run_name": "BM_A/10",
       "real_time": 100.0, "cpu_time": 99.0, "time_unit": "ns"},
      {"name": "BM_B/10", "run_name": "BM_B/10",
       "real_time": 200.0, "cpu_time": 198.0, "time_unit": "ns"}
    ]})";
  const char* regressed_json = R"({
    "context": {"rv_optimized_build": "true",
                "library_build_type": "release"},
    "benchmarks": [
      {"name": "BM_A/10", "run_name": "BM_A/10",
       "real_time": 180.0, "cpu_time": 178.0, "time_unit": "ns"},
      {"name": "BM_B/10", "run_name": "BM_B/10",
       "real_time": 201.0, "cpu_time": 199.0, "time_unit": "ns"}
    ]})";
  const char* unoptimized_json = R"({
    "context": {"rv_optimized_build": "false",
                "library_build_type": "debug"},
    "benchmarks": [
      {"name": "BM_A/10", "run_name": "BM_A/10",
       "real_time": 100.0, "cpu_time": 99.0, "time_unit": "ns"}
    ]})";

  // Corrupt files carrying non-JSON number tokens (strtod would happily
  // read "inf", "nan" or a hex float as a giant/garbage baseline) must
  // fail the parse instead of entering the comparison.
  const char* corrupt_jsons[] = {
      R"({"benchmarks": [{"name": "BM_A/10",
          "real_time": inf, "cpu_time": 99.0}]})",
      R"({"benchmarks": [{"name": "BM_A/10",
          "real_time": nan, "cpu_time": 99.0}]})",
      R"({"benchmarks": [{"name": "BM_A/10",
          "real_time": 0x1p4, "cpu_time": 99.0}]})",
      R"({"benchmarks": [{"name": "BM_A/10",
          "real_time": 01.5, "cpu_time": 99.0}]})",
  };

  const auto base = parse_bench_json(base_json);
  const auto regressed = parse_bench_json(regressed_json);
  const auto unoptimized = parse_bench_json(unoptimized_json);
  if (!base || !regressed || !unoptimized || base->series.size() != 2) {
    std::fprintf(stderr, "self-test: parser failed on synthetic JSON\n");
    return 1;
  }
  std::printf("-- self-test: non-JSON number tokens must fail the parse\n");
  for (const char* corrupt : corrupt_jsons) {
    if (parse_bench_json(corrupt)) {
      std::fprintf(stderr,
                   "self-test: corrupt number token accepted: %s\n", corrupt);
      return 1;
    }
  }

  Options opts;
  opts.max_regress_pct = 25.0;
  std::printf("-- self-test: injected +80%% regression must be caught\n");
  if (compare(opts, *base, *regressed) == 0) {
    std::fprintf(stderr, "self-test: injected regression NOT caught\n");
    return 1;
  }
  std::printf("-- self-test: identical files must pass\n");
  if (compare(opts, *base, *base) != 0) {
    std::fprintf(stderr, "self-test: identical files flagged\n");
    return 1;
  }
  std::printf("-- self-test: missing series must be caught\n");
  opts.series_filters = {"BM_B"};
  if (compare(opts, *base, *unoptimized) == 0) {
    std::fprintf(stderr, "self-test: missing series NOT caught\n");
    return 1;
  }
  std::printf("-- self-test: a filter matching no baseline series must be "
              "caught\n");
  opts.series_filters = {"BM_A", "BM_Gone"};
  if (compare(opts, *base, *base) == 0) {
    std::fprintf(stderr, "self-test: stale --series filter NOT caught\n");
    return 1;
  }
  std::printf("-- self-test: unoptimized candidate must be rejected\n");
  opts.series_filters = {"BM_A"};
  opts.require_optimized = true;
  if (compare(opts, *base, *unoptimized) == 0) {
    std::fprintf(stderr, "self-test: unoptimized candidate NOT rejected\n");
    return 1;
  }
  std::printf("self-test: all gates behave\n");
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: bench_diff <baseline.json> <candidate.json>\n"
      "                  [--series <substring>]... [--max-regress-pct <X>]\n"
      "                  [--metric real_time|cpu_time] [--require-optimized]\n"
      "       bench_diff --self-test\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      return self_test() == 0 ? 0 : 1;
    } else if (arg == "--series" && i + 1 < argc) {
      opts.series_filters.emplace_back(argv[++i]);
    } else if (arg == "--max-regress-pct" && i + 1 < argc) {
      opts.max_regress_pct = std::atof(argv[++i]);
    } else if (arg == "--metric" && i + 1 < argc) {
      const std::string metric = argv[++i];
      if (metric == "cpu_time") {
        opts.use_cpu_time = true;
      } else if (metric != "real_time") {
        usage();
        return 2;
      }
    } else if (arg == "--require-optimized") {
      opts.require_optimized = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    usage();
    return 2;
  }
  const auto base = load_bench_file(positional[0]);
  const auto cand = load_bench_file(positional[1]);
  if (!base || !cand) return 2;
  return compare(opts, *base, *cand) == 0 ? 0 : 1;
}
