// rv_perfbench: end-to-end benchmark of the scenario engine.
//
//   rv_perfbench --workload cold-sweep|warm-hits|miss-churn --seed N
//                --seconds S --trace 0|1 --work DIR [--base DIR]
//                [--repo DIR] [--corrupt K] [--tiny] [--trace-bound B]
//   rv_perfbench --build-base DIR
//
// Prints notes, then one JSON result line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  Exit status 0 when
// every timed document and reply matched its reference, 1 when any
// byte differed (the result line is still printed), 2 on a usage or
// set-up error (no result line).  A traced run needs --trace-bound, the
// largest share by which its layers' summed self times may differ from
// the untraced time of the same work.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

bool Checker::same(std::string_view actual, std::string_view expected) {
  bool equal = actual == expected;
  if (checked_++ == corrupt_ && !actual.empty()) {
    // Self-test of the checker: the compared copy differs in one byte.
    std::string copy(actual);
    copy[copy.size() / 2] ^= 0x01;
    equal = copy == expected;
  }
  if (!equal) mismatches_ += 1;
  return equal;
}

std::string render(const rv::engine::ResultSet& results, const std::string& format) {
  if (format == "csv") return results.to_csv();
  if (format == "json") return results.to_json();
  std::ostringstream os;
  results.to_table().print(os);
  return os.str();
}

void report_self_times(const Tracer& tracer, double units, double sweep_ms, Report& report) {
  for (const char* layer : {"loadgen", "set_decl", "scenario_set", "families", "runner", "cache",
                            "cache_store", "shard", "supervisor", "serve"}) {
    report.set(std::string("self_ms.") + layer, 0.0, "ms");
  }
  for (const auto& [layer, seconds] : tracer.self_times()) {
    report.set("self_ms." + layer, seconds / units * 1e3, "ms");
  }
  report.set("self_ms.sweep", sweep_ms, "ms");
}

void check_trace(double traced_s, double untraced_s, const std::string& untraced_name,
                 const Config& config, Result& result) {
  const double share = (traced_s - untraced_s) / untraced_s;
  const bool within = std::abs(share) <= config.trace_bound;
  result.report.set("trace.overhead_share", share, "share");
  result.attempted += 1;
  if (!within) result.failed += 1;
  char line[256];
  std::snprintf(line, sizeof line,
                "trace check: traced layers' self time %.4f s, untraced %s %.4f s: %+.3f "
                "(bound %.2f)%s",
                traced_s, untraced_name.c_str(), untraced_s, share, config.trace_bound,
                within ? "" : " FAILED");
  result.report.note(line);
}

namespace {

using Schema = std::vector<Report::Metric>;

const Schema kEndToEnd = {
    {"cells_per_s", "1/s"}, {"set_ms_p50", "ms"}, {"set_ms_tail", "ms"},
    {"goodput_rps", "1/s"}, {"setup_s", "s"},     {"peak_rss_mb", "MiB"},
};

// Open-loop request latencies spread too widely from run to run on a
// shared machine to gate on, so they are reported with the layers.
const Schema kPerLayer = {
    {"req_ms_p50", "ms"},
    {"req_ms_tail", "ms"},
    {"set_decl.parse_us", "us"},
    {"set_decl.body_kb", "KiB"},
    {"scenario_set.materialize_us", "us"},
    {"scenario_set.items", "count"},
    {"families.cache_key_ns", "ns"},
    {"families.cache_key_share", "share"},
    {"sweep.rendezvous_cell_ms", "ms"},
    {"sweep.search_cell_ms", "ms"},
    {"sweep.gather_cell_ms", "ms"},
    {"sweep.linear_cell_ms", "ms"},
    {"sweep.coverage_cell_ms", "ms"},
    {"sweep.rendezvous_evals_per_cell", "count"},
    {"sweep.search_evals_per_cell", "count"},
    {"sweep.gather_evals_per_cell", "count"},
    {"sweep.linear_evals_per_cell", "count"},
    {"sweep.segments_per_cell", "count"},
    {"sweep.evals_per_ms", "1/ms"},
    {"sweep.max_family_share", "share"},
    {"runner.cold_ms", "ms"},
    {"runner.parallel_efficiency", "share"},
    {"runner.warm_replay_us", "us"},
    {"runner.emit_csv_us", "us"},
    {"runner.emit_json_us", "us"},
    {"runner.emit_table_us", "us"},
    {"runner.emit_kb", "KiB"},
    {"cache.entries", "count"},
    {"cache.bytes_per_entry", "B"},
    {"cache.contains_ns", "ns"},
    {"cache.lookup_ns", "ns"},
    {"cache.hit_ratio", "share"},
    {"cache.store_ns", "ns"},
    {"cache_store.load_s", "s"},
    {"cache_store.load_mb_per_s", "MiB/s"},
    {"cache_store.save_ms", "ms"},
    {"cache_store.saved_kb_per_req", "KiB"},
    {"cache_store.files_after_run", "count"},
    {"cache_store.restart_hit_ratio", "share"},
    {"shard.warm_snapshot_ms", "ms"},
    {"shard.fold_back_ms", "ms"},
    {"supervisor.dispatch_ms", "ms"},
    {"supervisor.attempts_per_req", "count"},
    {"supervisor.failed_shards", "count"},
    {"supervisor.dispatch_share", "share"},
    {"serve.parse_request_us", "us"},
    {"serve.frame_us", "us"},
    {"serve.exec_ms", "ms"},
    {"serve.persist_ms", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_tail", "ms"},
    {"serve.rejected", "count"},
    {"serve.expired", "count"},
    {"loadgen.lag_ms_tail", "ms"},
    {"loadgen.sent", "count"},
    {"loadgen.offered_rps", "1/s"},
    {"proc.cpu_util", "cores"},
    {"trace.overhead_share", "share"},
    {"failed_share", "share"},
    {"self_ms.loadgen", "ms"},
    {"self_ms.set_decl", "ms"},
    {"self_ms.scenario_set", "ms"},
    {"self_ms.families", "ms"},
    {"self_ms.sweep", "ms"},
    {"self_ms.runner", "ms"},
    {"self_ms.cache", "ms"},
    {"self_ms.cache_store", "ms"},
    {"self_ms.shard", "ms"},
    {"self_ms.supervisor", "ms"},
    {"self_ms.serve", "ms"},
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "rv_perfbench: " << message
            << "\nusage: rv_perfbench --workload cold-sweep|warm-hits|miss-churn --seed N "
               "--seconds S --trace 0|1 --work DIR [--base DIR] [--repo DIR] "
               "[--corrupt K] [--tiny] [--trace-bound B]\n       rv_perfbench --build-base DIR\n";
  std::exit(2);
}

int run(int argc, char** argv) {
  Config config;
  config.repo = ".";
  std::filesystem::path build_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      config.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work") {
      config.work = value;
    } else if (flag == "--base") {
      config.base = value;
    } else if (flag == "--repo") {
      config.repo = value;
    } else if (flag == "--corrupt") {
      config.corrupt = std::stol(value);
    } else if (flag == "--trace-bound") {
      config.trace_bound = std::stod(value);
    } else if (flag == "--build-base") {
      build_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!build_dir.empty()) {
    std::cout << "built " << build_base(build_dir) << " resident outcomes\n";
    return 0;
  }
  if (config.work.empty()) usage("--work is required");
  if (!(config.seconds > 0.0)) usage("--seconds must be positive");
  if (config.trace && !(config.trace_bound > 0.0)) usage("--trace 1 needs --trace-bound");
  std::filesystem::remove_all(config.work);
  std::filesystem::create_directories(config.work);

  Result result;
  if (config.workload == "cold-sweep") {
    result = run_cold_sweep(config);
  } else if (config.workload == "warm-hits" || config.workload == "miss-churn") {
    if (config.base.empty()) usage("--base is required for " + config.workload);
    result = run_serve(config);
  } else {
    usage("unknown workload '" + config.workload + "'");
  }
  if (config.trace) {
    result.report.set("failed_share",
                      result.attempted > 0 ? static_cast<double>(result.failed) /
                                                 static_cast<double>(result.attempted)
                                           : 0.0,
                      "share");
  }
  for (const std::string& note : result.report.notes()) std::cout << note << "\n";
  std::cout << result.report.json(result.correct, result.attempted, result.failed,
                                  config.trace ? kPerLayer : kEndToEnd)
            << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "rv_perfbench: " << error.what() << "\n";
    return 2;
  }
}
