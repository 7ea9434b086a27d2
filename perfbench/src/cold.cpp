// cold-sweep: one client in a closed loop runs seeded declarations of
// all five families through parse_set_decl -> materialize_work ->
// run_scenarios (no cache) and renders each as CSV.  The sweep layer
// does nearly all the work; cache, cache_store, shard and serve none.

#include <algorithm>
#include <cstdio>
#include <map>

#include "engine/families.hpp"
#include "engine/set_decl.hpp"
#include "rendezvous/core.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rv::engine::Family;
using rv::engine::ResultSet;
using rv::engine::RunnerOptions;
using rv::engine::WorkItem;

/// One untimed-or-timed pass over the inputs; returns each document.
struct Pass {
  std::vector<std::string> docs;
  std::vector<double> set_ms;
  std::vector<double> req_ms;
  std::vector<bool> ok;
  std::uint64_t cells = 0;
  double wall_s = 0.0;
};

Pass run_pass(const std::vector<Input>& inputs, unsigned threads, Tracer* tracer) {
  Pass pass;
  RunnerOptions options;
  options.threads = threads;
  const double begin = now_s();
  double previous = begin;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (tracer != nullptr) tracer->begin_request(i);
    const double start = now_s();
    std::string doc;
    bool ok = true;
    try {
      if (tracer == nullptr) {
        const rv::engine::SetDecl decl = rv::engine::parse_set_decl(inputs[i].body);
        const std::vector<WorkItem> work = decl.set.materialize_work();
        doc = rv::engine::run_scenarios(work, options).to_csv();
        pass.cells += work.size();
      } else {
        Tracer::Scope root(*tracer, "loadgen", "declaration");
        rv::engine::SetDecl decl;
        {
          Tracer::Scope s(*tracer, "set_decl", "parse_set_decl");
          decl = rv::engine::parse_set_decl(inputs[i].body);
        }
        std::vector<WorkItem> work;
        {
          Tracer::Scope s(*tracer, "scenario_set", "materialize_work");
          work = decl.set.materialize_work();
        }
        ResultSet results;
        {
          Tracer::Scope s(*tracer, "runner", "run_scenarios");
          results = rv::engine::run_scenarios(work, options);
        }
        {
          Tracer::Scope s(*tracer, "runner", "emit_csv");
          doc = results.to_csv();
        }
        pass.cells += work.size();
      }
    } catch (const std::exception& error) {
      ok = false;
      doc = std::string("error: ") + error.what();
    }
    const double end = now_s();
    pass.set_ms.push_back((end - start) * 1e3);
    // Closed loop: a declaration is due when the client finished with
    // the previous one.
    pass.req_ms.push_back((end - previous) * 1e3);
    previous = end;
    pass.docs.push_back(std::move(doc));
    pass.ok.push_back(ok);
  }
  pass.wall_s = now_s() - begin;
  return pass;
}

/// Serial pass through the family cell runners: per-cell times and the
/// exact eval/segment counts the outcomes carry.
struct CellStats {
  double ms = 0.0;
  std::uint64_t cells = 0;
  std::uint64_t evals = 0;
  std::uint64_t segments = 0;
};

void sweep_cells(const std::vector<WorkItem>& work, Tracer& tracer,
                 std::map<Family, CellStats>* stats) {
  for (const WorkItem& item : work) {
    CellStats& s = (*stats)[item.family];
    const double start = now_s();
    switch (item.family) {
      case Family::kRendezvous: {
        Tracer::Scope span(tracer, "sweep", "run_scenario");
        const rv::rendezvous::Outcome o = rv::rendezvous::run_scenario(item.scenario);
        s.evals += o.sim.evals;
        s.segments += o.sim.segments;
        break;
      }
      case Family::kSearch: {
        Tracer::Scope span(tracer, "sweep", "run_search_cell");
        const rv::engine::SearchOutcome o = rv::engine::run_search_cell(item.search);
        s.evals += o.evals;
        s.segments += o.segments;
        break;
      }
      case Family::kGather: {
        Tracer::Scope span(tracer, "sweep", "run_gather_cell");
        const rv::engine::GatherOutcome o = rv::engine::run_gather_cell(item.gather);
        s.evals += o.contact.evals + o.gathered.evals;
        s.segments += o.contact.segments + o.gathered.segments;
        break;
      }
      case Family::kLinear: {
        Tracer::Scope span(tracer, "sweep", "run_linear_cell");
        const rv::engine::LinearOutcome o = rv::engine::run_linear_cell(item.linear);
        s.evals += o.sim.evals;
        s.segments += o.sim.segments;
        break;
      }
      case Family::kCoverage: {
        Tracer::Scope span(tracer, "sweep", "run_coverage_cell");
        (void)rv::engine::run_coverage_cell(item.coverage);
        break;
      }
    }
    s.ms += (now_s() - start) * 1e3;
    s.cells += 1;
  }
}

}  // namespace

void report_sweep(const std::vector<WorkItem>& work, Tracer& tracer, Report& report,
                  double* serial_ms) {
  std::map<Family, CellStats> stats;
  sweep_cells(work, tracer, &stats);
  double total_ms = 0.0;
  double max_ms = 0.0;
  std::string max_family = "none";
  std::uint64_t evals = 0;
  double evals_ms = 0.0;
  std::uint64_t segments = 0;
  std::uint64_t segment_cells = 0;
  for (const Family family : {Family::kRendezvous, Family::kSearch, Family::kGather,
                              Family::kLinear, Family::kCoverage}) {
    const CellStats& s = stats[family];
    const std::string name = rv::engine::family_name(family);
    const double per_cell = s.cells > 0 ? s.ms / static_cast<double>(s.cells) : 0.0;
    report.set("sweep." + name + "_cell_ms", per_cell, "ms");
    if (family != Family::kCoverage) {
      report.set("sweep." + name + "_evals_per_cell",
                 s.cells > 0 ? static_cast<double>(s.evals) / static_cast<double>(s.cells)
                             : 0.0,
                 "count");
      evals += s.evals;
      evals_ms += s.ms;
      segments += s.segments;
      segment_cells += s.cells;
    }
    total_ms += s.ms;
    if (s.ms > max_ms) {
      max_ms = s.ms;
      max_family = name;
    }
  }
  report.set("sweep.segments_per_cell",
             segment_cells > 0
                 ? static_cast<double>(segments) / static_cast<double>(segment_cells)
                 : 0.0,
             "count");
  report.set("sweep.evals_per_ms", evals_ms > 0.0 ? static_cast<double>(evals) / evals_ms : 0.0,
             "1/ms");
  report.set("sweep.max_family_share", total_ms > 0.0 ? max_ms / total_ms : 0.0, "share");
  report.note("sweep: largest family share is " + max_family + " over " +
              std::to_string(work.size()) + " serially timed cells");
  *serial_ms = total_ms;
}

Result run_cold_sweep(const Config& config) {
  Result result;
  Report& report = result.report;
  // One runner thread: run_scenarios starts a pool per call, and on a
  // shared machine the thread start-ups and hand-offs of small
  // declarations vary more from run to run than their compute.
  const unsigned threads = 1;
  Checker checker(config.corrupt);

  // Set-up: everything the client needs before its first timed
  // declaration — the seeded inputs, the golden pins, and the oracle's
  // uncached reference documents.  Median of three.
  std::vector<Input> inputs;
  std::map<std::string, std::string> golden;
  Pass reference;
  std::vector<double> setups;
  for (int k = 0; k < 3; ++k) {
    const double start = now_s();
    inputs = cold_sweep_inputs(config.seed, config.repo);
    for (const Input& in : inputs) {
      if (!in.golden.empty()) {
        golden[in.golden] = read_file(config.repo / "tests" / "golden" / "rv_batch" / in.golden);
      }
    }
    reference = run_pass(inputs, threads, nullptr);
    setups.push_back(now_s() - start);
  }

  // The twins' reference documents must equal the committed pins.
  // The reference pass is not timed, so it is not counted as attempted;
  // a reference that errs or misses its pin still counts as failed.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const bool pinned =
        inputs[i].golden.empty() || checker.same(reference.docs[i], golden[inputs[i].golden]);
    if (!reference.ok[i] || !pinned) result.failed += 1;
  }

  const auto check_pass = [&](const Pass& pass) {
    for (std::size_t i = 0; i < pass.docs.size(); ++i) {
      result.attempted += 1;
      const bool same = checker.same(pass.docs[i], reference.docs[i]);
      if (!pass.ok[i] || !same) result.failed += 1;
    }
  };

  if (!config.trace) {
    // Closed loop over whole passes until the time is up.  A shared
    // machine runs slow in phases that last several passes, and how much
    // of a run such phases cover differs from run to run.  So the figures
    // come from the faster half of the passes: they measure the code, not
    // the neighbours.  On a quiet machine both halves agree.  Half of a
    // run still holds enough passes for the tail to fall on the gather
    // twin.
    std::vector<Pass> passes;
    double wall = 0.0;
    while (wall < config.seconds || passes.empty()) {
      Pass pass = run_pass(inputs, threads, nullptr);
      check_pass(pass);
      wall += pass.wall_s;
      pass.docs.clear();
      passes.push_back(std::move(pass));
    }
    const std::size_t passes_run = passes.size();
    std::sort(passes.begin(), passes.end(),
              [](const Pass& a, const Pass& b) { return a.wall_s < b.wall_s; });
    passes.resize((passes.size() + 1) / 2);
    std::vector<double> set_ms;
    std::vector<double> req_ms;
    std::vector<double> cells_per_s;
    std::vector<double> sets_per_s;
    for (const Pass& pass : passes) {
      set_ms.insert(set_ms.end(), pass.set_ms.begin(), pass.set_ms.end());
      req_ms.insert(req_ms.end(), pass.req_ms.begin(), pass.req_ms.end());
      cells_per_s.push_back(static_cast<double>(pass.cells) / pass.wall_s);
      sets_per_s.push_back(static_cast<double>(inputs.size()) / pass.wall_s);
    }
    const Tail set_tail = tail(set_ms);
    const Tail req_tail = tail(req_ms);
    report.set("cells_per_s", median(cells_per_s), "1/s");
    report.set("set_ms_p50", median(set_ms), "ms");
    report.set("set_ms_tail", set_tail.value, "ms");
    report.set("goodput_rps", median(sets_per_s), "1/s");
    report.set("setup_s", median(setups), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    char line[320];
    std::snprintf(line, sizeof line,
                  "cold-sweep: closed loop, 1 client, %u runner threads, %zu declarations "
                  "per pass, faster %zu of %zu passes; set_ms_tail = p%.2f of %zu, "
                  "req_ms_tail = p%.2f of %zu",
                  threads, inputs.size(), passes.size(), passes_run, set_tail.pct,
                  set_tail.samples, req_tail.pct, req_tail.samples);
    report.note(line);
    result.correct = checker.mismatches() == 0;
    return result;
  }

  // Traced run: untraced and traced passes in turn, then a serial pass
  // through the cell runners.  Alternating spreads the machine's drift
  // over both sides of the consistency check.
  constexpr int kTracePasses = 3;
  Tracer tracer;
  double untraced_s = 0.0;
  double untraced_wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> req_ms;
  for (int k = 0; k < kTracePasses; ++k) {
    const double cpu_start = cpu_seconds();
    const Pass untraced = run_pass(inputs, threads, nullptr);
    cpu_s += cpu_seconds() - cpu_start;
    untraced_wall_s += untraced.wall_s;
    check_pass(untraced);
    for (const double ms : untraced.set_ms) untraced_s += ms / 1e3;
    req_ms.insert(req_ms.end(), untraced.req_ms.begin(), untraced.req_ms.end());
    check_pass(run_pass(inputs, threads, &tracer));
  }

  const double n = static_cast<double>(inputs.size());
  const double traced_n = n * kTracePasses;
  double body_bytes = 0.0;
  double items = 0.0;
  double doc_bytes = 0.0;
  std::vector<WorkItem> all;
  for (const Input& in : inputs) {
    body_bytes += static_cast<double>(in.body.size());
    std::vector<WorkItem> work = rv::engine::parse_set_decl(in.body).set.materialize_work();
    items += static_cast<double>(work.size());
    all.insert(all.end(), std::make_move_iterator(work.begin()),
               std::make_move_iterator(work.end()));
  }
  for (const std::string& doc : reference.docs) doc_bytes += static_cast<double>(doc.size());
  const double run_s = tracer.total("run_scenarios") / kTracePasses;

  Tracer cells_tracer;
  double serial_ms = 0.0;
  report_sweep(all, cells_tracer, report, &serial_ms);

  report.set("req_ms_p50", median(req_ms), "ms");
  report.set("req_ms_tail", tail(req_ms).value, "ms");
  report.set("set_decl.parse_us", tracer.total("parse_set_decl") / traced_n * 1e6, "us");
  report.set("set_decl.body_kb", body_bytes / n / 1024.0, "KiB");
  report.set("scenario_set.materialize_us", tracer.total("materialize_work") / traced_n * 1e6,
             "us");
  report.set("scenario_set.items", items / n, "count");
  report.set("runner.cold_ms", run_s / n * 1e3, "ms");
  report.set("runner.parallel_efficiency", serial_ms / 1e3 / (threads * run_s), "share");
  report.set("runner.emit_csv_us", tracer.total("emit_csv") / traced_n * 1e6, "us");
  report.set("runner.emit_kb", doc_bytes / n / 1024.0, "KiB");
  report.set("proc.cpu_util", cpu_s / untraced_wall_s, "cores");
  // No cache, no service, no generator: these layers do no work here.
  const std::pair<const char*, const char*> idle[] = {
      {"families.cache_key_ns", "ns"},     {"families.cache_key_share", "share"},
      {"runner.warm_replay_us", "us"},     {"runner.emit_json_us", "us"},
      {"runner.emit_table_us", "us"},      {"cache.entries", "count"},
      {"cache.bytes_per_entry", "B"},      {"cache.contains_ns", "ns"},
      {"cache.lookup_ns", "ns"},           {"cache.hit_ratio", "share"},
      {"cache.store_ns", "ns"},            {"cache_store.load_s", "s"},
      {"cache_store.load_mb_per_s", "MiB/s"}, {"cache_store.save_ms", "ms"},
      {"cache_store.saved_kb_per_req", "KiB"}, {"cache_store.files_after_run", "count"},
      {"cache_store.restart_hit_ratio", "share"}, {"shard.warm_snapshot_ms", "ms"},
      {"shard.fold_back_ms", "ms"},        {"supervisor.dispatch_ms", "ms"},
      {"supervisor.attempts_per_req", "count"}, {"supervisor.failed_shards", "count"},
      {"supervisor.dispatch_share", "share"}, {"serve.parse_request_us", "us"},
      {"serve.frame_us", "us"},            {"serve.exec_ms", "ms"},
      {"serve.persist_ms", "ms"},          {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_tail", "ms"},  {"serve.rejected", "count"},
      {"serve.expired", "count"},          {"loadgen.lag_ms_tail", "ms"},
      {"loadgen.sent", "count"},           {"loadgen.offered_rps", "1/s"},
  };
  for (const auto& [name, unit] : idle) report.set(name, 0.0, unit);
  report_self_times(tracer, traced_n, serial_ms / n, report);
  check_trace(tracer.root_total(), untraced_s, "declaration time", config, result);
  tracer.write(config.work / "spans.jsonl");
  result.correct = checker.mismatches() == 0;
  return result;
}

}  // namespace perfbench
