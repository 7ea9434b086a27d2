// rv_batch — the batch/sharded front-end of the scenario engine.
//
// Runs a named scenario set whole, as one deterministic shard of an
// N-way partition, or with its cache misses forked across P local
// worker processes; persists the outcomes each run computed to an
// on-disk ScenarioCache directory (engine/cache_store.hpp); and merges
// those files back into the byte-identical single-process CSV/JSON.
// The contract throughout is the engine's: results are placed by
// stable work-item index and cached outcomes replay bit-for-bit, so ANY
// partition of the grid — threads, processes, machines — reproduces
// the same output bytes (pinned in tests/test_golden_shard.cpp and
// diffed for real in CI).
//
//   rv_batch list  [--set-file FILE]
//   rv_batch run   (--set NAME | --set-file FILE) [--shard I/N]
//                  [--cache-dir DIR] [--procs P] [--threads T]
//                  [--format csv|json|table] [--out FILE]
//                  [--require-all-hits] [--retries R] [--shard-timeout SEC]
//                  [--backoff-ms MS] [--partial]
//   rv_batch merge (--set NAME | --set-file FILE) --cache-dir DIR
//                  [--format ...] [--out FILE] [--require-all-hits]
//   rv_batch cache-stats --cache-dir DIR
//   rv_batch compact --cache-dir DIR [--max-age-days D] [--max-bytes N]
//
// `--set-file` runs a data-driven `*.rvset` declaration (see
// engine/set_decl.hpp and examples/sets/) instead of a built-in set;
// the built-in sets are `.rvset` texts too (rv_batch_sets.hpp).
// `compact` is the cache-dir lifecycle tool: it merges every cache file
// into one deduplicated `compact.rvcache` (first writer wins,
// wrong-epoch files dropped), optionally evicting by age
// (--max-age-days) and to a byte budget (--max-bytes, oldest first),
// then deletes the originals — a warm `--require-all-hits` rerun stays
// at 100% hits (see docs/OPERATIONS.md).
//
// Every run goes through engine::execute and engine::persist_misses
// (engine/shard.hpp), as rv_serve's requests do: the run classifies
// its items against the loaded cache directory, computes the misses,
// and writes exactly those to one `<set>-<hash>.rvcache`.  Fork mode
// (--procs P) forks only the misses: --threads T is the whole budget,
// each child runs T/P threads (at least 1), and a shard supervisor
// (engine/supervisor.hpp) gives each shard a per-attempt deadline
// (--shard-timeout), failed/killed/timed-out shards are retried —
// only they — up to --retries times with exponential backoff
// (--backoff-ms base), and a per-shard attempt/latency/exit-status
// table plus a JSON coverage report land on stderr when anything
// failed.  By default an exhausted shard makes the whole run fail
// loudly (exit 4, no document); --partial instead emits the surviving
// subset in global-index order (every hit survives) and exits 0,
// leaving the coverage report (failed shards, the global indices of
// the lost misses) on stderr.
//
// The result document goes to stdout (or --out); diagnostics go to
// stderr.  Exit codes: 0 success, 1 usage error, 2 execution failure,
// 3 --require-all-hits violation, 4 shards failed after retries.

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/cache_store.hpp"
#include "engine/runner.hpp"
#include "engine/set_decl.hpp"
#include "engine/shard.hpp"
#include "engine/supervisor.hpp"
#include "io/args.hpp"
#include "rv_batch_sets.hpp"

namespace {

namespace fs = std::filesystem;
using rv::engine::CacheLoadStats;
using rv::engine::ResultSet;
using rv::engine::ScenarioCache;
using rv::engine::SupervisorReport;
using rv::engine::WorkItem;

constexpr int kExitUsage = 1;
constexpr int kExitFailure = 2;
constexpr int kExitMissedHits = 3;
constexpr int kExitShardsFailed = 4;

/// Thrown when shards exhaust their attempt budget in default
/// (all-or-nothing) mode; mapped to kExitShardsFailed in main so
/// operators can distinguish "a shard died" from generic failures.
struct ShardFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ShardSpec {
  std::size_t shard = 0;
  std::size_t num_shards = 1;
};

/// Parses "I/N" (e.g. "0/4").  Both parts must be plain non-empty
/// digit strings: `std::stoul` alone would wrap a negative index to a
/// huge shard number and skip leading whitespace (" 1/2", "-1/2"),
/// deferring to a confusing downstream shard_plan error — reject
/// non-digit input up front instead.  \throws std::invalid_argument on
/// malformed input; range checking is left to shard_plan.
ShardSpec parse_shard(const std::string& text) {
  const auto fail = [&text]() -> std::invalid_argument {
    return std::invalid_argument("--shard expects I/N (e.g. 0/4), got '" +
                                 text + "'");
  };
  const auto all_digits = [](std::string_view part) {
    if (part.empty()) return false;
    for (const char c : part) {
      if (c < '0' || c > '9') return false;
    }
    return true;
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) throw fail();
  const std::string shard_part = text.substr(0, slash);
  const std::string total_part = text.substr(slash + 1);
  if (!all_digits(shard_part) || !all_digits(total_part)) throw fail();
  ShardSpec spec;
  try {
    spec.shard = std::stoul(shard_part);
    spec.num_shards = std::stoul(total_part);
  } catch (const std::out_of_range&) {
    throw fail();
  }
  return spec;
}

/// Writes the document to --out, or stdout when --out is empty.
void emit(const std::string& document, const std::string& out_path) {
  if (out_path.empty()) {
    std::cout << document;
    std::cout.flush();
    return;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out << document;
  out.flush();  // surface deferred write errors before the state check
  if (!out) {
    throw std::runtime_error("cannot write --out file " + out_path);
  }
}

void print_load_stats(const char* verb, const CacheLoadStats& stats) {
  std::cerr << "rv_batch: " << verb << " " << stats.loaded
            << " cached outcomes from " << stats.files << " file(s)";
  if (stats.duplicates > 0) {
    std::cerr << " (" << stats.duplicates << " duplicate keys)";
  }
  if (stats.skipped > 0) {
    std::cerr << " (" << stats.skipped << " corrupt record region(s) skipped)";
  }
  if (stats.bad_files > 0) {
    std::cerr << " (" << stats.bad_files << " unreadable file(s))";
  }
  std::cerr << "\n";
}

void print_run_stats(const std::string& set_name, std::size_t items,
                     const rv::engine::CacheStats& stats) {
  std::cerr << "rv_batch: set=" << set_name << " items=" << items
            << " cache hits=" << stats.hits << " misses=" << stats.misses
            << " uncacheable=" << stats.uncacheable << "\n";
}

/// Enforces --require-all-hits: every item must have replayed from the
/// cache.  Returns the process exit code (0 when satisfied).
int check_all_hits(bool required, const rv::engine::CacheStats& stats) {
  if (!required) return 0;
  if (stats.misses == 0 && stats.uncacheable == 0) return 0;
  std::cerr << "rv_batch: --require-all-hits violated (" << stats.misses
            << " misses, " << stats.uncacheable << " uncacheable)\n";
  return kExitMissedHits;
}

/// The set a run/merge operates on: a built-in set named by --set, or
/// a `*.rvset` file named by --set-file, and the one family it emits.
struct NamedSet {
  std::string name;
  rv::engine::ScenarioSet set;
  rv::engine::Family family = rv::engine::Family::kRendezvous;
};

/// Resolves the set and checks, before any cell runs, that --format
/// names a format and that the set declares a single family.
NamedSet resolve_set(const rv::io::Args& args) {
  rv::engine::check_format(args.get("format"));
  const std::string set_name = args.get("set");
  const std::string set_file = args.get("set-file");
  NamedSet named;
  if (!set_file.empty()) {
    if (!set_name.empty()) {
      throw std::invalid_argument("--set and --set-file are exclusive");
    }
    rv::engine::SetDecl decl = rv::engine::parse_set_decl_file(set_file);
    named.name = std::move(decl.name);
    named.set = std::move(decl.set);
  } else if (set_name.empty()) {
    throw std::invalid_argument(
        "need --set NAME (see: rv_batch list) or --set-file FILE");
  } else {
    named.name = set_name;
    named.set = rv::batch::build_builtin_set(set_name);
  }
  named.family = named.set.single_family();
  return named;
}

int cmd_list(const rv::io::Args& args) {
  const auto print = [](const rv::engine::SetDecl& decl) {
    const std::size_t items = decl.set.materialize_work().size();
    std::cout << decl.name << "  (" << items << " items)  "
              << decl.description << "\n";
  };
  const std::string set_file = args.get("set-file");
  if (!set_file.empty()) {
    print(rv::engine::parse_set_decl_file(set_file));
    return 0;
  }
  for (const rv::engine::SetDecl& decl : rv::batch::builtin_sets()) {
    print(decl);
  }
  return 0;
}

int cmd_run(rv::io::Args& args) {
  const NamedSet named = resolve_set(args);
  const std::string& set_name = named.name;
  std::vector<WorkItem> work = named.set.materialize_work();
  const std::size_t total = work.size();
  const unsigned threads = static_cast<unsigned>(args.get_int("threads"));
  const fs::path cache_dir = args.get("cache-dir");
  const std::string shard_text = args.get("shard");
  const int procs = args.get_int("procs");
  if (procs < 1) {
    throw std::invalid_argument("--procs must be >= 1, got " +
                                std::to_string(procs));
  }
  const int retries = args.get_int("retries");
  const double shard_timeout = args.get_double("shard-timeout");
  const int backoff_ms = args.get_int("backoff-ms");
  const bool partial = args.get_bool("partial");
  if (retries < 0) {
    throw std::invalid_argument("--retries must be >= 0, got " +
                                std::to_string(retries));
  }
  if (shard_timeout < 0.0) {
    throw std::invalid_argument("--shard-timeout must be >= 0 seconds");
  }
  if (backoff_ms < 0) {
    throw std::invalid_argument("--backoff-ms must be >= 0, got " +
                                std::to_string(backoff_ms));
  }
  if (procs == 1 && (retries > 0 || shard_timeout > 0.0 || partial)) {
    throw std::invalid_argument(
        "--retries/--shard-timeout/--partial apply to fork mode only "
        "(need --procs > 1)");
  }
  if (procs > 1) {
    if (!shard_text.empty()) {
      throw std::invalid_argument("--procs and --shard are exclusive");
    }
    if (cache_dir.empty()) {
      throw std::invalid_argument(
          "--procs needs --cache-dir (the children hand their outcomes "
          "back inside it)");
    }
  }
  if (!shard_text.empty()) {
    const ShardSpec spec = parse_shard(shard_text);
    work = rv::engine::shard_work(
        work, rv::engine::shard_plan(total, spec.shard, spec.num_shards));
  }

  // Loaded once, before any fork: children never read it, and the
  // classification decides what they compute.
  ScenarioCache cache;
  if (!cache_dir.empty()) {
    fs::create_directories(cache_dir);
    print_load_stats("loaded", rv::engine::load_cache_dir(cache_dir, &cache));
  }
  const rv::engine::Classification plan = rv::engine::classify(work, &cache);
  const rv::engine::ExecOptions exec{
      cache_dir, static_cast<std::size_t>(procs), threads,
      {static_cast<std::size_t>(retries), shard_timeout,
       static_cast<std::uint64_t>(backoff_ms)}};
  rv::engine::Execution ran = rv::engine::execute(work, plan, cache, exec);
  ran.results.set_family(named.family);
  const SupervisorReport& report = ran.report;
  if (report.any_failures()) {
    std::cerr << "rv_batch: shard attempt log:\n" << report.table();
  }
  if (!cache_dir.empty()) {
    const fs::path file =
        rv::engine::persist_misses(cache_dir, set_name, plan, cache);
    if (file.empty()) {
      std::cerr << "rv_batch: nothing computed, no cache file written\n";
    } else {
      std::cerr << "rv_batch: wrote "
                << plan.misses.size() - ran.missing.size()
                << " outcomes to " << file << "\n";
    }
  }
  if (!report.complete()) {
    std::cerr << report.to_json(total, ran.missing);
    const std::vector<std::size_t> failed = report.failed_shards();
    std::string failed_list;
    for (const std::size_t s : failed) {
      if (!failed_list.empty()) failed_list += ", ";
      failed_list += std::to_string(s);
    }
    if (!partial) {
      throw ShardFailure(std::to_string(failed.size()) + " of " +
                         std::to_string(procs) +
                         " shard(s) failed after retries: {" + failed_list +
                         "} (rerun with --partial for the surviving subset)");
    }
    std::cerr << "rv_batch: --partial: emitting " << ran.results.size()
              << " of " << total << " items (shards {" << failed_list
              << "} missing)\n";
  }
  print_run_stats(set_name, ran.results.size(), ran.results.cache_stats());
  emit(rv::engine::render(ran.results, args.get("format")), args.get("out"));
  return check_all_hits(args.get_bool("require-all-hits"),
                        ran.results.cache_stats());
}

int cmd_merge(rv::io::Args& args) {
  const NamedSet named = resolve_set(args);
  const std::string& set_name = named.name;
  const fs::path cache_dir = args.get("cache-dir");
  if (cache_dir.empty()) {
    throw std::invalid_argument("merge needs --cache-dir");
  }
  ScenarioCache cache;
  print_load_stats("merged", rv::engine::load_cache_dir(cache_dir, &cache));
  rv::engine::RunnerOptions options;
  options.threads = static_cast<unsigned>(args.get_int("threads"));
  options.cache = &cache;
  ResultSet results = rv::engine::run_scenarios(named.set, options);
  results.set_family(named.family);
  print_run_stats(set_name, results.size(), results.cache_stats());
  emit(rv::engine::render(results, args.get("format")), args.get("out"));
  return check_all_hits(args.get_bool("require-all-hits"),
                        results.cache_stats());
}

int cmd_cache_stats(rv::io::Args& args) {
  const fs::path cache_dir = args.get("cache-dir");
  if (cache_dir.empty()) {
    throw std::invalid_argument("cache-stats needs --cache-dir");
  }
  const std::vector<fs::path> files =
      rv::engine::list_cache_files(cache_dir);
  // Loading sequentially into one cache makes `new` vs `duplicate`
  // meaningful across files: later files only contribute keys the
  // earlier ones did not.
  std::error_code ec;
  ScenarioCache cache;
  for (const fs::path& file : files) {
    const CacheLoadStats stats = rv::engine::load_cache_file(file, &cache);
    std::cout << file.filename().string() << ": new=" << stats.loaded
              << " duplicate=" << stats.duplicates
              << " corrupt-regions=" << stats.skipped
              << " bytes=" << fs::file_size(file, ec) << "\n";
  }
  std::cout << "total: files=" << files.size()
            << " distinct-keys=" << cache.size() << "\n";
  return 0;
}

/// Parses --max-bytes: a plain non-empty digit string (no sign, no
/// suffixes), so a typo cannot silently become "no budget".
std::uintmax_t parse_max_bytes(const std::string& text) {
  if (text.empty()) return 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("--max-bytes expects a byte count, got '" +
                                  text + "'");
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    throw std::invalid_argument("--max-bytes out of range: '" + text + "'");
  }
  return value;
}

int cmd_compact(rv::io::Args& args) {
  const fs::path cache_dir = args.get("cache-dir");
  if (cache_dir.empty()) {
    throw std::invalid_argument("compact needs --cache-dir");
  }
  rv::engine::CompactOptions options;
  options.max_age_days = args.get_double("max-age-days");
  if (options.max_age_days < 0.0) {
    throw std::invalid_argument("--max-age-days must be >= 0");
  }
  options.max_bytes = parse_max_bytes(args.get("max-bytes"));
  const rv::engine::CompactResult result =
      rv::engine::compact_cache_dir(cache_dir, options);
  rv::engine::remove_compacted_inputs(result);
  // Same per-file counter shape as cache-stats, plus the disposition.
  std::size_t evicted = 0, dropped = 0, merged = 0;
  for (const rv::engine::CompactResult::FileReport& report : result.files) {
    const std::string name = report.path.filename().string();
    switch (report.disposition) {
      case rv::engine::CompactResult::Disposition::kMerged:
        std::cout << "merged " << name << ": new=" << report.stats.loaded
                  << " duplicate=" << report.stats.duplicates
                  << " corrupt-regions=" << report.stats.skipped << "\n";
        ++merged;
        break;
      case rv::engine::CompactResult::Disposition::kDroppedBad:
        std::cout << "dropped " << name
                  << ": bad header or wrong engine epoch\n";
        ++dropped;
        break;
      case rv::engine::CompactResult::Disposition::kEvictedAge:
        std::cout << "evicted " << name << ": older than --max-age-days\n";
        ++evicted;
        break;
      case rv::engine::CompactResult::Disposition::kEvictedBudget:
        std::cout << "evicted " << name << ": over --max-bytes budget\n";
        ++evicted;
        break;
    }
  }
  std::cout << "total: merged=" << merged << " evicted=" << evicted
            << " dropped=" << dropped
            << " distinct-keys=" << result.entries << "\n";
  std::cout << result.output.filename().string()
            << ": entries=" << result.entries
            << " bytes=" << result.output_bytes << "\n";
  std::cerr << "rv_batch: compact removed " << result.stale_handoffs.size()
            << " stale hand-off dir(s)\n";
  return 0;
}

/// The flag contract: which of the (globally declared) flags each
/// subcommand actually consumes.  Everything else is rejected up
/// front with exit 1 — historically `cache-stats`/`compact` silently
/// ignored `--set`/`--set-file` and `merge` silently ignored the
/// fork-only supervisor knobs, so a typo'd invocation looked like it
/// worked while doing something else entirely.
const std::map<std::string, std::vector<std::string>>& flag_contract() {
  static const std::map<std::string, std::vector<std::string>> contract = {
      {"list", {"set-file"}},
      {"run",
       {"set", "set-file", "shard", "procs", "threads", "cache-dir", "format",
        "out", "require-all-hits", "retries", "shard-timeout", "backoff-ms",
        "partial"}},
      {"merge",
       {"set", "set-file", "threads", "cache-dir", "format", "out",
        "require-all-hits"}},
      {"cache-stats", {"cache-dir"}},
      {"compact", {"cache-dir", "max-age-days", "max-bytes"}},
  };
  return contract;
}

/// Rejects every explicitly-provided flag the subcommand does not
/// consume.  \throws std::invalid_argument naming the flag and the
/// subcommand (exit 1, same as any other usage error).
void enforce_flag_contract(const std::string& command,
                           const rv::io::Args& args,
                           const std::vector<std::string>& declared) {
  const auto it = flag_contract().find(command);
  if (it == flag_contract().end()) return;
  const std::vector<std::string>& allowed = it->second;
  for (const std::string& flag : declared) {
    if (!args.provided(flag)) continue;
    if (std::find(allowed.begin(), allowed.end(), flag) != allowed.end()) {
      continue;
    }
    std::string accepted;
    for (const std::string& name : allowed) {
      if (!accepted.empty()) accepted += ", ";
      accepted += "--" + name;
    }
    throw std::invalid_argument("--" + flag + " does not apply to '" +
                                command + "' (it accepts: " +
                                (accepted.empty() ? "no flags" : accepted) +
                                ")");
  }
}

void usage(std::ostream& os) {
  os << "usage: rv_batch <list|run|merge|cache-stats|compact> [flags]\n"
     << "  list  [--set-file FILE]   show the built-in sets (or one .rvset)\n"
     << "  run   (--set NAME | --set-file FILE)\n"
     << "        run a built-in set or a declarative .rvset file\n"
     << "        [--shard I/N] [--procs P] [--cache-dir DIR] [--threads T]\n"
     << "        [--format csv|json|table] [--out FILE] [--require-all-hits]\n"
     << "        [--retries R] [--shard-timeout SEC] [--backoff-ms MS]\n"
     << "        [--partial]       (supervisor knobs; fork mode only)\n"
     << "  merge (--set NAME | --set-file FILE) --cache-dir DIR\n"
     << "        replay shard caches into the single-process document\n"
     << "        [--threads T] [--format ...] [--out FILE]\n"
     << "        [--require-all-hits]\n"
     << "  cache-stats --cache-dir DIR        describe the cache files\n"
     << "  compact --cache-dir DIR            merge + dedupe the cache files\n"
     << "        [--max-age-days D]           evict files older than D days\n"
     << "        [--max-bytes N]              evict oldest-first to fit N\n"
     << "exit codes: 0 ok, 1 usage, 2 failure, 3 --require-all-hits missed,\n"
     << "            4 shards failed after retries (see docs/OPERATIONS.md)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return kExitUsage;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "help") {
    usage(std::cout);
    return 0;
  }
  rv::io::Args args;
  args.declare("set", "", "built-in scenario set name (see: rv_batch list)");
  args.declare("set-file", "",
               "declarative .rvset file to run instead of a built-in set");
  args.declare("shard", "", "run only shard I of N, as I/N");
  args.declare_int("procs", 1,
                   "fork the misses across P local worker processes");
  args.declare_int("threads", 0,
                   "worker threads (0 = hardware); --procs splits them "
                   "across the workers");
  args.declare("cache-dir", "", "directory of persistent *.rvcache files");
  args.declare("format", "csv", "output format: csv, json or table");
  args.declare("out", "", "write the document here instead of stdout");
  args.declare_bool("require-all-hits",
                    "fail (exit 3) unless every item replayed from cache");
  args.declare_int("retries", 0,
                   "fork mode: extra attempts per failed shard (0 = fail fast)");
  args.declare_double("shard-timeout", 0.0,
                      "fork mode: per-attempt deadline in seconds (0 = none)");
  args.declare_int("backoff-ms", 100,
                   "fork mode: base retry backoff in milliseconds");
  args.declare_bool("partial",
                    "fork mode: emit surviving subset (exit 0) when shards "
                    "exhaust retries, instead of failing with exit 4");
  args.declare_double("max-age-days", 0.0,
                      "compact: evict cache files older than this (0 = keep)");
  args.declare("max-bytes", "",
               "compact: byte budget, evicting oldest files first (empty = "
               "no budget)");
  const std::vector<std::string> declared = {
      "set",          "set-file",  "shard",      "procs",
      "threads",      "cache-dir", "format",     "out",
      "require-all-hits",          "retries",    "shard-timeout",
      "backoff-ms",   "partial",   "max-age-days",
      "max-bytes"};
  try {
    args.parse(argc - 1, argv + 1);
    if (args.help_requested()) {
      usage(std::cout);
      return 0;
    }
    enforce_flag_contract(command, args, declared);
    if (command == "list") return cmd_list(args);
    if (command == "run") return cmd_run(args);
    if (command == "merge") return cmd_merge(args);
    if (command == "cache-stats") return cmd_cache_stats(args);
    if (command == "compact") return cmd_compact(args);
    std::cerr << "rv_batch: unknown command '" << command << "'\n";
    usage(std::cerr);
    return kExitUsage;
  } catch (const ShardFailure& e) {
    std::cerr << "rv_batch: " << e.what() << "\n";
    return kExitShardsFailed;
  } catch (const rv::engine::SetDeclError& e) {
    // A malformed --set-file is a usage problem: the message already
    // names the file, line and key.
    std::cerr << "rv_batch: " << e.what() << "\n";
    return kExitUsage;
  } catch (const std::invalid_argument& e) {
    std::cerr << "rv_batch: " << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "rv_batch: " << e.what() << "\n";
    return kExitFailure;
  }
}
