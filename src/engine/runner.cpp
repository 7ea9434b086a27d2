#include "engine/runner.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "engine/failpoint.hpp"
#include "io/json.hpp"
#include "rendezvous/feasibility.hpp"

namespace rv::engine {

namespace {

/// Calls `cell(name, value, format)` for each column of `rec` in
/// emission order: label, the family's standard columns, components,
/// extras (the order of `ResultSet::csv_header`).
template <typename Cell>
void walk_row(const RunRecord& rec, bool label,
              std::span<const SchemaColumn> columns,
              const std::vector<Column>& extras, Cell&& cell) {
  FieldValue value;
  const TableFormat plain;
  if (label) {
    value.kind = FieldValue::Kind::kText;
    value.text = rec.label;
    cell("label", value, plain);
  }
  for (const SchemaColumn& col : columns) {
    cell(col.name, col.get(rec), col.table);
  }
  value.kind = FieldValue::Kind::kNumber;
  for (const Component& c : rec.components) {
    value.number = c.value;
    cell(c.name, value, plain);
  }
  value.kind = FieldValue::Kind::kText;
  for (const Column& col : extras) {
    const std::string text = col.value(rec);
    value.text = text;
    cell(col.name, value, plain);
  }
}

void append_csv_value(std::string& out, const FieldValue& v) {
  switch (v.kind) {
    case FieldValue::Kind::kNumber:
      io::append_number(out, v.number, std::chars_format::general, 12);
      break;
    case FieldValue::Kind::kInteger: {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, v.integer).ptr);
      break;
    }
    case FieldValue::Kind::kFlag: out += v.flag ? '1' : '0'; break;
    case FieldValue::Kind::kText: io::append_csv_field(out, v.text); break;
  }
}

/// RFC 8259 has no inf/nan literals, so non-finite numbers are null.
void append_json_value(std::string& out, const FieldValue& v) {
  switch (v.kind) {
    case FieldValue::Kind::kNumber:
      if (std::isfinite(v.number)) {
        append_csv_value(out, v);
      } else {
        out += "null";
      }
      break;
    case FieldValue::Kind::kInteger: append_csv_value(out, v); break;
    case FieldValue::Kind::kFlag: out += v.flag ? "true" : "false"; break;
    case FieldValue::Kind::kText: io::append_json_string(out, v.text); break;
  }
}

std::string table_cell(const FieldValue& v, const TableFormat& format,
                       int precision) {
  switch (v.kind) {
    case FieldValue::Kind::kNumber:
      if (format.negative != nullptr && !(v.number >= 0.0)) {
        return format.negative;
      }
      return io::format_fixed(v.number,
                              format.digits == TableFormat::kPrecision
                                  ? precision
                                  : format.digits);
    case FieldValue::Kind::kInteger: return std::to_string(v.integer);
    case FieldValue::Kind::kFlag: return v.flag ? format.yes : format.no;
    case FieldValue::Kind::kText: return std::string(v.text);
  }
  return {};
}

}  // namespace

ResultSet::ResultSet(std::vector<RunRecord> records)
    : records_(std::move(records)) {
  for (const RunRecord& rec : records_) {
    if (!rec.label.empty()) {
      any_label_ = true;
      break;
    }
  }
}

bool ResultSet::all_met() const {
  return std::all_of(records_.begin(), records_.end(), [](const RunRecord& r) {
    return describe(r.family).met(r);
  });
}

ResultSet ResultSet::filtered(Family family) const {
  std::vector<RunRecord> subset;
  for (const RunRecord& rec : records_) {
    if (rec.family == family) subset.push_back(rec);
  }
  ResultSet out(std::move(subset));
  out.set_cache_stats(cache_stats_);
  return out;
}

bool ScenarioCache::lookup(const std::string& key, Entry* out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  *out = it->second;
  return true;
}

bool ScenarioCache::contains(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return map_.find(key) != map_.end();
}

bool ScenarioCache::store(const std::string& key, Entry entry) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return map_.emplace(key, std::move(entry)).second;
}

std::vector<std::pair<std::string, ScenarioCache::Entry>>
ScenarioCache::snapshot() const {
  std::vector<std::pair<std::string, Entry>> entries;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(map_.size());
    // rv-lint: allow(unordered-iteration) — gathered unsorted, sorted below
    for (const auto& [key, entry] : map_) entries.emplace_back(key, entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

std::size_t ScenarioCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

void ScenarioCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
}

std::span<const SchemaColumn> ResultSet::schema() const {
  if (records_.empty()) return describe(Family::kRendezvous).columns;
  const RunRecord& first = records_[0];
  for (const RunRecord& rec : records_) {
    if (rec.family != first.family) {
      throw std::logic_error(
          "ResultSet: emission needs a homogeneous family; split mixed runs "
          "with filtered()");
    }
    bool same = rec.components.size() == first.components.size();
    for (std::size_t i = 0; same && i < rec.components.size(); ++i) {
      same = rec.components[i].name == first.components[i].name;
    }
    if (!same) {
      throw std::logic_error(
          "ResultSet: emission needs one component-column schema; records "
          "disagree on component names");
    }
  }
  return describe(first.family).columns;
}

io::CsvRow ResultSet::csv_header(const std::vector<Column>& extras) const {
  io::CsvRow header;
  if (any_label_) header.push_back("label");
  for (const SchemaColumn& col : schema()) header.push_back(col.name);
  if (!records_.empty()) {
    for (const Component& c : records_[0].components) {
      header.push_back(c.name);
    }
  }
  for (const Column& col : extras) header.push_back(col.name);
  return header;
}

std::string ResultSet::to_csv(const std::vector<Column>& extras) const {
  std::string out;
  io::append_csv_row(out, csv_header(extras));
  const std::span<const SchemaColumn> columns = schema();
  for (const RunRecord& rec : records_) {
    bool first = true;
    walk_row(rec, any_label_, columns, extras,
             [&](std::string_view, const FieldValue& value,
                 const TableFormat&) {
               if (!first) out += ',';
               first = false;
               append_csv_value(out, value);
             });
    out += '\n';
  }
  return out;
}

std::string ResultSet::to_json(const std::vector<Column>& extras) const {
  const std::span<const SchemaColumn> columns = schema();
  std::string out = "[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    out += i == 0 ? "\n  {" : ",\n  {";
    bool first = true;
    walk_row(records_[i], any_label_, columns, extras,
             [&](std::string_view name, const FieldValue& value,
                 const TableFormat&) {
               if (!first) out += ", ";
               first = false;
               io::append_json_string(out, name);
               out += ": ";
               append_json_value(out, value);
             });
    out += '}';
  }
  out += "\n]\n";
  return out;
}

io::Table ResultSet::to_table(const std::vector<Column>& extras,
                              int precision) const {
  io::Table table(csv_header(extras));
  if (any_label_) table.set_align(0, io::Align::kLeft);
  const std::span<const SchemaColumn> columns = schema();
  for (const RunRecord& rec : records_) {
    std::vector<std::string> row;
    row.reserve(table.columns());
    walk_row(rec, any_label_, columns, extras,
             [&](std::string_view, const FieldValue& value,
                 const TableFormat& format) {
               row.push_back(table_cell(value, format, precision));
             });
    table.add_row(std::move(row));
  }
  return table;
}

std::string render(const ResultSet& results, std::string_view format) {
  if (format == "csv") return results.to_csv();
  if (format == "json") return results.to_json();
  if (format == "table") return results.to_table().to_ascii();
  throw std::invalid_argument("format must be csv, json or table, got '" +
                              std::string(format) + "'");
}

ResultSet run_scenarios(const std::vector<WorkItem>& work,
                        RunnerOptions options) {
  const std::size_t n = work.size();
  std::vector<RunRecord> records(n);
  std::vector<std::exception_ptr> errors(n);

  unsigned threads =
      options.threads ? options.threads : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > n) threads = static_cast<unsigned>(n);

  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> hits{0}, misses{0}, uncacheable{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const WorkItem& item = work[i];
      try {
        // Chaos site: an `error` action lands in this catch and
        // surfaces through ResultSet like any scenario failure.
        RV_FAILPOINT_AT("runner.work.item", i);
        RunRecord rec;
        rec.family = item.family;
        rec.label = item.label;
        switch (item.family) {
          case Family::kRendezvous:
            rec.scenario = item.scenario;
            break;
          case Family::kSearch:
            rec.search = item.search;
            break;
          case Family::kGather:
            rec.gather = item.gather;
            break;
          case Family::kLinear:
            rec.linear = item.linear;
            break;
          case Family::kCoverage:
            rec.coverage = item.coverage;
            break;
        }

        // Memoization: replay an identical cell's outcome instead of
        // recomputing it.  Outcomes are pure functions of the content
        // key, so the replayed record is byte-identical to a computed
        // one in every emitter.
        std::optional<std::string> key;
        ScenarioCache::Entry entry;
        bool have_outcome = false;
        if (options.cache) {
          key = cache_key(item);
          if (!key) {
            uncacheable.fetch_add(1, std::memory_order_relaxed);
          } else if (options.cache->lookup(*key, &entry)) {
            have_outcome = true;
            hits.fetch_add(1, std::memory_order_relaxed);
          } else {
            misses.fetch_add(1, std::memory_order_relaxed);
          }
        }

        if (!have_outcome && !item.components_only) {
          switch (item.family) {
            case Family::kRendezvous:
              entry = rendezvous::run_scenario(item.scenario);
              break;
            case Family::kSearch:
              entry = run_search_cell(item.search);
              break;
            case Family::kGather:
              entry = run_gather_cell(item.gather);
              break;
            case Family::kLinear:
              entry = run_linear_cell(item.linear);
              break;
            case Family::kCoverage:
              entry = run_coverage_cell(item.coverage);
              break;
          }
          have_outcome = true;
          if (key) options.cache->store(*key, entry);
        }
        if (have_outcome) {
          rec.set_outcome(std::move(entry));
        } else if (item.family == Family::kRendezvous) {
          // A components-only rendezvous item runs no scenario, but its
          // `feasible` column is still emitted: Theorem 4 decides it
          // from the attributes alone.
          rec.outcome.feasibility = rendezvous::classify(item.scenario.attrs);
        }
        // Component times are evaluated on every run — computed and
        // replayed cells alike — so caching stays oblivious to the
        // (identity-less) hook functions.
        if (item.components) rec.components = item.components(rec);
        records[i] = std::move(rec);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }

  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  ResultSet result(std::move(records));
  result.set_cache_stats(
      {hits.load(), misses.load(), uncacheable.load()});
  return result;
}

ResultSet run_scenarios(const ScenarioSet& set, RunnerOptions options) {
  return run_scenarios(set.materialize_work(), options);
}

}  // namespace rv::engine
