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
#include <unordered_set>
#include <utility>

#include "engine/failpoint.hpp"
#include "io/json.hpp"

namespace rv::engine {

namespace {

/// Calls `cell(name, value, format)` for each column of `rec` in
/// emission order: label, the family's standard columns, extras (the
/// order of `ResultSet::csv_header`).
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
  if (!records_.empty()) family_ = records_[0].family;
  for (const RunRecord& rec : records_) {
    if (!rec.label.empty()) {
      any_label_ = true;
      break;
    }
  }
}

ResultSet ResultSet::filtered(Family family) const {
  std::vector<RunRecord> subset;
  for (const RunRecord& rec : records_) {
    if (rec.family == family) subset.push_back(rec);
  }
  ResultSet out(std::move(subset));
  out.set_family(family);
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
  for (const RunRecord& rec : records_) {
    if (rec.family != family_) {
      throw std::logic_error(
          "ResultSet: emission needs a homogeneous family; split mixed runs "
          "with filtered()");
    }
  }
  return describe(family_).columns;
}

io::CsvRow ResultSet::csv_header(const std::vector<Column>& extras) const {
  io::CsvRow header;
  if (any_label_) header.push_back("label");
  for (const SchemaColumn& col : schema()) header.push_back(col.name);
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

void check_format(std::string_view format) {
  if (format != "csv" && format != "json" && format != "table") {
    throw std::invalid_argument("format must be csv, json or table, got '" +
                                std::string(format) + "'");
  }
}

std::string render(const ResultSet& results, std::string_view format) {
  check_format(format);
  if (format == "csv") return results.to_csv();
  if (format == "json") return results.to_json();
  return results.to_table().to_ascii();
}

Classification classify(const std::vector<WorkItem>& work,
                        const ScenarioCache* cache) {
  Classification out;
  if (cache == nullptr) return out;
  out.keys.reserve(work.size());
  for (const WorkItem& item : work) out.keys.push_back(cache_key(item));
  std::unordered_set<std::string_view> computed;
  for (std::size_t i = 0; i < work.size(); ++i) {
    const std::optional<std::string>& key = out.keys[i];
    if (!key) {
      out.stats.uncacheable += 1;
    } else if (cache->contains(*key) || !computed.insert(*key).second) {
      out.stats.hits += 1;
    } else {
      out.stats.misses += 1;
      out.misses.push_back(i);
    }
  }
  return out;
}

ResultSet run_scenarios(const std::vector<WorkItem>& work,
                        const Classification& classification,
                        RunnerOptions options) {
  const std::size_t n = work.size();
  std::vector<RunRecord> records(n);
  std::vector<std::exception_ptr> errors(n);

  const auto run_item = [&](std::size_t i) {
    const WorkItem& item = work[i];
    try {
      // Chaos site: an `error` action lands in this catch and surfaces
      // through ResultSet like any scenario failure.
      RV_FAILPOINT_AT("runner.work.item", i);
      RunRecord rec;
      rec.family = item.family;
      rec.label = item.label;
      // Cells of other families are default-constructed on both sides.
      rec.scenario = item.scenario;
      rec.search = item.search;
      rec.gather = item.gather;
      rec.linear = item.linear;
      rec.coverage = item.coverage;

      // Memoization: replay an identical cell's outcome instead of
      // recomputing it.  Outcomes are pure functions of the content
      // key, so the replayed record is byte-identical to a computed
      // one in every emitter.
      const bool keyed = options.cache != nullptr &&
                         !classification.keys.empty() && classification.keys[i];
      ScenarioCache::Entry entry;
      if (!keyed || !options.cache->lookup(*classification.keys[i], &entry)) {
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
        if (keyed) options.cache->store(*classification.keys[i], entry);
      }
      rec.set_outcome(std::move(entry));
      records[i] = std::move(rec);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  const unsigned threads =
      options.threads ? options.threads : std::thread::hardware_concurrency();
  // Runs body(k), k < count, on this thread and up to threads - 1 more.
  const auto pass = [&](std::size_t count, const auto& body) {
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t k; (k = next.fetch_add(1)) < count;) body(k);
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < std::min<std::size_t>(threads, count); ++t) {
      pool.emplace_back(worker);
    }
    worker();
    for (std::thread& th : pool) th.join();
  };
  // The misses first, so the hits of the second pass, repeated cells
  // included, all find their outcome stored.
  const std::vector<std::size_t>& misses = classification.misses;
  pass(misses.size(), [&](std::size_t k) { run_item(misses[k]); });
  pass(n, [&](std::size_t i) {
    if (!std::binary_search(misses.begin(), misses.end(), i)) run_item(i);
  });

  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  ResultSet result(std::move(records));
  result.set_cache_stats(classification.stats);
  return result;
}

ResultSet run_scenarios(const std::vector<WorkItem>& work,
                        RunnerOptions options) {
  return run_scenarios(work, classify(work, options.cache), options);
}

ResultSet run_scenarios(const ScenarioSet& set, RunnerOptions options) {
  return run_scenarios(set.materialize_work(), options);
}

}  // namespace rv::engine
