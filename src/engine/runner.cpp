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
#include "rendezvous/feasibility.hpp"

namespace rv::engine {

namespace {

constexpr const char* kRendezvousColumns[] = {
    "v",   "tau", "phi",  "chi",      "d",            "r",     "algorithm",
    "feasible", "met", "time", "distance", "min_distance", "evals", "segments"};

constexpr const char* kSearchColumns[] = {
    "d",      "r",          "angles",    "program",     "found", "missed",
    "worst_time", "mean_time", "worst_angle", "evals", "segments"};

constexpr const char* kGatherColumns[] = {
    "n",        "ring_radius",  "r",          "algorithm",
    "contact",  "contact_time", "pair_i",     "pair_j",
    "gathered", "gathered_time", "min_max_pairwise", "evals", "segments"};

constexpr const char* kLinearColumns[] = {
    "mode", "v",    "tau",      "dir",          "d",     "r",       "feasible",
    "met",  "time", "distance", "min_distance", "evals", "segments"};

constexpr const char* kCoverageColumns[] = {
    "program", "R",   "r",   "cell",           "checkpoints",
    "horizon", "t50", "t99", "final_fraction", "covered_area"};

/// Appends `s` as a JSON string token, escaped per RFC 8259: quote,
/// backslash, and *every* control character below 0x20 (named escapes
/// where JSON has them, \u00XX otherwise).  Raw control characters in
/// the output would make the document unparseable.
void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

/// Appends the members of one JSON object: `"name": value`, separated
/// by ", ", every key escaped.  The caller writes the braces.
class JsonMembers {
 public:
  explicit JsonMembers(std::string& out) : out_(out) {}

  /// RFC 8259 has no inf/nan literals, so non-finite values are
  /// emitted as null; finite ones as io::format_double(v) writes them.
  void number(std::string_view name, double v) {
    key(name);
    if (std::isfinite(v)) {
      io::append_number(out_, v, std::chars_format::general, 12);
    } else {
      out_ += "null";
    }
  }
  template <typename Int>
  void integer(std::string_view name, Int v) {
    key(name);
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
  void boolean(std::string_view name, bool v) {
    key(name);
    out_ += v ? "true" : "false";
  }
  void string(std::string_view name, std::string_view v) {
    key(name);
    append_json_string(out_, v);
  }

 private:
  void key(std::string_view name) {
    if (!first_) out_ += ", ";
    first_ = false;
    append_json_string(out_, name);
    out_ += ": ";
  }
  std::string& out_;
  bool first_ = true;
};

const char* gather_algorithm_name(const GatherCell& cell) {
  return cell.algorithm == rendezvous::AlgorithmChoice::kAlgorithm4
             ? "algorithm4"
             : "algorithm7";
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
  for (const RunRecord& rec : records_) {
    switch (rec.family) {
      case Family::kRendezvous:
        if (!rec.outcome.sim.met) return false;
        break;
      case Family::kSearch:
        if (!rec.search_outcome.complete) return false;
        break;
      case Family::kGather:
        if (!rec.gather_outcome.gathered.achieved) return false;
        break;
      case Family::kLinear:
        if (!rec.linear_outcome.sim.met) return false;
        break;
      case Family::kCoverage:
        if (rec.coverage_outcome.t99 < 0.0) return false;
        break;
    }
  }
  return true;
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

Family ResultSet::emission_family() const {
  Family family = records_.empty() ? Family::kRendezvous : records_[0].family;
  for (const RunRecord& rec : records_) {
    if (rec.family != family) {
      throw std::logic_error(
          "ResultSet: emission needs a homogeneous family; split mixed runs "
          "with filtered()");
    }
  }
  return family;
}

std::vector<std::string> ResultSet::component_names() const {
  std::vector<std::string> names;
  if (records_.empty()) return names;
  names.reserve(records_[0].components.size());
  for (const Component& c : records_[0].components) names.push_back(c.name);
  for (const RunRecord& rec : records_) {
    bool same = rec.components.size() == names.size();
    for (std::size_t i = 0; same && i < names.size(); ++i) {
      same = rec.components[i].name == names[i];
    }
    if (!same) {
      throw std::logic_error(
          "ResultSet: emission needs one component-column schema; records "
          "disagree on component names");
    }
  }
  return names;
}

io::CsvRow ResultSet::csv_header(const std::vector<Column>& extras) const {
  io::CsvRow header;
  if (any_label_) header.push_back("label");
  switch (emission_family()) {
    case Family::kRendezvous:
      for (const char* name : kRendezvousColumns) header.push_back(name);
      break;
    case Family::kSearch:
      for (const char* name : kSearchColumns) header.push_back(name);
      break;
    case Family::kGather:
      for (const char* name : kGatherColumns) header.push_back(name);
      break;
    case Family::kLinear:
      for (const char* name : kLinearColumns) header.push_back(name);
      break;
    case Family::kCoverage:
      for (const char* name : kCoverageColumns) header.push_back(name);
      break;
  }
  for (const std::string& name : component_names()) header.push_back(name);
  for (const Column& col : extras) header.push_back(col.name);
  return header;
}

std::vector<io::CsvRow> ResultSet::csv_rows(
    const std::vector<Column>& extras) const {
  (void)emission_family();   // reject mixed sets up front
  (void)component_names();   // reject mismatched component schemas
  std::vector<io::CsvRow> rows;
  rows.reserve(records_.size());
  for (const RunRecord& rec : records_) {
    io::CsvRow row;
    if (any_label_) row.push_back(rec.label);
    switch (rec.family) {
      case Family::kRendezvous: {
        const rendezvous::Scenario& s = rec.scenario;
        const sim::SimResult& sim = rec.outcome.sim;
        row.push_back(io::format_double(s.attrs.speed));
        row.push_back(io::format_double(s.attrs.time_unit));
        row.push_back(io::format_double(s.attrs.orientation));
        row.push_back(std::to_string(s.attrs.chirality));
        row.push_back(io::format_double(rec.outcome.initial_distance));
        row.push_back(io::format_double(s.visibility));
        row.push_back(rec.outcome.algorithm_name);
        row.push_back(rendezvous::is_feasible(rec.outcome.feasibility) ? "1"
                                                                       : "0");
        row.push_back(sim.met ? "1" : "0");
        row.push_back(io::format_double(sim.time));
        row.push_back(io::format_double(sim.distance));
        row.push_back(io::format_double(sim.min_distance));
        row.push_back(std::to_string(sim.evals));
        row.push_back(std::to_string(sim.segments));
        break;
      }
      case Family::kSearch: {
        const SearchCell& c = rec.search;
        const SearchOutcome& o = rec.search_outcome;
        row.push_back(io::format_double(c.distance));
        row.push_back(io::format_double(c.visibility));
        row.push_back(std::to_string(c.angles));
        row.push_back(o.program_name);
        row.push_back(std::to_string(o.found));
        row.push_back(std::to_string(o.missed));
        row.push_back(io::format_double(o.worst_time));
        row.push_back(io::format_double(o.mean_time));
        row.push_back(io::format_double(o.worst_angle));
        row.push_back(std::to_string(o.evals));
        row.push_back(std::to_string(o.segments));
        break;
      }
      case Family::kGather: {
        const GatherCell& c = rec.gather;
        const GatherOutcome& o = rec.gather_outcome;
        row.push_back(std::to_string(c.fleet.size()));
        row.push_back(io::format_double(c.ring_radius));
        row.push_back(io::format_double(c.visibility));
        row.push_back(gather_algorithm_name(c));
        row.push_back(o.contact.achieved ? "1" : "0");
        row.push_back(io::format_double(o.contact.time));
        row.push_back(std::to_string(o.contact.pair_i));
        row.push_back(std::to_string(o.contact.pair_j));
        row.push_back(o.gathered.achieved ? "1" : "0");
        row.push_back(io::format_double(o.gathered.time));
        row.push_back(io::format_double(o.gathered.min_max_pairwise));
        row.push_back(std::to_string(o.contact.evals + o.gathered.evals));
        row.push_back(
            std::to_string(o.contact.segments + o.gathered.segments));
        break;
      }
      case Family::kLinear: {
        const LinearCell& c = rec.linear;
        const LinearOutcome& o = rec.linear_outcome;
        row.push_back(linear_mode_name(c.mode));
        row.push_back(io::format_double(c.attrs.speed));
        row.push_back(io::format_double(c.attrs.time_unit));
        row.push_back(std::to_string(c.attrs.direction));
        row.push_back(io::format_double(c.target));
        row.push_back(io::format_double(c.visibility));
        row.push_back(o.feasible ? "1" : "0");
        row.push_back(o.sim.met ? "1" : "0");
        row.push_back(io::format_double(o.sim.time));
        row.push_back(io::format_double(o.sim.distance));
        row.push_back(io::format_double(o.sim.min_distance));
        row.push_back(std::to_string(o.sim.evals));
        row.push_back(std::to_string(o.sim.segments));
        break;
      }
      case Family::kCoverage: {
        const CoverageCell& c = rec.coverage;
        const CoverageOutcome& o = rec.coverage_outcome;
        row.push_back(o.program_name);
        row.push_back(io::format_double(c.disk_radius));
        row.push_back(io::format_double(c.visibility));
        row.push_back(io::format_double(c.cell));
        row.push_back(std::to_string(c.checkpoints));
        row.push_back(io::format_double(c.horizon));
        row.push_back(io::format_double(o.t50));
        row.push_back(io::format_double(o.t99));
        row.push_back(io::format_double(o.final_fraction));
        row.push_back(io::format_double(o.covered_area));
        break;
      }
    }
    for (const Component& c : rec.components) {
      row.push_back(io::format_double(c.value));
    }
    for (const Column& col : extras) row.push_back(col.value(rec));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string ResultSet::to_csv(const std::vector<Column>& extras) const {
  const io::CsvRow header = csv_header(extras);
  const std::vector<io::CsvRow> rows = csv_rows(extras);
  std::size_t bytes = 0;  // fields plus one separator each; quoting aside
  for (const std::string& field : header) bytes += field.size() + 1;
  for (const io::CsvRow& row : rows) {
    for (const std::string& field : row) bytes += field.size() + 1;
  }
  std::string out;
  out.reserve(bytes);
  io::append_csv_row(out, header);
  for (const io::CsvRow& row : rows) io::append_csv_row(out, row);
  return out;
}

std::string ResultSet::to_json(const std::vector<Column>& extras) const {
  (void)emission_family();   // reject mixed sets up front
  (void)component_names();   // reject mismatched component schemas
  std::string out = "[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const RunRecord& rec = records_[i];
    out += i == 0 ? "\n  {" : ",\n  {";
    JsonMembers row(out);
    if (any_label_) row.string("label", rec.label);
    switch (rec.family) {
      case Family::kRendezvous: {
        const rendezvous::Scenario& s = rec.scenario;
        const sim::SimResult& sim = rec.outcome.sim;
        row.number("v", s.attrs.speed);
        row.number("tau", s.attrs.time_unit);
        row.number("phi", s.attrs.orientation);
        row.integer("chi", s.attrs.chirality);
        row.number("d", rec.outcome.initial_distance);
        row.number("r", s.visibility);
        row.string("algorithm", rec.outcome.algorithm_name);
        row.boolean("feasible",
                    rendezvous::is_feasible(rec.outcome.feasibility));
        row.boolean("met", sim.met);
        row.number("time", sim.time);
        row.number("distance", sim.distance);
        row.number("min_distance", sim.min_distance);
        row.integer("evals", sim.evals);
        row.integer("segments", sim.segments);
        break;
      }
      case Family::kSearch: {
        const SearchCell& c = rec.search;
        const SearchOutcome& o = rec.search_outcome;
        row.number("d", c.distance);
        row.number("r", c.visibility);
        row.integer("angles", c.angles);
        row.string("program", o.program_name);
        row.integer("found", o.found);
        row.integer("missed", o.missed);
        row.number("worst_time", o.worst_time);
        row.number("mean_time", o.mean_time);
        row.number("worst_angle", o.worst_angle);
        row.integer("evals", o.evals);
        row.integer("segments", o.segments);
        break;
      }
      case Family::kGather: {
        const GatherCell& c = rec.gather;
        const GatherOutcome& o = rec.gather_outcome;
        row.integer("n", c.fleet.size());
        row.number("ring_radius", c.ring_radius);
        row.number("r", c.visibility);
        row.string("algorithm", gather_algorithm_name(c));
        row.boolean("contact", o.contact.achieved);
        row.number("contact_time", o.contact.time);
        row.integer("pair_i", o.contact.pair_i);
        row.integer("pair_j", o.contact.pair_j);
        row.boolean("gathered", o.gathered.achieved);
        row.number("gathered_time", o.gathered.time);
        row.number("min_max_pairwise", o.gathered.min_max_pairwise);
        row.integer("evals", o.contact.evals + o.gathered.evals);
        row.integer("segments", o.contact.segments + o.gathered.segments);
        break;
      }
      case Family::kLinear: {
        const LinearCell& c = rec.linear;
        const LinearOutcome& o = rec.linear_outcome;
        row.string("mode", linear_mode_name(c.mode));
        row.number("v", c.attrs.speed);
        row.number("tau", c.attrs.time_unit);
        row.integer("dir", c.attrs.direction);
        row.number("d", c.target);
        row.number("r", c.visibility);
        row.boolean("feasible", o.feasible);
        row.boolean("met", o.sim.met);
        row.number("time", o.sim.time);
        row.number("distance", o.sim.distance);
        row.number("min_distance", o.sim.min_distance);
        row.integer("evals", o.sim.evals);
        row.integer("segments", o.sim.segments);
        break;
      }
      case Family::kCoverage: {
        const CoverageCell& c = rec.coverage;
        const CoverageOutcome& o = rec.coverage_outcome;
        row.string("program", o.program_name);
        row.number("R", c.disk_radius);
        row.number("r", c.visibility);
        row.number("cell", c.cell);
        row.integer("checkpoints", c.checkpoints);
        row.number("horizon", c.horizon);
        row.number("t50", o.t50);
        row.number("t99", o.t99);
        row.number("final_fraction", o.final_fraction);
        row.number("covered_area", o.covered_area);
        break;
      }
    }
    for (const Component& c : rec.components) row.number(c.name, c.value);
    for (const Column& col : extras) row.string(col.name, col.value(rec));
    out += '}';
  }
  out += "\n]\n";
  return out;
}

io::Table ResultSet::to_table(const std::vector<Column>& extras,
                              int precision) const {
  const Family family = emission_family();
  std::vector<std::string> names;
  if (any_label_) names.push_back("label");
  switch (family) {
    case Family::kRendezvous:
      for (const char* name : kRendezvousColumns) names.push_back(name);
      break;
    case Family::kSearch:
      for (const char* name : kSearchColumns) names.push_back(name);
      break;
    case Family::kGather:
      for (const char* name : kGatherColumns) names.push_back(name);
      break;
    case Family::kLinear:
      for (const char* name : kLinearColumns) names.push_back(name);
      break;
    case Family::kCoverage:
      for (const char* name : kCoverageColumns) names.push_back(name);
      break;
  }
  for (const std::string& name : component_names()) names.push_back(name);
  for (const Column& col : extras) names.push_back(col.name);
  io::Table table(std::move(names));
  if (any_label_) table.set_align(0, io::Align::kLeft);
  for (const RunRecord& rec : records_) {
    std::vector<std::string> row;
    if (any_label_) row.push_back(rec.label);
    switch (rec.family) {
      case Family::kRendezvous: {
        const rendezvous::Scenario& s = rec.scenario;
        const sim::SimResult& sim = rec.outcome.sim;
        row.push_back(io::format_fixed(s.attrs.speed, 2));
        row.push_back(io::format_fixed(s.attrs.time_unit, 3));
        row.push_back(io::format_fixed(s.attrs.orientation, 3));
        row.push_back(std::to_string(s.attrs.chirality));
        row.push_back(io::format_fixed(rec.outcome.initial_distance, 2));
        row.push_back(io::format_fixed(s.visibility, 3));
        row.push_back(rec.outcome.algorithm_name);
        row.push_back(rendezvous::is_feasible(rec.outcome.feasibility)
                          ? "feasible"
                          : "INFEASIBLE");
        row.push_back(sim.met ? "yes" : "no");
        row.push_back(io::format_fixed(sim.time, precision));
        row.push_back(io::format_fixed(sim.distance, precision));
        row.push_back(io::format_fixed(sim.min_distance, precision));
        row.push_back(std::to_string(sim.evals));
        row.push_back(std::to_string(sim.segments));
        break;
      }
      case Family::kSearch: {
        const SearchCell& c = rec.search;
        const SearchOutcome& o = rec.search_outcome;
        row.push_back(io::format_fixed(c.distance, 2));
        row.push_back(io::format_fixed(c.visibility, 4));
        row.push_back(std::to_string(c.angles));
        row.push_back(o.program_name);
        row.push_back(std::to_string(o.found));
        row.push_back(std::to_string(o.missed));
        row.push_back(io::format_fixed(o.worst_time, precision));
        row.push_back(io::format_fixed(o.mean_time, precision));
        row.push_back(io::format_fixed(o.worst_angle, 3));
        row.push_back(std::to_string(o.evals));
        row.push_back(std::to_string(o.segments));
        break;
      }
      case Family::kGather: {
        const GatherCell& c = rec.gather;
        const GatherOutcome& o = rec.gather_outcome;
        row.push_back(std::to_string(c.fleet.size()));
        row.push_back(io::format_fixed(c.ring_radius, 2));
        row.push_back(io::format_fixed(c.visibility, 3));
        row.push_back(gather_algorithm_name(c));
        row.push_back(o.contact.achieved ? "yes" : "no");
        row.push_back(io::format_fixed(o.contact.time, precision));
        row.push_back(std::to_string(o.contact.pair_i));
        row.push_back(std::to_string(o.contact.pair_j));
        row.push_back(o.gathered.achieved ? "yes" : "no");
        row.push_back(io::format_fixed(o.gathered.time, precision));
        row.push_back(io::format_fixed(o.gathered.min_max_pairwise, precision));
        row.push_back(std::to_string(o.contact.evals + o.gathered.evals));
        row.push_back(
            std::to_string(o.contact.segments + o.gathered.segments));
        break;
      }
      case Family::kLinear: {
        const LinearCell& c = rec.linear;
        const LinearOutcome& o = rec.linear_outcome;
        row.push_back(linear_mode_name(c.mode));
        row.push_back(io::format_fixed(c.attrs.speed, 2));
        row.push_back(io::format_fixed(c.attrs.time_unit, 3));
        row.push_back(std::to_string(c.attrs.direction));
        row.push_back(io::format_fixed(c.target, 2));
        row.push_back(io::format_fixed(c.visibility, 3));
        row.push_back(o.feasible ? "feasible" : "INFEASIBLE");
        row.push_back(o.sim.met ? "yes" : "no");
        row.push_back(io::format_fixed(o.sim.time, precision));
        row.push_back(io::format_fixed(o.sim.distance, precision));
        row.push_back(io::format_fixed(o.sim.min_distance, precision));
        row.push_back(std::to_string(o.sim.evals));
        row.push_back(std::to_string(o.sim.segments));
        break;
      }
      case Family::kCoverage: {
        const CoverageCell& c = rec.coverage;
        const CoverageOutcome& o = rec.coverage_outcome;
        row.push_back(o.program_name);
        row.push_back(io::format_fixed(c.disk_radius, 2));
        row.push_back(io::format_fixed(c.visibility, 3));
        row.push_back(io::format_fixed(c.cell, 3));
        row.push_back(std::to_string(c.checkpoints));
        row.push_back(io::format_fixed(c.horizon, 0));
        row.push_back(o.t50 >= 0.0 ? io::format_fixed(o.t50, precision)
                                   : ">horizon");
        row.push_back(o.t99 >= 0.0 ? io::format_fixed(o.t99, precision)
                                   : ">horizon");
        row.push_back(io::format_fixed(o.final_fraction, 4));
        row.push_back(io::format_fixed(o.covered_area, precision));
        break;
      }
    }
    for (const Component& c : rec.components) {
      row.push_back(io::format_fixed(c.value, precision));
    }
    for (const Column& col : extras) row.push_back(col.value(rec));
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
        bool hit = false;
        if (options.cache) {
          key = cache_key(item);
          if (!key) {
            uncacheable.fetch_add(1, std::memory_order_relaxed);
          } else if (options.cache->lookup(*key, &entry)) {
            hit = true;
            hits.fetch_add(1, std::memory_order_relaxed);
          } else {
            misses.fetch_add(1, std::memory_order_relaxed);
          }
        }

        if (hit) {
          rec.outcome = std::move(entry.outcome);
          rec.search_outcome = std::move(entry.search_outcome);
          rec.gather_outcome = std::move(entry.gather_outcome);
          rec.linear_outcome = std::move(entry.linear_outcome);
          rec.coverage_outcome = std::move(entry.coverage_outcome);
        } else if (!item.components_only) {
          switch (item.family) {
            case Family::kRendezvous:
              rec.outcome = rendezvous::run_scenario(item.scenario);
              break;
            case Family::kSearch:
              rec.search_outcome = run_search_cell(item.search);
              break;
            case Family::kGather:
              rec.gather_outcome = run_gather_cell(item.gather);
              break;
            case Family::kLinear:
              rec.linear_outcome = run_linear_cell(item.linear);
              break;
            case Family::kCoverage:
              rec.coverage_outcome = run_coverage_cell(item.coverage);
              break;
          }
          if (key) {
            entry.outcome = rec.outcome;
            entry.search_outcome = rec.search_outcome;
            entry.gather_outcome = rec.gather_outcome;
            entry.linear_outcome = rec.linear_outcome;
            entry.coverage_outcome = rec.coverage_outcome;
            options.cache->store(*key, std::move(entry));
          }
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

ResultSet run_scenarios(const std::vector<LabeledScenario>& scenarios,
                        RunnerOptions options) {
  std::vector<WorkItem> work;
  work.reserve(scenarios.size());
  for (const LabeledScenario& ls : scenarios) {
    WorkItem item;
    item.family = Family::kRendezvous;
    item.label = ls.label;
    item.scenario = ls.scenario;
    work.push_back(std::move(item));
  }
  return run_scenarios(work, options);
}

ResultSet run_scenarios(const ScenarioSet& set, RunnerOptions options) {
  return run_scenarios(set.materialize_work(), options);
}

}  // namespace rv::engine
