#include "engine/families.hpp"

#include <cmath>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "engine/wire.hpp"
#include "linear/zigzag.hpp"
#include "mathx/constants.hpp"
#include "mathx/stats.hpp"
#include "search/algorithm4.hpp"
#include "search/baselines.hpp"
#include "sim/simulator.hpp"

namespace rv::engine {

const char* family_name(Family family) { return describe(family).name; }

const char* linear_mode_name(LinearMode mode) {
  switch (mode) {
    case LinearMode::kZigZagSearch: return "zigzag-search";
    case LinearMode::kRendezvous: return "linear-rendezvous";
  }
  return "?";
}

namespace {

/// Shared program dispatch of the search and coverage families: the
/// custom factory wins, otherwise the built-in choice.
std::shared_ptr<traj::Program> make_family_program(
    SearchProgram program,
    const std::function<std::shared_ptr<traj::Program>()>& factory) {
  if (factory) return factory();
  switch (program) {
    case SearchProgram::kAlgorithm4: return search::make_search_program();
    case SearchProgram::kConcentric: return search::make_concentric_baseline();
    case SearchProgram::kSquareSpiral:
      return search::make_square_spiral_baseline();
  }
  throw std::invalid_argument("make_family_program: unknown program");
}

std::shared_ptr<traj::Program> make_search_cell_program(
    const SearchCell& cell) {
  return make_family_program(cell.program, cell.program_factory);
}

}  // namespace

SearchOutcome run_search_cell(const SearchCell& cell) {
  // Explicit targets override the angle ring entirely.
  const bool explicit_targets = !cell.targets.empty();
  if (!explicit_targets) {
    if (cell.angles < 1) {
      throw std::invalid_argument("run_search_cell: need >= 1 angle");
    }
    if (!(cell.distance > 0.0)) {
      throw std::invalid_argument("run_search_cell: distance must be > 0");
    }
  }
  const int count =
      explicit_targets ? static_cast<int>(cell.targets.size()) : cell.angles;
  SearchOutcome out;
  mathx::RunningStats stats;
  // The worst-over-angles reducer: simulate every target of the ring
  // (in ring order, so the reduction is deterministic) and keep the
  // worst/mean discovery time over the found ones.
  for (int a = 0; a < count; ++a) {
    geom::Vec2 target;
    double ang;
    if (explicit_targets) {
      target = cell.targets[static_cast<std::size_t>(a)];
      ang = std::atan2(target.y, target.x);
    } else {
      ang = 2.0 * mathx::kPi * a / cell.angles + cell.angle_offset;
      target = geom::polar(cell.distance, ang);
    }
    sim::SimOptions opts;
    opts.visibility = cell.visibility;
    opts.max_time = cell.max_time;
    const sim::SimResult res =
        sim::simulate_search(make_search_cell_program(cell), target, opts,
                             cell.attrs);
    out.evals += res.evals;
    out.segments += res.segments;
    if (res.met) {
      if (out.found == 0 || res.time > out.worst_time) {
        out.worst_time = res.time;
        out.worst_angle = ang;
      }
      ++out.found;
      stats.add(res.time);
    } else {
      if (out.missed == 0) out.first_miss_angle = ang;
      ++out.missed;
    }
  }
  out.complete = out.found == count;
  out.mean_time = out.found > 0 ? stats.mean() : 0.0;
  out.program_name = cell.program_name.empty()
                         ? make_search_cell_program(cell)->name()
                         : cell.program_name;
  return out;
}

LinearOutcome run_linear_cell(const LinearCell& cell) {
  LinearOutcome out;
  sim::SimOptions opts;
  opts.visibility = cell.visibility;
  opts.max_time = cell.max_time;
  switch (cell.mode) {
    case LinearMode::kZigZagSearch:
      // The zigzag crosses every point of the line, so the target is
      // always reachable (r only widens the catch window).
      out.feasible = true;
      out.sim = sim::simulate_search(linear::make_zigzag_program(),
                                     {cell.target, 0.0}, opts,
                                     linear::to_planar(cell.attrs));
      return out;
    case LinearMode::kRendezvous:
      if (cell.target == 0.0) {
        throw std::invalid_argument("run_linear_cell: robots must start apart");
      }
      out.feasible = linear::linear_rendezvous_feasible(cell.attrs);
      out.sim = sim::simulate_rendezvous(
          [] { return linear::make_linear_rendezvous_program(); },
          linear::to_planar(cell.attrs), {cell.target, 0.0}, opts);
      return out;
  }
  throw std::invalid_argument("run_linear_cell: unknown mode");
}

CoverageOutcome run_coverage_cell(const CoverageCell& cell) {
  analysis::CoverageOptions opts;
  opts.visibility = cell.visibility;
  opts.disk_radius = cell.disk_radius;
  opts.cell = cell.cell;
  opts.checkpoints = cell.checkpoints;
  opts.horizon = cell.horizon;
  CoverageOutcome out;
  const std::shared_ptr<traj::Program> program =
      make_family_program(cell.program, cell.program_factory);
  out.program_name =
      cell.program_name.empty() ? program->name() : cell.program_name;
  out.series = analysis::measure_coverage(program, cell.attrs, opts);
  out.t50 = analysis::time_to_fraction(out.series, 0.50);
  out.t99 = analysis::time_to_fraction(out.series, 0.99);
  if (!out.series.empty()) {
    out.final_fraction = out.series.back().fraction;
    out.covered_area = out.series.back().covered_area;
  }
  return out;
}

geom::Vec2 gather_origin(const GatherCell& cell, std::size_t i) {
  const std::size_t n = cell.fleet.size();
  geom::Vec2 origin = geom::polar(
      cell.ring_radius, cell.ring_phase + 2.0 * mathx::kPi *
                                              static_cast<double>(i) /
                                              static_cast<double>(n));
  if (i < cell.jitter.size()) {
    origin.x += cell.jitter[i].x;
    origin.y += cell.jitter[i].y;
  }
  return origin;
}

// ---------------------------------------------------------------------------
// Scenario content keys
// ---------------------------------------------------------------------------

namespace {

/// Canonical byte encoders (cores shared with the cache store via
/// engine/wire.hpp).  Doubles are appended canonically — −0.0
/// normalised onto +0.0 — integers as fixed-width raw bytes, strings
/// length-prefixed.
void append_f64(std::string& out, double v) {
  wire::put_f64_canonical(out, v);
}

void append_i32(std::string& out, std::int32_t v) { wire::put(out, v); }

void append_attrs(std::string& out, const geom::RobotAttributes& a) {
  append_f64(out, a.speed);
  append_f64(out, a.time_unit);
  append_f64(out, a.orientation);
  append_i32(out, a.chirality);
}

void append_vec2(std::string& out, const geom::Vec2& v) {
  append_f64(out, v.x);
  append_f64(out, v.y);
}

/// Program identity: 'a' + enum for a built-in algorithm, 'c' + name
/// for a named custom factory, nullopt (uncacheable) for an anonymous
/// one.
[[nodiscard]] bool append_program_identity(std::string& out,
                                           bool has_factory,
                                           const std::string& name,
                                           std::int32_t algorithm) {
  if (has_factory) {
    if (name.empty()) return false;
    out += 'c';
    wire::put_str(out, name);
  } else {
    out += 'a';
    append_i32(out, algorithm);
  }
  return true;
}

}  // namespace

std::optional<std::string> cache_key(const WorkItem& item) {
  std::string key(1, describe(item.family).key_tag);
  switch (item.family) {
    case Family::kRendezvous: {
      const rendezvous::Scenario& s = item.scenario;
      if (!append_program_identity(key, static_cast<bool>(s.program),
                                   s.program_name,
                                   static_cast<std::int32_t>(s.algorithm))) {
        return std::nullopt;
      }
      append_attrs(key, s.attrs);
      append_vec2(key, s.offset);
      append_f64(key, s.visibility);
      append_f64(key, s.max_time);
      return key;
    }
    case Family::kSearch: {
      const SearchCell& c = item.search;
      if (!append_program_identity(key, static_cast<bool>(c.program_factory),
                                   c.program_name,
                                   static_cast<std::int32_t>(c.program))) {
        return std::nullopt;
      }
      // The name is keyed even without a factory: run_search_cell
      // echoes a non-empty program_name into the reported outcome, so
      // cells differing only in it must not share an entry.
      wire::put_str(key, c.program_name);
      append_f64(key, c.distance);
      append_f64(key, c.visibility);
      append_i32(key, c.angles);
      append_f64(key, c.angle_offset);
      // Explicit targets replace the ring, so they are part of the
      // content (count-prefixed: a ring cell and a target cell with
      // otherwise equal fields must not alias).
      append_i32(key, static_cast<std::int32_t>(c.targets.size()));
      for (const geom::Vec2& t : c.targets) append_vec2(key, t);
      append_attrs(key, c.attrs);
      append_f64(key, c.max_time);
      return key;
    }
    case Family::kGather: {
      const GatherCell& c = item.gather;
      append_i32(key, static_cast<std::int32_t>(c.algorithm));
      append_i32(key, static_cast<std::int32_t>(c.fleet.size()));
      for (const geom::RobotAttributes& a : c.fleet) append_attrs(key, a);
      append_f64(key, c.ring_radius);
      append_f64(key, c.ring_phase);
      append_i32(key, static_cast<std::int32_t>(c.jitter.size()));
      for (const geom::Vec2& v : c.jitter) append_vec2(key, v);
      append_f64(key, c.visibility);
      append_f64(key, c.contact_max_time);
      append_f64(key, c.gather_max_time);
      return key;
    }
    case Family::kLinear: {
      const LinearCell& c = item.linear;
      append_i32(key, static_cast<std::int32_t>(c.mode));
      append_f64(key, c.attrs.speed);
      append_f64(key, c.attrs.time_unit);
      append_i32(key, c.attrs.direction);
      append_f64(key, c.target);
      append_f64(key, c.visibility);
      append_f64(key, c.max_time);
      return key;
    }
    case Family::kCoverage: {
      const CoverageCell& c = item.coverage;
      if (!append_program_identity(key, static_cast<bool>(c.program_factory),
                                   c.program_name,
                                   static_cast<std::int32_t>(c.program))) {
        return std::nullopt;
      }
      // Keyed even without a factory: run_coverage_cell echoes a
      // non-empty program_name into the reported outcome.
      wire::put_str(key, c.program_name);
      append_attrs(key, c.attrs);
      append_f64(key, c.disk_radius);
      append_f64(key, c.visibility);
      append_f64(key, c.cell);
      append_i32(key, c.checkpoints);
      append_f64(key, c.horizon);
      return key;
    }
  }
  return std::nullopt;
}

GatherOutcome run_gather_cell(const GatherCell& cell) {
  const std::size_t n = cell.fleet.size();
  if (n < 2) {
    throw std::invalid_argument("run_gather_cell: need a fleet of >= 2");
  }
  std::vector<geom::Vec2> origins;
  origins.reserve(n);
  for (std::size_t i = 0; i < n; ++i) origins.push_back(gather_origin(cell, i));
  const auto factory = rendezvous::program_factory(cell.algorithm);

  GatherOutcome out;
  gather::GatherOptions contact_opts;
  contact_opts.sweep.visibility = cell.visibility;
  contact_opts.sweep.max_time = cell.contact_max_time;
  contact_opts.mode = gather::GatherMode::kFirstContact;
  out.contact =
      gather::simulate_gathering(factory, cell.fleet, origins, contact_opts);

  gather::GatherOptions gather_opts = contact_opts;
  gather_opts.mode = gather::GatherMode::kAllPairsGathered;
  gather_opts.sweep.max_time = cell.gather_max_time;
  out.gathered =
      gather::simulate_gathering(factory, cell.fleet, origins, gather_opts);
  return out;
}

// ---------------------------------------------------------------------------
// Family descriptors
// ---------------------------------------------------------------------------

namespace {

rendezvous::Outcome& field_of(RunRecord& r, const rendezvous::Outcome&) {
  return r.outcome;
}
SearchOutcome& field_of(RunRecord& r, const SearchOutcome&) {
  return r.search_outcome;
}
GatherOutcome& field_of(RunRecord& r, const GatherOutcome&) {
  return r.gather_outcome;
}
LinearOutcome& field_of(RunRecord& r, const LinearOutcome&) {
  return r.linear_outcome;
}
CoverageOutcome& field_of(RunRecord& r, const CoverageOutcome&) {
  return r.coverage_outcome;
}

}  // namespace

void RunRecord::set_outcome(CellOutcome cell_outcome) {
  std::visit([this](auto& o) { field_of(*this, o) = std::move(o); },
             cell_outcome);
}

namespace {

// --- payload codecs: each `fields` lists its wire fields once, in wire
// order, for both directions (wire::Writer / wire::Reader).  Doubles
// are raw, so outcomes round-trip bit-exactly. ---

// `int` counters and the feasibility enum go on the wire as 4 bytes.
static_assert(sizeof(int) == 4 &&
              sizeof(rendezvous::FeasibilityClass) == 4);

template <typename Io>
bool fields(Io& io, wire::Ref<Io, sim::SimResult> r) {
  return io(r.met) && io(r.time) && io(r.distance) && io(r.min_distance) &&
         io(r.min_distance_time) && io(r.position1.x) && io(r.position1.y) &&
         io(r.position2.x) && io(r.position2.y) && io(r.evals) &&
         io(r.segments);
}

template <typename Io>
bool fields(Io& io, wire::Ref<Io, gather::GatherResult> r) {
  return io(r.achieved) && io(r.time) && io(r.pair_i) && io(r.pair_j) &&
         io(r.max_pairwise) && io(r.min_max_pairwise) && io(r.evals) &&
         io(r.segments);
}

template <typename Io>
bool fields(Io& io, wire::Ref<Io, rendezvous::Outcome> o) {
  return fields<Io>(io, o.sim) && io(o.feasibility) &&
         io(o.initial_distance) && io(o.algorithm_name);
}

template <typename Io>
bool fields(Io& io, wire::Ref<Io, SearchOutcome> o) {
  return io(o.found) && io(o.missed) && io(o.complete) &&
         io(o.worst_time) && io(o.mean_time) && io(o.worst_angle) &&
         io(o.first_miss_angle) && io(o.program_name) && io(o.evals) &&
         io(o.segments);
}

template <typename Io>
bool fields(Io& io, wire::Ref<Io, GatherOutcome> o) {
  return fields<Io>(io, o.contact) && fields<Io>(io, o.gathered);
}

template <typename Io>
bool fields(Io& io, wire::Ref<Io, LinearOutcome> o) {
  return io(o.feasible) && fields<Io>(io, o.sim);
}

template <typename Io>
bool fields(Io& io, wire::Ref<Io, CoverageOutcome> o) {
  auto count = static_cast<std::uint32_t>(o.series.size());
  if (!io(count) || !io.fits(count, 3 * sizeof(double))) return false;
  if constexpr (!Io::kWrites) o.series.resize(count);
  for (auto& p : o.series) {
    if (!(io(p.time) && io(p.fraction) && io(p.covered_area))) return false;
  }
  return io(o.program_name) && io(o.t50) && io(o.t99) &&
         io(o.final_fraction) && io(o.covered_area);
}

template <typename Outcome>
void encode(std::string& out, const CellOutcome& outcome) {
  wire::Writer writer(out);
  (void)fields<wire::Writer>(writer, std::get<Outcome>(outcome));
}

template <typename Outcome>
bool decode(wire::Reader& in, CellOutcome* outcome) {
  return fields<wire::Reader>(in, outcome->emplace<Outcome>());
}

// --- output schemas ---

using R = const RunRecord&;

using Kind = FieldValue::Kind;
FieldValue number(double v) { return {Kind::kNumber, v}; }
template <typename Int>
FieldValue integer(Int v) {
  return {Kind::kInteger, 0.0, static_cast<std::int64_t>(v)};
}
FieldValue flag(bool v) { return {Kind::kFlag, 0.0, 0, v}; }
FieldValue text(std::string_view v) { return {Kind::kText, 0.0, 0, false, v}; }

constexpr TableFormat fixed(int digits) { return {.digits = digits}; }
constexpr TableFormat kFeasibleWords{.yes = "feasible", .no = "INFEASIBLE"};
constexpr TableFormat kPastHorizon{.negative = ">horizon"};

constexpr SchemaColumn kRendezvousColumns[] = {
    {"v", [](R r) { return number(r.scenario.attrs.speed); }, fixed(2)},
    {"tau", [](R r) { return number(r.scenario.attrs.time_unit); }, fixed(3)},
    {"phi", [](R r) { return number(r.scenario.attrs.orientation); },
     fixed(3)},
    {"chi", [](R r) { return integer(r.scenario.attrs.chirality); }},
    {"d", [](R r) { return number(r.outcome.initial_distance); }, fixed(2)},
    {"r", [](R r) { return number(r.scenario.visibility); }, fixed(3)},
    {"algorithm", [](R r) { return text(r.outcome.algorithm_name); }},
    {"feasible",
     [](R r) { return flag(rendezvous::is_feasible(r.outcome.feasibility)); },
     kFeasibleWords},
    {"met", [](R r) { return flag(r.outcome.sim.met); }},
    {"time", [](R r) { return number(r.outcome.sim.time); }},
    {"distance", [](R r) { return number(r.outcome.sim.distance); }},
    {"min_distance", [](R r) { return number(r.outcome.sim.min_distance); }},
    {"evals", [](R r) { return integer(r.outcome.sim.evals); }},
    {"segments", [](R r) { return integer(r.outcome.sim.segments); }},
};

constexpr SchemaColumn kSearchColumns[] = {
    {"d", [](R r) { return number(r.search.distance); }, fixed(2)},
    {"r", [](R r) { return number(r.search.visibility); }, fixed(4)},
    {"angles", [](R r) { return integer(r.search.angles); }},
    {"program", [](R r) { return text(r.search_outcome.program_name); }},
    {"found", [](R r) { return integer(r.search_outcome.found); }},
    {"missed", [](R r) { return integer(r.search_outcome.missed); }},
    {"worst_time", [](R r) { return number(r.search_outcome.worst_time); }},
    {"mean_time", [](R r) { return number(r.search_outcome.mean_time); }},
    {"worst_angle", [](R r) { return number(r.search_outcome.worst_angle); },
     fixed(3)},
    {"evals", [](R r) { return integer(r.search_outcome.evals); }},
    {"segments", [](R r) { return integer(r.search_outcome.segments); }},
};

constexpr SchemaColumn kGatherColumns[] = {
    {"n", [](R r) { return integer(r.gather.fleet.size()); }},
    {"ring_radius", [](R r) { return number(r.gather.ring_radius); },
     fixed(2)},
    {"r", [](R r) { return number(r.gather.visibility); }, fixed(3)},
    {"algorithm",
     [](R r) {
       using rendezvous::AlgorithmChoice;
       return text(r.gather.algorithm == AlgorithmChoice::kAlgorithm4
                       ? "algorithm4"
                       : "algorithm7");
     }},
    {"contact", [](R r) { return flag(r.gather_outcome.contact.achieved); }},
    {"contact_time",
     [](R r) { return number(r.gather_outcome.contact.time); }},
    {"pair_i", [](R r) { return integer(r.gather_outcome.contact.pair_i); }},
    {"pair_j", [](R r) { return integer(r.gather_outcome.contact.pair_j); }},
    {"gathered", [](R r) { return flag(r.gather_outcome.gathered.achieved); }},
    {"gathered_time",
     [](R r) { return number(r.gather_outcome.gathered.time); }},
    {"min_max_pairwise",
     [](R r) { return number(r.gather_outcome.gathered.min_max_pairwise); }},
    {"evals",
     [](R r) {
       const GatherOutcome& o = r.gather_outcome;
       return integer(o.contact.evals + o.gathered.evals);
     }},
    {"segments",
     [](R r) {
       const GatherOutcome& o = r.gather_outcome;
       return integer(o.contact.segments + o.gathered.segments);
     }},
};

constexpr SchemaColumn kLinearColumns[] = {
    {"mode", [](R r) { return text(linear_mode_name(r.linear.mode)); }},
    {"v", [](R r) { return number(r.linear.attrs.speed); }, fixed(2)},
    {"tau", [](R r) { return number(r.linear.attrs.time_unit); }, fixed(3)},
    {"dir", [](R r) { return integer(r.linear.attrs.direction); }},
    {"d", [](R r) { return number(r.linear.target); }, fixed(2)},
    {"r", [](R r) { return number(r.linear.visibility); }, fixed(3)},
    {"feasible", [](R r) { return flag(r.linear_outcome.feasible); },
     kFeasibleWords},
    {"met", [](R r) { return flag(r.linear_outcome.sim.met); }},
    {"time", [](R r) { return number(r.linear_outcome.sim.time); }},
    {"distance", [](R r) { return number(r.linear_outcome.sim.distance); }},
    {"min_distance",
     [](R r) { return number(r.linear_outcome.sim.min_distance); }},
    {"evals", [](R r) { return integer(r.linear_outcome.sim.evals); }},
    {"segments", [](R r) { return integer(r.linear_outcome.sim.segments); }},
};

constexpr SchemaColumn kCoverageColumns[] = {
    {"program", [](R r) { return text(r.coverage_outcome.program_name); }},
    {"R", [](R r) { return number(r.coverage.disk_radius); }, fixed(2)},
    {"r", [](R r) { return number(r.coverage.visibility); }, fixed(3)},
    {"cell", [](R r) { return number(r.coverage.cell); }, fixed(3)},
    {"checkpoints", [](R r) { return integer(r.coverage.checkpoints); }},
    {"horizon", [](R r) { return number(r.coverage.horizon); }, fixed(0)},
    {"t50", [](R r) { return number(r.coverage_outcome.t50); }, kPastHorizon},
    {"t99", [](R r) { return number(r.coverage_outcome.t99); }, kPastHorizon},
    {"final_fraction",
     [](R r) { return number(r.coverage_outcome.final_fraction); }, fixed(4)},
    {"covered_area",
     [](R r) { return number(r.coverage_outcome.covered_area); }},
};

/// Indexed by `Family`, like the alternatives of `CellOutcome`.
constexpr FamilyDescriptor kFamilies[] = {
    {"rendezvous", 'R', kRendezvousColumns, encode<rendezvous::Outcome>,
     decode<rendezvous::Outcome>},
    {"search", 'S', kSearchColumns, encode<SearchOutcome>,
     decode<SearchOutcome>},
    {"gather", 'G', kGatherColumns, encode<GatherOutcome>,
     decode<GatherOutcome>},
    {"linear", 'L', kLinearColumns, encode<LinearOutcome>,
     decode<LinearOutcome>},
    {"coverage", 'C', kCoverageColumns, encode<CoverageOutcome>,
     decode<CoverageOutcome>},
};
static_assert(std::size(kFamilies) == std::variant_size_v<CellOutcome>);

}  // namespace

const FamilyDescriptor& describe(Family family) {
  return kFamilies[static_cast<std::size_t>(family)];
}

const FamilyDescriptor* describe_key(std::string_view key) {
  for (const FamilyDescriptor& family : kFamilies) {
    if (!key.empty() && key[0] == family.key_tag) return &family;
  }
  return nullptr;
}

}  // namespace rv::engine
