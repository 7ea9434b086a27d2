// Randomised differential tests ("fuzz"): the certified Lipschitz
// sweep of the simulator is cross-checked against an independent
// dense-sampling + Brent oracle on randomly generated piecewise
// trajectories, the frame map is cross-checked against direct matrix
// evaluation on random programs, and the scenario-cache content key is
// cross-checked against an independent canonical dump of the keyed
// fields.  Any disagreement is a bug in one of the two independent
// implementations.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/families.hpp"
#include "engine/serve.hpp"
#include "engine/set_decl.hpp"
#include "io/json.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "search/algorithm4.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/roots.hpp"
#include "support/traj.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"

namespace {

using rv::geom::RobotAttributes;
using rv::geom::Vec2;
using rv::mathx::Xoshiro256;
using rv::traj::Path;
using rv::traj::PathProgram;

/// Random continuous path with `segments` pieces: lines, arcs and
/// waits with bounded extents.
Path random_path(Xoshiro256& rng, int segments) {
  Path path;
  for (int i = 0; i < segments; ++i) {
    const auto kind = rng.uniform_int(0, 2);
    if (kind == 0) {
      path.line_to(path.end() +
                   Vec2{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)});
    } else if (kind == 1) {
      // Arc around a centre offset from the current end point.
      const Vec2 centre =
          path.end() + rv::geom::polar(rng.uniform(0.3, 2.0),
                                       rng.uniform(0.0, rv::mathx::kTwoPi));
      path.arc_around(centre, rng.uniform(-1.5, 1.5) * rv::mathx::kPi);
    } else {
      path.wait(rng.uniform(0.1, 1.0));
    }
  }
  return path;
}

/// Independent oracle: separation of the two traces as a dense time
/// function, first crossing of r found by scan + Brent.
double oracle_first_contact(const rv::sim::GlobalTrace& t1,
                            const rv::sim::GlobalTrace& t2, double r,
                            double horizon) {
  auto sep = [&](double t) {
    return rv::geom::distance(rv::sim::position_at(t1, t),
                              rv::sim::position_at(t2, t)) -
           r;
  };
  if (sep(0.0) <= 0.0) return 0.0;
  // Scan resolution well below any segment length used by the fuzzer.
  const auto crossing = rv::mathx::first_crossing(sep, 0.0, horizon, 20000);
  return crossing ? crossing->x : -1.0;
}

TEST(FuzzSimulator, AgreesWithDenseOracleOnRandomTrajectories) {
  Xoshiro256 rng(20240612);
  int contacts = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Path p1 = random_path(rng, 8);
    const Path p2 = random_path(rng, 8);
    RobotAttributes a2;
    a2.speed = rng.uniform(0.5, 2.0);
    const Vec2 origin2{rng.uniform(2.0, 6.0), rng.uniform(-2.0, 2.0)};
    const double r = rng.uniform(0.2, 1.0);
    const double horizon = 30.0;

    rv::sim::RobotSpec s1{std::make_shared<PathProgram>(p1, "fuzz1"),
                          RobotAttributes{}, Vec2{0.0, 0.0}};
    rv::sim::RobotSpec s2{std::make_shared<PathProgram>(p2, "fuzz2"), a2,
                          origin2};
    rv::sim::SimOptions opts;
    opts.visibility = r;
    opts.max_time = horizon;
    rv::sim::TwoRobotSimulator sim(std::move(s1), std::move(s2), opts);
    const auto res = sim.run();

    rv::sim::GlobalTrace t1(std::make_shared<PathProgram>(p1, "fuzz1"),
                            RobotAttributes{}, {0.0, 0.0}, horizon + 1.0);
    rv::sim::GlobalTrace t2(std::make_shared<PathProgram>(p2, "fuzz2"), a2,
                            origin2, horizon + 1.0);
    const double oracle = oracle_first_contact(t1, t2, r, horizon);

    if (res.met) {
      ++contacts;
      ASSERT_GE(oracle, 0.0)
          << "trial " << trial << ": simulator met at " << res.time
          << " but oracle saw nothing";
      // The dense scan can be slightly late on steep crossings; both
      // must agree to scan resolution.
      EXPECT_NEAR(res.time, oracle, 2e-2)
          << "trial " << trial << " r=" << r;
    } else if (oracle >= 0.0) {
      // The oracle "found" a contact the simulator missed: only
      // acceptable if it is a graze within the contact tolerance of
      // the horizon boundary.
      ADD_FAILURE() << "trial " << trial
                    << ": oracle found contact at " << oracle
                    << " that the simulator missed";
    }
  }
  // The scenario generator must actually produce contacts to test.
  EXPECT_GE(contacts, 5);
}

TEST(FuzzSimulator, FirstContactNeverAfterOracle) {
  // Stronger property on a second stream: when both find a contact,
  // the certified sweep's time is never later than the oracle's
  // (the sweep cannot skip the first crossing).
  Xoshiro256 rng(777);
  for (int trial = 0; trial < 25; ++trial) {
    const Path p1 = random_path(rng, 6);
    const Path p2 = random_path(rng, 6);
    const Vec2 origin2{rng.uniform(1.0, 4.0), rng.uniform(-1.0, 1.0)};
    const double r = rng.uniform(0.3, 0.8);
    const double horizon = 25.0;

    rv::sim::SimOptions opts;
    opts.visibility = r;
    opts.max_time = horizon;
    rv::sim::TwoRobotSimulator sim(
        {std::make_shared<PathProgram>(p1, "a"), RobotAttributes{},
         {0.0, 0.0}},
        {std::make_shared<PathProgram>(p2, "b"), RobotAttributes{}, origin2},
        opts);
    const auto res = sim.run();
    if (!res.met) continue;

    rv::sim::GlobalTrace t1(std::make_shared<PathProgram>(p1, "a"),
                            RobotAttributes{}, {0.0, 0.0}, horizon + 1.0);
    rv::sim::GlobalTrace t2(std::make_shared<PathProgram>(p2, "b"),
                            RobotAttributes{}, origin2, horizon + 1.0);
    const double oracle = oracle_first_contact(t1, t2, r, horizon);
    ASSERT_GE(oracle, 0.0);
    EXPECT_LE(res.time, oracle + 1e-6) << "trial " << trial;
  }
}

TEST(FuzzFrameMap, RandomProgramsSatisfyLemma4Identity) {
  Xoshiro256 rng(4711);
  for (int trial = 0; trial < 20; ++trial) {
    const Path local = random_path(rng, 6);
    RobotAttributes attrs;
    attrs.speed = rng.uniform(0.3, 3.0);
    attrs.time_unit = rng.uniform(0.3, 3.0);
    attrs.orientation = rng.uniform(0.0, rv::mathx::kTwoPi);
    attrs.chirality = rng.uniform_int(0, 1) ? 1 : -1;
    const Vec2 origin{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    const double horizon = attrs.time_unit * local.duration();
    if (horizon <= 0.0) continue;

    rv::sim::GlobalTrace trace(std::make_shared<PathProgram>(local, "fz"),
                               attrs, origin, horizon);
    const rv::geom::Mat2 m = rv::geom::frame_matrix(attrs);
    for (int i = 0; i < 25; ++i) {
      const double t = rng.uniform(0.0, horizon * 0.999);
      const Vec2 expected =
          origin + m * rv::traj::position_at(local, t / attrs.time_unit);
      EXPECT_TRUE(rv::geom::approx_equal(rv::sim::position_at(trace, t),
                                         expected, 1e-6))
          << "trial " << trial << " t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// engine::cache_key fuzz: distinct cells must never share a key, keys
// must be deterministic, and the documented equivalences (−0.0 = +0.0,
// labels not keyed) must hold.  The oracle is an independent canonical
// dump of every keyed field (explicit field names, hexfloat doubles,
// length-framed strings) — if two semantically different items ever
// produce the same key, the dump comparison catches it.
// ---------------------------------------------------------------------------

std::string dump_f64(double v) {
  v += 0.0;  // mirror the key's −0.0 normalisation (the only doubles
             // that compare equal with distinct bit patterns)
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string dump_str(const std::string& s) {
  return std::to_string(s.size()) + ":" + s;
}

std::string dump_attrs(const rv::geom::RobotAttributes& a) {
  return dump_f64(a.speed) + "," + dump_f64(a.time_unit) + "," +
         dump_f64(a.orientation) + "," + std::to_string(a.chirality);
}

std::string dump_vec(const rv::geom::Vec2& v) {
  return dump_f64(v.x) + "," + dump_f64(v.y);
}

/// Canonical representation of every field `cache_key` documents as
/// keyed.  Independent of the key encoding: field names + unambiguous
/// per-field framing.
std::string dump_item(const rv::engine::WorkItem& item) {
  using rv::engine::Family;
  std::string out = std::string("family=") +
                    rv::engine::family_name(item.family) + ";";
  switch (item.family) {
    case Family::kRendezvous: {
      const auto& s = item.scenario;
      // A custom program overrides the algorithm enum entirely, so the
      // enum is not part of the cell's semantics (and rightly unkeyed).
      out += s.program
                 ? "prog=custom;name=" + dump_str(s.program_name)
                 : "prog=builtin;algo=" +
                       std::to_string(static_cast<int>(s.algorithm));
      out += ";attrs=" + dump_attrs(s.attrs) + ";off=" + dump_vec(s.offset) +
             ";r=" + dump_f64(s.visibility) + ";T=" + dump_f64(s.max_time);
      break;
    }
    case Family::kSearch: {
      const auto& c = item.search;
      out += c.program_factory
                 ? "prog=custom"
                 : "prog=builtin;algo=" +
                       std::to_string(static_cast<int>(c.program));
      // The name is semantic even without a factory: run_search_cell
      // echoes it into the reported outcome.
      out += ";name=" + dump_str(c.program_name) +
             ";d=" + dump_f64(c.distance) + ";r=" + dump_f64(c.visibility) +
             ";angles=" + std::to_string(c.angles) +
             ";phase=" + dump_f64(c.angle_offset) + ";targets=";
      for (const auto& t : c.targets) out += dump_vec(t) + "|";
      out += ";attrs=" + dump_attrs(c.attrs) + ";T=" + dump_f64(c.max_time);
      break;
    }
    case Family::kGather: {
      const auto& c = item.gather;
      out += "algo=" + std::to_string(static_cast<int>(c.algorithm)) +
             ";fleet=";
      for (const auto& a : c.fleet) out += dump_attrs(a) + "|";
      out += ";ring=" + dump_f64(c.ring_radius) +
             ";phase=" + dump_f64(c.ring_phase) + ";jitter=";
      for (const auto& j : c.jitter) out += dump_vec(j) + "|";
      out += ";r=" + dump_f64(c.visibility) +
             ";Tc=" + dump_f64(c.contact_max_time) +
             ";Tg=" + dump_f64(c.gather_max_time);
      break;
    }
    case Family::kLinear: {
      const auto& c = item.linear;
      out += "mode=" + std::to_string(static_cast<int>(c.mode)) +
             ";v=" + dump_f64(c.attrs.speed) +
             ";tau=" + dump_f64(c.attrs.time_unit) +
             ";dir=" + std::to_string(c.attrs.direction) +
             ";x=" + dump_f64(c.target) + ";r=" + dump_f64(c.visibility) +
             ";T=" + dump_f64(c.max_time);
      break;
    }
    case Family::kCoverage: {
      const auto& c = item.coverage;
      out += c.program_factory
                 ? "prog=custom"
                 : "prog=builtin;algo=" +
                       std::to_string(static_cast<int>(c.program));
      out += ";name=" + dump_str(c.program_name) +
             ";attrs=" + dump_attrs(c.attrs) + ";R=" + dump_f64(c.disk_radius) +
             ";r=" + dump_f64(c.visibility) + ";cell=" + dump_f64(c.cell) +
             ";cp=" + std::to_string(c.checkpoints) +
             ";T=" + dump_f64(c.horizon);
      break;
    }
  }
  return out;
}

/// Random work item with fields drawn from adversarial pools: values
/// whose raw-byte encodings could collide across field boundaries if
/// the key format were ambiguous (short/empty hostile strings with
/// separators, control chars and embedded NULs; ±0.0; counts 0–3).
rv::engine::WorkItem random_item(Xoshiro256& rng) {
  using namespace rv;
  static const std::vector<double> doubles{
      0.0,    -0.0, 1.0,  2.0,   0.5,
      0.125,  1e-3, 1e6,  -1.0,  3.5};
  static const std::vector<std::string> strings{
      "",         "a",         "ab",          "c",
      "a\x01b",   "\x01",      "name,1",      std::string("x\0y", 3),
      "aa",       "ca",        {'\x04', 'a'}, "zigzag"};
  auto d = [&] { return doubles[static_cast<std::size_t>(
                     rng.uniform_int(0, static_cast<int>(doubles.size()) - 1))]; };
  auto s = [&] { return strings[static_cast<std::size_t>(
                     rng.uniform_int(0, static_cast<int>(strings.size()) - 1))]; };
  auto attrs = [&] {
    geom::RobotAttributes a;
    a.speed = d();
    a.time_unit = d();
    a.orientation = d();
    a.chirality = rng.uniform_int(0, 1) ? 1 : -1;
    return a;
  };
  const auto factory = [] { return search::make_search_program(); };

  engine::WorkItem item;
  item.label = s();  // labels are NOT keyed; randomised to prove it
  switch (rng.uniform_int(0, 4)) {
    case 0: {
      item.family = engine::Family::kRendezvous;
      auto& sc = item.scenario;
      if (rng.uniform_int(0, 1) == 1) sc.program = factory;
      sc.program_name = s();
      sc.algorithm = rng.uniform_int(0, 1) == 0
                         ? rendezvous::AlgorithmChoice::kAlgorithm4
                         : rendezvous::AlgorithmChoice::kAlgorithm7;
      sc.attrs = attrs();
      sc.offset = {d(), d()};
      sc.visibility = d();
      sc.max_time = d();
      break;
    }
    case 1: {
      item.family = engine::Family::kSearch;
      auto& c = item.search;
      if (rng.uniform_int(0, 1) == 1) c.program_factory = factory;
      c.program_name = s();
      c.program = static_cast<engine::SearchProgram>(rng.uniform_int(0, 2));
      c.distance = d();
      c.visibility = d();
      c.angles = rng.uniform_int(1, 3);
      c.angle_offset = d();
      for (int i = rng.uniform_int(0, 3); i > 0; --i) {
        c.targets.push_back({d(), d()});
      }
      c.attrs = attrs();
      c.max_time = d();
      break;
    }
    case 2: {
      item.family = engine::Family::kGather;
      auto& c = item.gather;
      c.algorithm = rng.uniform_int(0, 1) == 0
                        ? rendezvous::AlgorithmChoice::kAlgorithm4
                        : rendezvous::AlgorithmChoice::kAlgorithm7;
      for (int i = rng.uniform_int(2, 4); i > 0; --i) {
        c.fleet.push_back(attrs());
      }
      c.ring_radius = d();
      c.ring_phase = d();
      for (int i = rng.uniform_int(0, 3); i > 0; --i) {
        c.jitter.push_back({d(), d()});
      }
      c.visibility = d();
      c.contact_max_time = d();
      c.gather_max_time = d();
      break;
    }
    case 3: {
      item.family = engine::Family::kLinear;
      auto& c = item.linear;
      c.mode = rng.uniform_int(0, 1) == 0 ? engine::LinearMode::kZigZagSearch
                                          : engine::LinearMode::kRendezvous;
      c.attrs.speed = d();
      c.attrs.time_unit = d();
      c.attrs.direction = rng.uniform_int(0, 1) ? 1 : -1;
      c.target = d();
      c.visibility = d();
      c.max_time = d();
      break;
    }
    default: {
      item.family = engine::Family::kCoverage;
      auto& c = item.coverage;
      if (rng.uniform_int(0, 1) == 1) c.program_factory = factory;
      c.program_name = s();
      c.program = static_cast<engine::SearchProgram>(rng.uniform_int(0, 2));
      c.attrs = attrs();
      c.disk_radius = d();
      c.visibility = d();
      c.cell = d();
      c.checkpoints = rng.uniform_int(1, 8);
      c.horizon = d();
      break;
    }
  }
  return item;
}

TEST(FuzzCacheKey, DistinctCellsNeverCollideAndKeysAreDeterministic) {
  using rv::engine::cache_key;
  Xoshiro256 rng(20260730);
  std::map<std::string, std::string> seen;  // key → canonical dump
  int keyed = 0, uncacheable = 0, equivalent = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const rv::engine::WorkItem item = random_item(rng);
    const auto key = cache_key(item);
    const bool anonymous_custom =
        (item.family == rv::engine::Family::kRendezvous &&
         item.scenario.program && item.scenario.program_name.empty()) ||
        (item.family == rv::engine::Family::kSearch &&
         item.search.program_factory && item.search.program_name.empty()) ||
        (item.family == rv::engine::Family::kCoverage &&
         item.coverage.program_factory && item.coverage.program_name.empty());
    ASSERT_EQ(key.has_value(), !anonymous_custom) << "trial " << trial;
    if (!key) {
      ++uncacheable;
      continue;
    }
    ++keyed;
    // Deterministic: a deep copy keys identically.
    const rv::engine::WorkItem copy = item;
    ASSERT_EQ(cache_key(copy), key) << "trial " << trial;
    // Injective: equal keys imply an equal canonical dump.
    const std::string dump = dump_item(item);
    const auto [it, inserted] = seen.emplace(*key, dump);
    if (!inserted) {
      ASSERT_EQ(it->second, dump)
          << "trial " << trial
          << ": two semantically distinct cells share a cache key";
      ++equivalent;
    }
  }
  // The generator must exercise all paths meaningfully.
  EXPECT_GT(keyed, 2000);
  EXPECT_GT(uncacheable, 50);
  EXPECT_GT(equivalent, 0);  // duplicates occur, and collide *correctly*
}

TEST(FuzzCacheKey, DocumentedEquivalencesAndSeparations) {
  using rv::engine::cache_key;
  rv::engine::WorkItem base;
  base.family = rv::engine::Family::kSearch;
  base.search.distance = 1.0;
  base.search.visibility = 0.25;
  base.search.angles = 2;
  base.label = "first";

  // Labels are not keyed.
  rv::engine::WorkItem relabeled = base;
  relabeled.label = "second";
  EXPECT_EQ(cache_key(base), cache_key(relabeled));

  // −0.0 keys as +0.0 (they are numerically equal).
  rv::engine::WorkItem neg = base;
  neg.search.angle_offset = -0.0;
  rv::engine::WorkItem pos = base;
  pos.search.angle_offset = 0.0;
  EXPECT_EQ(cache_key(neg), cache_key(pos));

  // A cell with an anonymous program factory has no key at all.
  rv::engine::WorkItem anonymous = base;
  anonymous.search.program_factory = [] {
    return rv::search::make_search_program();
  };
  EXPECT_FALSE(cache_key(anonymous).has_value());

  // A ring cell and a targets cell with equal scalars must differ, as
  // must hostile program names that embed each other.
  rv::engine::WorkItem with_target = base;
  with_target.search.targets = {{1.0, 0.0}};
  EXPECT_NE(cache_key(base), cache_key(with_target));
  rv::engine::WorkItem named1 = base;
  named1.search.program_name = "ab";
  rv::engine::WorkItem named2 = base;
  named2.search.program_name = "a";
  EXPECT_NE(cache_key(named1), cache_key(named2));
  EXPECT_NE(cache_key(named1), cache_key(base));
}

// ---------------------------------------------------------------------------
// `.rvset` parser fuzz (engine/set_decl): hostile text — truncations,
// byte flips, NUL/UTF-8 garbage, duplicated and deleted lines — must
// either parse deterministically or fail with SetDeclError.  It must
// never crash, never throw anything else, and never *mis-parse*: a
// token with trailing junk, an out-of-range value or a duplicate key
// is an error, not a silently different grid.
// ---------------------------------------------------------------------------

/// A valid seed declaration touching every family and section kind.
const char* kSeedDecl =
    "name = fuzz-seed\n"
    "description = all five families\n"
    "[rendezvous]\n"
    "visibility = 0.25\n"
    "speeds = 1.0 1.5\n"
    "chiralities = 1 -1\n"
    "[search]\n"
    "angles = 4\n"
    "distances = 1.0 2.0\n"
    "horizon_rule = guaranteed-rounds+1\n"
    "[gather.add]\n"
    "label = pair\n"
    "robot = 1.0 1.0\n"
    "robot = 1.5 0.5\n"
    "[linear]\n"
    "mode = zigzag-search\n"
    "distances = 1.0 -2.0\n"
    "[coverage]\n"
    "programs = algorithm4 square-spiral\n"
    "horizon = 50.0\n";

/// The grid a parse produced, as comparable data: (family, label,
/// content key) per materialised item.
std::vector<std::string> grid_signature(const rv::engine::SetDecl& decl) {
  std::vector<std::string> out;
  for (const rv::engine::WorkItem& item : decl.set.materialize_work()) {
    const auto key = rv::engine::cache_key(item);
    out.push_back(std::string(rv::engine::family_name(item.family)) + "|" +
                  item.label + "|" + key.value_or("<uncacheable>"));
  }
  return out;
}

TEST(FuzzSetDecl, SeedParsesDeterministically) {
  const rv::engine::SetDecl a = rv::engine::parse_set_decl(kSeedDecl);
  const rv::engine::SetDecl b = rv::engine::parse_set_decl(kSeedDecl);
  EXPECT_EQ(a.name, "fuzz-seed");
  const std::vector<std::string> sig = grid_signature(a);
  EXPECT_EQ(sig, grid_signature(b));
  // 4 rendezvous + 2 search + 1 gather.add + 2 linear + 2 coverage.
  EXPECT_EQ(sig.size(), 11u);
}

TEST(FuzzSetDecl, EveryTruncationFailsCleanlyOrParses) {
  const std::string seed = kSeedDecl;
  int parsed = 0, rejected = 0;
  for (std::size_t keep = 0; keep <= seed.size(); ++keep) {
    const std::string cut = seed.substr(0, keep);
    try {
      const rv::engine::SetDecl decl = rv::engine::parse_set_decl(cut);
      // A successful parse must materialise without throwing.
      (void)grid_signature(decl);
      ++parsed;
    } catch (const rv::engine::SetDeclError&) {
      ++rejected;  // clean, typed failure — the only acceptable error
    } catch (const std::invalid_argument&) {
      ++rejected;  // domain-invalid cell caught at materialisation
    }
  }
  // Both outcomes must actually occur (the full text parses; chopping
  // inside "[search]\nangles = 4\n" leaves an axis-less grid, etc.).
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

/// Applies 1–4 seeded random edits to `text`: byte overwrites and
/// insertions drawn from `pool`, truncation, line duplication and span
/// deletion.
std::string mutate(std::string text, Xoshiro256& rng,
                   const std::string& pool) {
  const auto pool_byte = [&] {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
  };
  const int edits = rng.uniform_int(1, 4);
  for (int e = 0; e < edits; ++e) {
    switch (rng.uniform_int(0, 4)) {
      case 0: {  // flip/overwrite one byte
        if (text.empty()) break;
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(text.size()) - 1));
        text[at] = pool_byte();
        break;
      }
      case 1: {  // insert a garbage byte
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(text.size())));
        text.insert(at, 1, pool_byte());
        break;
      }
      case 2: {  // truncate at a random point
        text.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(text.size()))));
        break;
      }
      case 3: {  // duplicate a random line (dup-key pressure)
        std::vector<std::string> lines;
        std::size_t start = 0;
        while (start < text.size()) {
          std::size_t eol = text.find('\n', start);
          if (eol == std::string::npos) eol = text.size();
          lines.push_back(text.substr(start, eol - start));
          start = eol + 1;
        }
        if (lines.empty()) break;
        const auto which = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(lines.size()) - 1));
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(which),
                     lines[which]);
        text.clear();
        for (const std::string& line : lines) text += line + "\n";
        break;
      }
      default: {  // delete a random span
        if (text.empty()) break;
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(text.size()) - 1));
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 12));
        text.erase(at, len);
        break;
      }
    }
  }
  return text;
}

TEST(FuzzSetDecl, RandomMutationsNeverCrashOrMisThrow) {
  Xoshiro256 rng(20260808);
  static const std::string garbage_pool =
      std::string("\0\x01\x7f\xc3\xa9\xe2\x82\xac[]=# \t\n-+.e0129xX/", 26);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string text = mutate(kSeedDecl, rng, garbage_pool);
    rv::engine::SetDecl decl;
    try {
      decl = rv::engine::parse_set_decl(text);
    } catch (const rv::engine::SetDeclError&) {
      ++rejected;  // the only failure mode the *parser* may have
      continue;
    }
    // Any other exception type from the parse propagates and fails.
    try {
      const std::vector<std::string> sig = grid_signature(decl);
      // Whatever parsed must re-parse to the identical grid.
      ASSERT_EQ(sig, grid_signature(rv::engine::parse_set_decl(text)))
          << "trial " << trial;
      ++parsed;
    } catch (const std::invalid_argument&) {
      // Materialisation may reject domain-invalid values (e.g. a
      // horizon rule needs d, r > 0) — exactly as a hand-written
      // ScenarioSet with the same cell would.  Clean, typed, no crash.
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzSetDecl, CorruptValuesErrorInsteadOfMisParsing) {
  // Each hostile value rides in an otherwise valid declaration; a
  // lenient strtod-style parser would accept every one of them and
  // quietly produce a *different grid* — the exact bug class this
  // format bans.
  const char* hostile_values[] = {
      "1.0x",          // trailing junk after a valid number
      "0x10",          // hex
      "inf",           // non-finite
      "nan",           // non-finite
      "1e400",         // overflows to inf
      "1.0 2.0x",      // junk hidden inside a list
      "2 # comment",   // inline comments are not a thing
      "1,5",           // locale-style decimal comma
      "--1",           // double sign
      "1e",            // empty exponent
      ".",             // no digits at all
  };
  for (const char* value : hostile_values) {
    const std::string text =
        std::string("[search]\ndistances = ") + value + "\n";
    EXPECT_THROW((void)rv::engine::parse_set_decl(text),
                 rv::engine::SetDeclError)
        << "value '" << value << "' must not parse";
  }
  // And the out-of-range integer axis: counts cannot wrap.
  EXPECT_THROW((void)rv::engine::parse_set_decl(
                   "[search]\nangles = 4294967296\ndistances = 1\n"),
               rv::engine::SetDeclError);
  EXPECT_THROW((void)rv::engine::parse_set_decl(
                   "[gather]\nsizes = 99999999999999999999\n"),
               rv::engine::SetDeclError);
}

// rv_serve request headers: a mutated header parses or fails with the
// "parse" ServeError; any other exception would escape the daemon.
TEST(FuzzServeRequest, RandomMutationsParseOrFailWithParseError) {
  Xoshiro256 rng(20261017);
  const std::string seeds[] = {
      R"({"op":"run","id":"a","set":"gather-fleet","format":"json",)"
      R"("deadline_ms":12.5,"partial":true})",
      R"({"op":"run","set":"gather-fleet","deadline_ms":1e999})",
      R"({"op":"run","body_bytes":)" + std::string(400, '9') + "}",
      R"({"op":"status","id":"s"})",
  };
  static const std::string pool =
      std::string("\0\x01\x7f\xc3\xa9{}[]:,\"\\ -+.eE0159", 23);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string text = mutate(seeds[trial % 4], rng, pool);
    try {
      (void)rv::engine::serve::parse_request(text);
      ++parsed;
    } catch (const rv::engine::serve::ServeError& error) {
      ASSERT_EQ(error.code(), "parse") << text;
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// The strict JSON reader: every mutated document parses or throws
// io::JsonError, nothing else; nesting depth is bounded, not the stack.
TEST(FuzzJsonReader, RandomMutationsParseOrThrowJsonError) {
  Xoshiro256 rng(20261019);
  const std::string seeds[] = {
      R"({"reply":"ok","id":"aA","bytes":12,"hits":0,"misses":3,)"
      R"("missing_indices":[1,3],"latency":{"mean_ms":0.125,"ok":true}})",
      "[\n  {\"name\": \"BM_A/10\", \"real_time\": -1.5e+3, \"x\": null},\n"
      "  {\"caches\": [[], {}, [1, [2, [3]]]], \"s\": \"\\n\\\"\"}\n]\n",
      R"("plain \/ string \\ with escapes \t")",
      "-0.0e-0",
  };
  static const std::string pool =
      std::string("\0\x01\x7f\xc3\xa9{}[]:,\"\\ \t\r\n-+.eE0159tfnu", 30);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string text = mutate(seeds[trial % 4], rng, pool);
    try {
      rv::io::JsonReader json(text);
      json.skip_value();
      json.end();
      ++parsed;
    } catch (const rv::io::JsonError& error) {
      ASSERT_LE(error.offset(), text.size()) << text;
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);

  const std::string deep(100000, '[');
  rv::io::JsonReader json(deep);
  EXPECT_THROW(json.skip_value(), rv::io::JsonError);
}

TEST(FuzzPaths, RandomPathsAreClampedAndSumTheirDurations) {
  Xoshiro256 rng(90210);
  for (int trial = 0; trial < 50; ++trial) {
    const Path p = random_path(rng, 10);
    EXPECT_TRUE(
        rv::geom::approx_equal(rv::traj::position_at(p, -1.0), p.start()));
    EXPECT_TRUE(rv::geom::approx_equal(
        rv::traj::position_at(p, p.duration() + 5.0), p.end()));
    // Durations are non-negative and sum consistently.
    double acc = 0.0;
    for (const auto& seg : p.segments()) {
      const double dur = rv::traj::duration(seg);
      EXPECT_GE(dur, 0.0);
      acc += dur;
    }
    EXPECT_NEAR(acc, p.duration(), 1e-9 * (1.0 + acc));
  }
}

}  // namespace
