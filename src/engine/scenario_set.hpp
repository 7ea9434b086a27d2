#pragma once

/// \file scenario_set.hpp
/// Declarative description of a batch of engine work, spanning the
/// five workload families (see engine/families.hpp).
///
/// Every experiment in the paper is a parameter sweep: a grid over
/// rendezvous attributes (v, τ, φ, χ) and offsets, a (d, r, program)
/// grid of search instances evaluated over a target-angle ring, a list
/// of gathering fleets on origin rings, a (d, r) grid of 1-D cells, or
/// a (program, R, r) grid of swept-area cells.  `ScenarioSet` captures
/// all of them as *data*.  Each family is one block of the same shape:
/// its explicitly added cells, a base cell, whether a grid is declared,
/// and the per-cell hooks (horizon rule, filter, labeller); only the
/// grid axes differ between families.
///
/// Materialisation order is fixed and documented so the output of every
/// downstream table/CSV is deterministic.  Families come in the order
/// below; within each, the explicit adds (in insertion order) precede
/// the grid, whose axes nest outermost first:
///   1. rendezvous: speeds ⊃ time_units ⊃ orientations ⊃ chiralities ⊃
///      offsets;
///   2. search: search_distances ⊃ search_radii ⊃ search_programs;
///   3. gather: gather_sizes;
///   4. linear: linear_distances ⊃ linear_radii;
///   5. coverage: coverage_programs ⊃ coverage_disk_radii ⊃
///      coverage_radii.
/// Every cell, explicit or grid, then passes through one emit step:
/// filter, then horizon, then label.
///
/// Run a set with `engine::run_scenarios` (runner.hpp), which fans the
/// work items out across a thread pool and aggregates the outcomes.

#include <functional>
#include <string>
#include <vector>

#include "engine/families.hpp"
#include "geom/vec2.hpp"
#include "rendezvous/core.hpp"

namespace rv::engine {

/// A declarative multi-family grid/list of engine work.  All setters
/// return *this for fluent declaration-style use.
class ScenarioSet {
 public:
  ScenarioSet() = default;

  /// Appends one explicit rendezvous scenario (kept before the grid
  /// cells, in insertion order).  The horizon/filter hooks apply to
  /// these too.
  ScenarioSet& add(rendezvous::Scenario scenario, std::string label = "");

  // --- rendezvous grid axes (an unset axis contributes the base value) --
  ScenarioSet& speeds(std::vector<double> values);
  ScenarioSet& time_units(std::vector<double> values);
  ScenarioSet& orientations(std::vector<double> values);
  ScenarioSet& chiralities(std::vector<int> values);
  ScenarioSet& offsets(std::vector<geom::Vec2> values);
  /// Sugar: offsets {d, 0} for each distance.
  ScenarioSet& distances(std::vector<double> values);

  // --- rendezvous base knobs applied to every grid cell -----------------
  ScenarioSet& base(rendezvous::Scenario base_scenario);
  ScenarioSet& visibility(double r);
  ScenarioSet& algorithm(rendezvous::AlgorithmChoice choice);
  ScenarioSet& max_time(double horizon);

  // --- rendezvous per-scenario hooks ------------------------------------
  /// Horizon override evaluated per materialised scenario (e.g. a
  /// theorem bound plus slack).
  ScenarioSet& horizon(
      std::function<double(const rendezvous::Scenario&)> horizon_fn);
  /// Keep-predicate; cells where it returns false are dropped (e.g. the
  /// infeasible corner of an attribute grid).
  ScenarioSet& filter(
      std::function<bool(const rendezvous::Scenario&)> keep_fn);

  // --- search family ----------------------------------------------------
  /// Appends one explicit search cell (kept before the search grid, in
  /// insertion order).  The search hooks apply to these too.
  ScenarioSet& add_search(SearchCell cell, std::string label = "");
  /// Base cell for the search grid (angle ring, program, attrs, ...).
  ScenarioSet& search_base(SearchCell base_cell);
  /// Grid axes: target distances ⊃ visibility radii ⊃ programs
  /// (distances outermost).  An unset axis contributes the base value.
  ScenarioSet& search_distances(std::vector<double> values);
  ScenarioSet& search_radii(std::vector<double> values);
  ScenarioSet& search_programs(std::vector<SearchProgram> values);
  /// Per-cell horizon rule (e.g. "Theorem 1 bound + slack").
  ScenarioSet& search_horizon(std::function<double(const SearchCell&)> fn);
  /// Keep-predicate over search cells (e.g. "bound applicable").
  ScenarioSet& search_filter(std::function<bool(const SearchCell&)> fn);

  // --- gather family ----------------------------------------------------
  /// Appends one explicit gathering cell (kept before the gather size
  /// grid, in insertion order).
  ScenarioSet& add_gather(GatherCell cell, std::string label = "");
  /// Base cell for the gather size grid (ring, visibility, horizons).
  ScenarioSet& gather_base(GatherCell base_cell);
  /// Grid axis over fleet sizes; each size n becomes a fleet of n
  /// reference robots.
  ScenarioSet& gather_sizes(std::vector<int> values);

  // --- linear family (1-D, [11]) ----------------------------------------
  /// Appends one explicit linear cell (kept before the linear grid, in
  /// insertion order).  The linear hooks apply to these too.
  ScenarioSet& add_linear(LinearCell cell, std::string label = "");
  /// Base cell for the linear grid (mode, attributes, horizon, ...).
  ScenarioSet& linear_base(LinearCell base_cell);
  /// Grid axes: target coordinates / offsets ⊃ visibility radii
  /// (distances outermost).  An unset axis contributes the base value.
  ScenarioSet& linear_distances(std::vector<double> values);
  ScenarioSet& linear_radii(std::vector<double> values);
  /// Per-cell horizon rule (e.g. the zigzag reach bound + slack).
  ScenarioSet& linear_horizon(std::function<double(const LinearCell&)> fn);

  // --- coverage family ([25] area accounting) ---------------------------
  /// Appends one explicit coverage cell (kept before the coverage grid,
  /// in insertion order).  The coverage hooks apply to these too.
  ScenarioSet& add_coverage(CoverageCell cell, std::string label = "");
  /// Base cell for the coverage grid (grid resolution, checkpoints,
  /// attributes, ...).
  ScenarioSet& coverage_base(CoverageCell base_cell);
  /// Grid axes: programs ⊃ disk radii R ⊃ visibility radii r (programs
  /// outermost).  An unset axis contributes the base value.
  ScenarioSet& coverage_programs(std::vector<SearchProgram> values);
  ScenarioSet& coverage_disk_radii(std::vector<double> values);
  ScenarioSet& coverage_radii(std::vector<double> values);
  /// Per-cell horizon rule (e.g. a multiple of the Theorem 1 time).
  ScenarioSet& coverage_horizon(std::function<double(const CoverageCell&)> fn);
  /// Label generator for coverage cells without an explicit label.
  ScenarioSet& coverage_label(
      std::function<std::string(const CoverageCell&)> fn);

  /// Expands the declaration into the concrete multi-family work list
  /// (the fixed materialisation order documented in the file comment).
  [[nodiscard]] std::vector<WorkItem> materialize_work() const;

  /// The one family whose block declares cells (explicit adds or a
  /// grid); rendezvous when none does.  Front-ends call it before any
  /// cell runs, so an empty result still emits its family's header.
  /// \throws std::invalid_argument when two families declare cells:
  /// emission needs a homogeneous family (run mixed sets in C++ and
  /// split them with `ResultSet::filtered`).
  [[nodiscard]] Family single_family() const;

 private:
  /// Everything one family declares apart from its grid axes.
  template <class Cell>
  struct Block {
    struct Added {
      Cell cell;
      std::string label;
    };
    std::vector<Added> added;
    Cell base;
    bool has_grid = false;
    std::function<double(const Cell&)> horizon;
    std::function<bool(const Cell&)> keep;
    std::function<std::string(const Cell&)> label;

    [[nodiscard]] bool declares() const { return has_grid || !added.empty(); }
  };

  /// The emit step every family shares: appends the block's explicit
  /// cells, then (when declared) the cells `grid` passes to the callback
  /// it is given, each filtered, horizoned and labelled.
  template <class Cell, class Grid>
  static void emit(const Block<Cell>& block, const Grid& grid,
                   std::vector<WorkItem>& out);

  Block<rendezvous::Scenario> rendezvous_;
  std::vector<double> speeds_;
  std::vector<double> time_units_;
  std::vector<double> orientations_;
  std::vector<int> chiralities_;
  std::vector<geom::Vec2> offsets_;
  Block<SearchCell> search_;
  std::vector<double> search_distances_;
  std::vector<double> search_radii_;
  std::vector<SearchProgram> search_programs_;
  Block<GatherCell> gather_;
  std::vector<int> gather_sizes_;
  Block<LinearCell> linear_;
  std::vector<double> linear_distances_;
  std::vector<double> linear_radii_;
  Block<CoverageCell> coverage_;
  std::vector<SearchProgram> coverage_programs_;
  std::vector<double> coverage_disk_radii_;
  std::vector<double> coverage_radii_;
};

}  // namespace rv::engine
