#include "engine/scenario_set.hpp"

#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace rv::engine {

namespace {

/// Where one family's cell and horizon live in the generic `WorkItem`.
template <Family F, auto ItemCell, auto Horizon>
struct SlotsOf {
  static constexpr Family kFamily = F;
  static constexpr auto kItemCell = ItemCell;
  static constexpr auto kHorizon = Horizon;
};

template <class Cell>
struct Slots;
template <>
struct Slots<rendezvous::Scenario>
    : SlotsOf<Family::kRendezvous, &WorkItem::scenario,
              &rendezvous::Scenario::max_time> {};
template <>
struct Slots<SearchCell>
    : SlotsOf<Family::kSearch, &WorkItem::search, &SearchCell::max_time> {};
/// A gather cell has two horizons (contact and all-pairs) and no
/// horizon hook.
template <>
struct Slots<GatherCell>
    : SlotsOf<Family::kGather, &WorkItem::gather, nullptr> {};
template <>
struct Slots<LinearCell>
    : SlotsOf<Family::kLinear, &WorkItem::linear, &LinearCell::max_time> {};
template <>
struct Slots<CoverageCell>
    : SlotsOf<Family::kCoverage, &WorkItem::coverage,
              &CoverageCell::horizon> {};

template <class T>
void set_axis(std::vector<T>& axis, std::vector<T> values, bool& has_grid) {
  axis = std::move(values);
  has_grid = true;
}

/// An unset grid axis contributes the base value, so the nested grid
/// loops always cover the full cross product.
template <class T>
std::vector<T> or_base(const std::vector<T>& axis, const T& base) {
  return axis.empty() ? std::vector<T>{base} : axis;
}

}  // namespace

ScenarioSet& ScenarioSet::add(rendezvous::Scenario scenario,
                              std::string label) {
  rendezvous_.added.push_back({std::move(scenario), std::move(label)});
  return *this;
}

ScenarioSet& ScenarioSet::speeds(std::vector<double> values) {
  set_axis(speeds_, std::move(values), rendezvous_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::time_units(std::vector<double> values) {
  set_axis(time_units_, std::move(values), rendezvous_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::orientations(std::vector<double> values) {
  set_axis(orientations_, std::move(values), rendezvous_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::chiralities(std::vector<int> values) {
  set_axis(chiralities_, std::move(values), rendezvous_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::offsets(std::vector<geom::Vec2> values) {
  set_axis(offsets_, std::move(values), rendezvous_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::distances(std::vector<double> values) {
  std::vector<geom::Vec2> offs;
  offs.reserve(values.size());
  for (const double d : values) offs.push_back({d, 0.0});
  return offsets(std::move(offs));
}

ScenarioSet& ScenarioSet::base(rendezvous::Scenario base_scenario) {
  rendezvous_.base = std::move(base_scenario);
  return *this;
}

ScenarioSet& ScenarioSet::visibility(double r) {
  rendezvous_.base.visibility = r;
  return *this;
}

ScenarioSet& ScenarioSet::algorithm(rendezvous::AlgorithmChoice choice) {
  rendezvous_.base.algorithm = choice;
  return *this;
}

ScenarioSet& ScenarioSet::max_time(double horizon) {
  rendezvous_.base.max_time = horizon;
  return *this;
}

ScenarioSet& ScenarioSet::horizon(
    std::function<double(const rendezvous::Scenario&)> horizon_fn) {
  rendezvous_.horizon = std::move(horizon_fn);
  return *this;
}

ScenarioSet& ScenarioSet::filter(
    std::function<bool(const rendezvous::Scenario&)> keep_fn) {
  rendezvous_.keep = std::move(keep_fn);
  return *this;
}

ScenarioSet& ScenarioSet::add_search(SearchCell cell, std::string label) {
  search_.added.push_back({std::move(cell), std::move(label)});
  return *this;
}

ScenarioSet& ScenarioSet::search_base(SearchCell base_cell) {
  search_.base = std::move(base_cell);
  return *this;
}

ScenarioSet& ScenarioSet::search_distances(std::vector<double> values) {
  set_axis(search_distances_, std::move(values), search_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::search_radii(std::vector<double> values) {
  set_axis(search_radii_, std::move(values), search_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::search_programs(std::vector<SearchProgram> values) {
  set_axis(search_programs_, std::move(values), search_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::search_horizon(
    std::function<double(const SearchCell&)> fn) {
  search_.horizon = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::search_filter(
    std::function<bool(const SearchCell&)> fn) {
  search_.keep = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::add_gather(GatherCell cell, std::string label) {
  gather_.added.push_back({std::move(cell), std::move(label)});
  return *this;
}

ScenarioSet& ScenarioSet::gather_base(GatherCell base_cell) {
  gather_.base = std::move(base_cell);
  return *this;
}

ScenarioSet& ScenarioSet::gather_sizes(std::vector<int> values) {
  set_axis(gather_sizes_, std::move(values), gather_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::add_linear(LinearCell cell, std::string label) {
  linear_.added.push_back({std::move(cell), std::move(label)});
  return *this;
}

ScenarioSet& ScenarioSet::linear_base(LinearCell base_cell) {
  linear_.base = std::move(base_cell);
  return *this;
}

ScenarioSet& ScenarioSet::linear_distances(std::vector<double> values) {
  set_axis(linear_distances_, std::move(values), linear_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::linear_radii(std::vector<double> values) {
  set_axis(linear_radii_, std::move(values), linear_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::linear_horizon(
    std::function<double(const LinearCell&)> fn) {
  linear_.horizon = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::add_coverage(CoverageCell cell, std::string label) {
  coverage_.added.push_back({std::move(cell), std::move(label)});
  return *this;
}

ScenarioSet& ScenarioSet::coverage_base(CoverageCell base_cell) {
  coverage_.base = std::move(base_cell);
  return *this;
}

ScenarioSet& ScenarioSet::coverage_programs(
    std::vector<SearchProgram> values) {
  set_axis(coverage_programs_, std::move(values), coverage_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::coverage_disk_radii(std::vector<double> values) {
  set_axis(coverage_disk_radii_, std::move(values), coverage_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::coverage_radii(std::vector<double> values) {
  set_axis(coverage_radii_, std::move(values), coverage_.has_grid);
  return *this;
}

ScenarioSet& ScenarioSet::coverage_horizon(
    std::function<double(const CoverageCell&)> fn) {
  coverage_.horizon = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::coverage_label(
    std::function<std::string(const CoverageCell&)> fn) {
  coverage_.label = std::move(fn);
  return *this;
}

template <class Cell, class Grid>
void ScenarioSet::emit(const Block<Cell>& block, const Grid& grid,
                       std::vector<WorkItem>& out) {
  using S = Slots<Cell>;
  auto emit_cell = [&](Cell cell, std::string label) {
    // Filter first: horizon rules (e.g. theorem bounds) need not be
    // well defined on dropped cells such as infeasible corners.
    if (block.keep && !block.keep(cell)) return;
    if constexpr (S::kHorizon != nullptr) {
      if (block.horizon) cell.*S::kHorizon = block.horizon(cell);
    }
    if (label.empty() && block.label) label = block.label(cell);
    WorkItem item;
    item.family = S::kFamily;
    item.label = std::move(label);
    item.*S::kItemCell = std::move(cell);
    out.push_back(std::move(item));
  };
  for (const auto& added : block.added) emit_cell(added.cell, added.label);
  if (block.has_grid) {
    grid([&](Cell cell) { emit_cell(std::move(cell), ""); });
  }
}

Family ScenarioSet::single_family() const {
  // Indexed by `Family`, in its declaration order.
  const bool declares[] = {
      rendezvous_.declares(), search_.declares(), gather_.declares(),
      linear_.declares(), coverage_.declares()};
  std::optional<Family> found;
  for (std::size_t f = 0; f < std::size(declares); ++f) {
    if (!declares[f]) continue;
    if (found) {
      throw std::invalid_argument(
          std::string("set declares both ") + family_name(*found) + " and " +
          family_name(static_cast<Family>(f)) +
          " cells; emission needs a homogeneous family (one family per set)");
    }
    found = static_cast<Family>(f);
  }
  return found.value_or(Family::kRendezvous);
}

std::vector<WorkItem> ScenarioSet::materialize_work() const {
  std::vector<WorkItem> out;

  // Only the grid loops are per family: each family has its own axes.
  emit(rendezvous_, [&](const auto& next) {
    const rendezvous::Scenario& base = rendezvous_.base;
    const std::vector<double> vs = or_base(speeds_, base.attrs.speed);
    const std::vector<double> taus =
        or_base(time_units_, base.attrs.time_unit);
    const std::vector<double> phis =
        or_base(orientations_, base.attrs.orientation);
    const std::vector<int> chis = or_base(chiralities_, base.attrs.chirality);
    const std::vector<geom::Vec2> offs = or_base(offsets_, base.offset);
    for (const double v : vs) {
      for (const double tau : taus) {
        for (const double phi : phis) {
          for (const int chi : chis) {
            for (const geom::Vec2& off : offs) {
              rendezvous::Scenario s = base;
              s.attrs.speed = v;
              s.attrs.time_unit = tau;
              s.attrs.orientation = phi;
              s.attrs.chirality = chi;
              s.offset = off;
              next(std::move(s));
            }
          }
        }
      }
    }
  }, out);

  emit(search_, [&](const auto& next) {
    const SearchCell& base = search_.base;
    const std::vector<double> ds = or_base(search_distances_, base.distance);
    const std::vector<double> rs = or_base(search_radii_, base.visibility);
    const std::vector<SearchProgram> progs =
        or_base(search_programs_, base.program);
    for (const double d : ds) {
      for (const double r : rs) {
        for (const SearchProgram prog : progs) {
          SearchCell cell = base;
          cell.distance = d;
          cell.visibility = r;
          cell.program = prog;
          next(std::move(cell));
        }
      }
    }
  }, out);

  emit(gather_, [&](const auto& next) {
    for (const int n : gather_sizes_) {
      if (n < 2) {
        throw std::invalid_argument("ScenarioSet: gather size must be >= 2");
      }
      GatherCell cell = gather_.base;
      cell.fleet.assign(static_cast<std::size_t>(n),
                        geom::reference_attributes());
      next(std::move(cell));
    }
  }, out);

  emit(linear_, [&](const auto& next) {
    const LinearCell& base = linear_.base;
    const std::vector<double> ds = or_base(linear_distances_, base.target);
    const std::vector<double> rs = or_base(linear_radii_, base.visibility);
    for (const double d : ds) {
      for (const double r : rs) {
        LinearCell cell = base;
        cell.target = d;
        cell.visibility = r;
        next(std::move(cell));
      }
    }
  }, out);

  emit(coverage_, [&](const auto& next) {
    const CoverageCell& base = coverage_.base;
    const std::vector<SearchProgram> progs =
        or_base(coverage_programs_, base.program);
    const std::vector<double> radii =
        or_base(coverage_disk_radii_, base.disk_radius);
    const std::vector<double> rs = or_base(coverage_radii_, base.visibility);
    for (const SearchProgram prog : progs) {
      for (const double radius : radii) {
        for (const double r : rs) {
          CoverageCell cell = base;
          cell.program = prog;
          cell.disk_radius = radius;
          cell.visibility = r;
          next(std::move(cell));
        }
      }
    }
  }, out);

  return out;
}

}  // namespace rv::engine
