#pragma once

/// \file rv_batch_sets.hpp
/// The built-in scenario sets of the `rv_batch` and `rv_serve`
/// front-ends, as `.rvset` text.
///
/// Each set is defined once, by its text below, and reaches the engine
/// through `engine::parse_set_decl` like any `--set-file` file or
/// inline `rv_serve` body.  The five sets (one per workload family) are
/// small, deterministic and built only from cacheable cells, so a
/// sharded run can persist every outcome and a merge can replay the
/// whole set from cache files.  `examples/sets/<name>.rvset` holds each
/// text byte for byte, for readers that take the sets from disk.
/// tests/test_golden_shard.cpp pins the files, the cache keys and the
/// outputs: treat an edit to a text as an output-breaking change.

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "engine/scenario_set.hpp"
#include "engine/set_decl.hpp"

namespace rv::batch {

/// The built-in sets' `.rvset` texts, in display order.
inline constexpr std::string_view kBuiltinSetTexts[] = {
    R"rvset(# Built-in rv_batch set: tools/rv_batch_sets.hpp embeds this text byte for byte.
name = rendezvous-grid
description = 2-robot attribute grid (v x tau x phi x chi), Algorithm 7

[rendezvous]
visibility = 0.25
max_time = 5e3
algorithm = algorithm7
speeds = 1.0 1.5
time_units = 1.0 2.0
orientations = 0.0 0.7
chiralities = 1 -1
distances = 1.0
)rvset",
    R"rvset(# Built-in rv_batch set: tools/rv_batch_sets.hpp embeds this text byte for byte.
name = search-ring
description = search (d x r x program) grid over an 8-angle target ring

[search]
angles = 8
angle_offset = 0.03
distances = 1.0 2.0
radii = 0.25 0.125
programs = algorithm4 square-spiral
horizon_rule = guaranteed-rounds+1
)rvset",
    R"rvset(# Built-in rv_batch set: tools/rv_batch_sets.hpp embeds this text byte for byte.
name = gather-fleet
description = three heterogeneous fleets on a unit origin ring

[gather.add]
label = distinct speeds
ring_radius = 1.0
visibility = 0.2
algorithm = algorithm7
contact_max_time = 1e5
gather_max_time = 2e5
robot = 1.0 1.0
robot = 1.5 1.0
robot = 2.0 1.0

[gather.add]
label = distinct clocks
ring_radius = 1.0
visibility = 0.2
algorithm = algorithm7
contact_max_time = 1e5
gather_max_time = 2e5
robot = 1.0 1.0
robot = 1.0 0.5
robot = 1.0 0.75

[gather.add]
label = mixed quartet
ring_radius = 1.0
visibility = 0.2
algorithm = algorithm7
contact_max_time = 1e5
gather_max_time = 2e5
robot = 1.0 1.0
robot = 2.0 1.0
robot = 1.0 0.5
robot = 1.5 0.75
)rvset",
    R"rvset(# Built-in rv_batch set: tools/rv_batch_sets.hpp embeds this text byte for byte.
name = linear-line
description = 1-D zigzag search depths plus one linear-rendezvous cell

[linear]
mode = zigzag-search
visibility = 1e-3
distances = 1.0 -2.0 4.0
horizon_rule = zigzag-reach+1

[linear.add]
mode = linear-rendezvous
speed = 1.5
target = 1.0
visibility = 0.05
max_time = 1e4
)rvset",
    R"rvset(# Built-in rv_batch set: tools/rv_batch_sets.hpp embeds this text byte for byte.
name = coverage-disk
description = swept-area series of the three programs against one (R, r) disk

[coverage]
disk_radius = 1.5
visibility = 0.1
cell = 0.05
checkpoints = 16
programs = algorithm4 concentric square-spiral
horizon_rule = 2x-guaranteed-rounds
)rvset",
};

/// The built-in sets, parsed once on first use, in display order.
inline const std::vector<engine::SetDecl>& builtin_sets() {
  static const std::vector<engine::SetDecl> sets = [] {
    std::vector<engine::SetDecl> parsed;
    for (const std::string_view text : kBuiltinSetTexts) {
      parsed.push_back(engine::parse_set_decl(text));
    }
    return parsed;
  }();
  return sets;
}

/// A copy of the named set.  \throws std::invalid_argument (listing
/// the valid names) when `name` is unknown.
inline engine::ScenarioSet build_builtin_set(const std::string& name) {
  for (const engine::SetDecl& decl : builtin_sets()) {
    if (name == decl.name) return decl.set;
  }
  std::string message = "unknown set '" + name + "'; available:";
  for (const engine::SetDecl& decl : builtin_sets()) {
    message += " ";
    message += decl.name;
  }
  throw std::invalid_argument(message);
}

}  // namespace rv::batch
