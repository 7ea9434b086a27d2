#pragma once

/// \file sampler.hpp
/// Discretisation of trajectories into polylines for visualisation.

#include <vector>

#include "traj/path.hpp"
#include "traj/segment.hpp"

namespace rv::traj {

/// Flattens one segment into a polyline whose chordal deviation from
/// the true curve is at most `max_error` (arcs are subdivided; lines and
/// waits yield their endpoints).
[[nodiscard]] std::vector<geom::Vec2> flatten_segment(const Segment& seg,
                                                      double max_error);

/// Flattens a whole path into a single polyline (shared junction points
/// deduplicated).
[[nodiscard]] std::vector<geom::Vec2> flatten_path(const Path& path,
                                                   double max_error);

}  // namespace rv::traj
