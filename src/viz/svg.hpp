#pragma once

/// \file svg.hpp
/// A minimal SVG 1.1 document builder — enough to render trajectories,
/// annuli and schedule charts without external dependencies.  Geometry
/// is given in *world* coordinates; the document applies a single
/// world-to-viewport transform (y flipped, as SVG's y axis points
/// down).

#include <string>
#include <vector>

#include "geom/vec2.hpp"

namespace rv::viz {

/// Style attributes shared by all primitives.
struct Style {
  std::string stroke = "#000000";
  double stroke_width = 1.0;   ///< in viewport pixels (not world units)
  std::string fill = "none";
  double opacity = 1.0;
  std::string dash;            ///< e.g. "4 2"; empty = solid
};

/// Builds one SVG document mapping a world-coordinate window onto a
/// pixel viewport.
class SvgCanvas {
 public:
  /// `world_lo`/`world_hi` define the visible world rectangle; the
  /// viewport is `width_px` wide with height derived from the aspect
  /// ratio.
  SvgCanvas(geom::Vec2 world_lo, geom::Vec2 world_hi, double width_px = 800.0);

  /// Polyline through world points.
  void polyline(const std::vector<geom::Vec2>& pts, const Style& style);
  /// Line segment.
  void line(const geom::Vec2& a, const geom::Vec2& b, const Style& style);
  /// Circle of world radius r.
  void circle(const geom::Vec2& center, double r, const Style& style);
  /// Small position marker (viewport-size cross).
  void marker(const geom::Vec2& at, const std::string& color,
              double size_px = 5.0);
  /// Text label anchored at a world position.
  void text(const geom::Vec2& at, const std::string& content,
            double font_px = 12.0, const std::string& color = "#000000");
  /// Axis-aligned rectangle in world coordinates.
  void rect(const geom::Vec2& lo, const geom::Vec2& hi, const Style& style);

  /// Serialises the document.
  [[nodiscard]] std::string to_string() const;

  /// Writes the document to a file.  \throws std::runtime_error on I/O
  /// failure.
  void save(const std::string& filename) const;

  /// World-to-viewport transform (public for testing).
  [[nodiscard]] geom::Vec2 to_px(const geom::Vec2& world) const;

  /// Viewport size in pixels.
  [[nodiscard]] double width_px() const { return width_px_; }
  [[nodiscard]] double height_px() const { return height_px_; }

 private:
  geom::Vec2 lo_, hi_;
  double width_px_, height_px_, scale_;
  std::vector<std::string> elements_;
};

}  // namespace rv::viz
