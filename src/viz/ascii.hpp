#pragma once

/// \file ascii.hpp
/// Console-friendly charts: scatter plots on a character grid.  Used by
/// bench binaries so results are readable in the terminal without
/// opening the SVG artifacts.

#include <string>
#include <vector>

namespace rv::viz {

/// Renders an (x, y) scatter on a rows×cols grid with log-log option.
/// Multiple series are drawn with distinct glyphs ('*', '+', 'o', ...).
struct AsciiSeries {
  std::vector<double> x;
  std::vector<double> y;
  char glyph = '*';
  std::string label;
};

[[nodiscard]] std::string ascii_scatter(const std::vector<AsciiSeries>& series,
                                        int rows = 20, int cols = 72,
                                        bool log_x = false, bool log_y = false);

}  // namespace rv::viz
