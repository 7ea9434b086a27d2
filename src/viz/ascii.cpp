#include "viz/ascii.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace rv::viz {

std::string ascii_scatter(const std::vector<AsciiSeries>& series, int rows,
                          int cols, bool log_x, bool log_y) {
  if (rows < 2 || cols < 2) {
    throw std::invalid_argument("ascii_scatter: grid too small");
  }
  double xmin = 1e300, xmax = -1e300, ymin = 1e300, ymax = -1e300;
  auto tx = [log_x](double v) { return log_x ? std::log10(v) : v; };
  auto ty = [log_y](double v) { return log_y ? std::log10(v) : v; };
  bool any = false;
  for (const AsciiSeries& s : series) {
    if (s.x.size() != s.y.size()) {
      throw std::invalid_argument("ascii_scatter: x/y size mismatch");
    }
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      if ((log_x && s.x[i] <= 0.0) || (log_y && s.y[i] <= 0.0)) continue;
      xmin = std::min(xmin, tx(s.x[i]));
      xmax = std::max(xmax, tx(s.x[i]));
      ymin = std::min(ymin, ty(s.y[i]));
      ymax = std::max(ymax, ty(s.y[i]));
      any = true;
    }
  }
  if (!any) throw std::invalid_argument("ascii_scatter: no drawable points");
  if (xmax <= xmin) xmax = xmin + 1.0;
  if (ymax <= ymin) ymax = ymin + 1.0;

  std::vector<std::string> grid(static_cast<std::size_t>(rows),
                                std::string(static_cast<std::size_t>(cols), ' '));
  for (const AsciiSeries& s : series) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      if ((log_x && s.x[i] <= 0.0) || (log_y && s.y[i] <= 0.0)) continue;
      const double fx = (tx(s.x[i]) - xmin) / (xmax - xmin);
      const double fy = (ty(s.y[i]) - ymin) / (ymax - ymin);
      const int col = std::clamp(static_cast<int>(fx * (cols - 1)), 0, cols - 1);
      const int row = std::clamp(static_cast<int>((1.0 - fy) * (rows - 1)), 0,
                                 rows - 1);
      grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] =
          s.glyph;
    }
  }
  std::ostringstream os;
  os << (log_y ? "log(y)" : "y") << " max=" << (log_y ? std::pow(10, ymax) : ymax)
     << '\n';
  for (const std::string& line : grid) os << '|' << line << "|\n";
  os << (log_x ? "log(x)" : "x") << " in ["
     << (log_x ? std::pow(10, xmin) : xmin) << ", "
     << (log_x ? std::pow(10, xmax) : xmax) << "]  legend:";
  for (const AsciiSeries& s : series) {
    os << "  '" << s.glyph << "'=" << s.label;
  }
  os << '\n';
  return os.str();
}

}  // namespace rv::viz
