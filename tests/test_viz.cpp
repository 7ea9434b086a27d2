// Tests for the visualisation module: SVG document structure,
// trajectory plots, Gantt charts, ASCII charts.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "mathx/constants.hpp"
#include "search/paths.hpp"
#include "viz/ascii.hpp"
#include "viz/chart.hpp"
#include "viz/gantt.hpp"
#include "viz/plot.hpp"
#include "viz/svg.hpp"

namespace {

using namespace rv::viz;
using rv::geom::Vec2;

// ---------------------------------------------------------------------------
// SvgCanvas
// ---------------------------------------------------------------------------

TEST(Svg, WorldToViewportTransform) {
  SvgCanvas canvas({-1.0, -1.0}, {1.0, 1.0}, 200.0);
  EXPECT_DOUBLE_EQ(canvas.width_px(), 200.0);
  EXPECT_DOUBLE_EQ(canvas.height_px(), 200.0);
  // World origin maps to the viewport centre; y is flipped.
  const Vec2 centre = canvas.to_px({0.0, 0.0});
  EXPECT_DOUBLE_EQ(centre.x, 100.0);
  EXPECT_DOUBLE_EQ(centre.y, 100.0);
  const Vec2 top = canvas.to_px({0.0, 1.0});
  EXPECT_DOUBLE_EQ(top.y, 0.0);
}

TEST(Svg, DocumentContainsElements) {
  SvgCanvas canvas({0.0, 0.0}, {10.0, 10.0});
  Style st;
  canvas.line({0.0, 0.0}, {5.0, 5.0}, st);
  canvas.circle({5.0, 5.0}, 2.0, st);
  canvas.polyline({{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}}, st);
  canvas.marker({3.0, 3.0}, "#ff0000");
  canvas.text({1.0, 9.0}, "hello <world> & \"quotes\"");
  canvas.rect({1.0, 1.0}, {2.0, 2.0}, st);
  const std::string svg = canvas.to_string();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<line"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  // XML escaping.
  EXPECT_NE(svg.find("hello &lt;world&gt; &amp; &quot;quotes&quot;"),
            std::string::npos);
  EXPECT_EQ(svg.find("<world>"), std::string::npos);
}

TEST(Svg, DegenerateWindowThrows) {
  EXPECT_THROW(SvgCanvas({0.0, 0.0}, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(SvgCanvas({0.0, 0.0}, {1.0, 1.0}, 0.0), std::invalid_argument);
}

TEST(Svg, SaveWritesFile) {
  SvgCanvas canvas({0.0, 0.0}, {1.0, 1.0});
  canvas.marker({0.5, 0.5}, "#000000");
  const std::string path = "/tmp/rv_test_svg_output.svg";
  canvas.save(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("<svg"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Svg, PolylineWithOnePointIsSkipped) {
  SvgCanvas canvas({0.0, 0.0}, {1.0, 1.0});
  canvas.polyline({{0.5, 0.5}}, Style{});
  EXPECT_EQ(canvas.to_string().find("<polyline"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Plot helpers
// ---------------------------------------------------------------------------

TEST(Plot, TrajectoriesProduceSquareWindow) {
  TrajectorySeries s;
  s.points = {{0.0, 0.0}, {4.0, 1.0}};
  s.label = "walk";
  const SvgCanvas canvas = plot_trajectories({s});
  // Square aspect: width = height.
  EXPECT_DOUBLE_EQ(canvas.width_px(), canvas.height_px());
  EXPECT_NE(canvas.to_string().find("walk"), std::string::npos);
}

TEST(Plot, SeriesFromPathFlattens) {
  const auto path = rv::search::search_circle_path(1.0);
  const TrajectorySeries s = series_from_path(path, "#123456", "circle");
  EXPECT_GE(s.points.size(), 10u);
  EXPECT_EQ(s.color, "#123456");
}

TEST(Plot, EmptySeriesThrows) {
  EXPECT_THROW((void)plot_trajectories({}), std::invalid_argument);
}

TEST(Plot, SearchAnnuliDrawsCircles) {
  SvgCanvas canvas({-3.0, -3.0}, {3.0, 3.0});
  draw_search_annuli(canvas, 2);
  const std::string svg = canvas.to_string();
  // k = 2 draws 2k = 4 annuli → 8 circle elements.
  std::size_t count = 0;
  for (std::size_t pos = svg.find("<circle"); pos != std::string::npos;
       pos = svg.find("<circle", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 8u);
  EXPECT_THROW(draw_search_annuli(canvas, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Gantt charts
// ---------------------------------------------------------------------------

TEST(Gantt, RendersRowsAndHighlights) {
  GanttRow r1{"R", {{1.0, 10.0, PhaseKind::kInactive, 1},
                    {10.0, 100.0, PhaseKind::kActive, 1}}};
  GanttRow r2{"R'", {{1.0, 5.0, PhaseKind::kInactive, 1},
                     {5.0, 50.0, PhaseKind::kActive, 1}}};
  HighlightWindow w{10.0, 50.0, "#d62728", "overlap"};
  const SvgCanvas canvas = render_gantt({r1, r2}, {w});
  const std::string svg = canvas.to_string();
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("overlap"), std::string::npos);
  EXPECT_NE(svg.find("R&#39;") != std::string::npos ||
                svg.find("R'") != std::string::npos,
            false);
}

TEST(Gantt, ValidationErrors) {
  EXPECT_THROW((void)render_gantt({}, {}), std::invalid_argument);
  GanttRow bad{"x", {{5.0, 1.0, PhaseKind::kActive, 1}}};
  EXPECT_THROW((void)render_gantt({bad}, {}), std::invalid_argument);
  GanttRow empty{"x", {}};
  EXPECT_THROW((void)render_gantt({empty}, {}), std::invalid_argument);
}

TEST(Gantt, LinearTimeAxis) {
  GanttRow row{"R", {{0.0, 1.0, PhaseKind::kInactive, 1},
                     {1.0, 2.0, PhaseKind::kActive, 1}}};
  GanttOptions opts;
  opts.log_time = false;
  const SvgCanvas canvas = render_gantt({row}, {}, opts);
  EXPECT_NE(canvas.to_string().find("<rect"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SVG data charts
// ---------------------------------------------------------------------------

TEST(Chart, RendersSeriesWithLegendAndTicks) {
  ChartSeries s;
  s.x = {1.0, 2.0, 3.0, 4.0};
  s.y = {1.0, 4.0, 9.0, 16.0};
  s.label = "squares";
  ChartOptions opts;
  opts.title = "squares vs x";
  opts.x_label = "x";
  opts.y_label = "y";
  const SvgCanvas canvas = render_chart({s}, opts);
  const std::string svg = canvas.to_string();
  EXPECT_NE(svg.find("squares"), std::string::npos);
  EXPECT_NE(svg.find("squares vs x"), std::string::npos);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);  // connecting line
}

TEST(Chart, LogAxesSkipNonPositivePoints) {
  ChartSeries s;
  s.x = {0.0, 1.0, 10.0, 100.0};
  s.y = {-1.0, 1.0, 10.0, 100.0};
  ChartOptions opts;
  opts.log_x = true;
  opts.log_y = true;
  EXPECT_NO_THROW((void)render_chart({s}, opts));
  ChartSeries empty;
  empty.x = {0.0};
  empty.y = {1.0};
  EXPECT_THROW((void)render_chart({empty}, opts), std::invalid_argument);
}

TEST(Chart, MismatchedSeriesThrow) {
  ChartSeries s;
  s.x = {1.0, 2.0};
  s.y = {1.0};
  EXPECT_THROW((void)render_chart({s}), std::invalid_argument);
}

TEST(Chart, SinglePointSeriesStillRenders) {
  ChartSeries s;
  s.x = {5.0};
  s.y = {3.0};
  s.draw_line = true;  // degenerates to a marker
  const SvgCanvas canvas = render_chart({s});
  EXPECT_NE(canvas.to_string().find("<g stroke"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ASCII charts
// ---------------------------------------------------------------------------

TEST(Ascii, ScatterPlacesGlyphs) {
  AsciiSeries s;
  s.x = {1.0, 2.0, 3.0};
  s.y = {1.0, 4.0, 9.0};
  s.glyph = '*';
  s.label = "squares";
  const std::string plot = ascii_scatter({s}, 10, 30);
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find("squares"), std::string::npos);
}

TEST(Ascii, ScatterLogAxesSkipNonPositive) {
  AsciiSeries s;
  s.x = {0.0, 1.0, 10.0};  // 0 not drawable on log axis
  s.y = {1.0, 2.0, 3.0};
  EXPECT_NO_THROW((void)ascii_scatter({s}, 10, 30, true, false));
  AsciiSeries bad;
  bad.x = {0.0};
  bad.y = {1.0};
  EXPECT_THROW((void)ascii_scatter({bad}, 10, 30, true, false),
               std::invalid_argument);
}

TEST(Ascii, ScatterSizeMismatchThrows) {
  AsciiSeries s;
  s.x = {1.0};
  s.y = {1.0, 2.0};
  EXPECT_THROW((void)ascii_scatter({s}, 10, 30), std::invalid_argument);
  EXPECT_THROW((void)ascii_scatter({}, 1, 30), std::invalid_argument);
}

}  // namespace
