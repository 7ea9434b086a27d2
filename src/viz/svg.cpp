#include "viz/svg.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rv::viz {

using geom::Vec2;

namespace {
std::string xml_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string style_attrs(const Style& st) {
  std::ostringstream os;
  os << "stroke=\"" << st.stroke << "\" stroke-width=\"" << st.stroke_width
     << "\" fill=\"" << st.fill << "\" opacity=\"" << st.opacity << "\"";
  if (!st.dash.empty()) os << " stroke-dasharray=\"" << st.dash << "\"";
  return os.str();
}
}  // namespace

SvgCanvas::SvgCanvas(Vec2 world_lo, Vec2 world_hi, double width_px)
    : lo_(world_lo), hi_(world_hi), width_px_(width_px) {
  const double w = hi_.x - lo_.x;
  const double h = hi_.y - lo_.y;
  if (!(w > 0.0) || !(h > 0.0) || !(width_px > 0.0)) {
    throw std::invalid_argument("SvgCanvas: degenerate world window");
  }
  scale_ = width_px_ / w;
  height_px_ = h * scale_;
}

Vec2 SvgCanvas::to_px(const Vec2& world) const {
  return {(world.x - lo_.x) * scale_, (hi_.y - world.y) * scale_};
}

void SvgCanvas::polyline(const std::vector<Vec2>& pts, const Style& style) {
  if (pts.size() < 2) return;
  std::ostringstream os;
  os << "<polyline points=\"";
  for (const Vec2& p : pts) {
    const Vec2 q = to_px(p);
    os << q.x << ',' << q.y << ' ';
  }
  os << "\" " << style_attrs(style) << "/>";
  elements_.push_back(os.str());
}

void SvgCanvas::line(const Vec2& a, const Vec2& b, const Style& style) {
  const Vec2 pa = to_px(a);
  const Vec2 pb = to_px(b);
  std::ostringstream os;
  os << "<line x1=\"" << pa.x << "\" y1=\"" << pa.y << "\" x2=\"" << pb.x
     << "\" y2=\"" << pb.y << "\" " << style_attrs(style) << "/>";
  elements_.push_back(os.str());
}

void SvgCanvas::circle(const Vec2& center, double r, const Style& style) {
  const Vec2 c = to_px(center);
  std::ostringstream os;
  os << "<circle cx=\"" << c.x << "\" cy=\"" << c.y << "\" r=\"" << r * scale_
     << "\" " << style_attrs(style) << "/>";
  elements_.push_back(os.str());
}

void SvgCanvas::marker(const Vec2& at, const std::string& color,
                       double size_px) {
  const Vec2 p = to_px(at);
  std::ostringstream os;
  os << "<g stroke=\"" << color << "\" stroke-width=\"1.5\">"
     << "<line x1=\"" << p.x - size_px << "\" y1=\"" << p.y << "\" x2=\""
     << p.x + size_px << "\" y2=\"" << p.y << "\"/>"
     << "<line x1=\"" << p.x << "\" y1=\"" << p.y - size_px << "\" x2=\""
     << p.x << "\" y2=\"" << p.y + size_px << "\"/></g>";
  elements_.push_back(os.str());
}

void SvgCanvas::text(const Vec2& at, const std::string& content,
                     double font_px, const std::string& color) {
  const Vec2 p = to_px(at);
  std::ostringstream os;
  os << "<text x=\"" << p.x << "\" y=\"" << p.y << "\" font-size=\"" << font_px
     << "\" fill=\"" << color << "\" font-family=\"monospace\">"
     << xml_escape(content) << "</text>";
  elements_.push_back(os.str());
}

void SvgCanvas::rect(const Vec2& lo, const Vec2& hi, const Style& style) {
  const Vec2 p = to_px({lo.x, hi.y});  // top-left in pixel space
  const Vec2 q = to_px({hi.x, lo.y});  // bottom-right
  std::ostringstream os;
  os << "<rect x=\"" << p.x << "\" y=\"" << p.y << "\" width=\"" << q.x - p.x
     << "\" height=\"" << q.y - p.y << "\" " << style_attrs(style) << "/>";
  elements_.push_back(os.str());
}

std::string SvgCanvas::to_string() const {
  std::ostringstream os;
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
     << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width_px_
     << "\" height=\"" << height_px_ << "\" viewBox=\"0 0 " << width_px_ << ' '
     << height_px_ << "\">\n";
  os << "<rect x=\"0\" y=\"0\" width=\"" << width_px_ << "\" height=\""
     << height_px_ << "\" fill=\"#ffffff\"/>\n";
  for (const std::string& el : elements_) os << el << '\n';
  os << "</svg>\n";
  return os.str();
}

void SvgCanvas::save(const std::string& filename) const {
  std::ofstream out(filename);
  if (!out) throw std::runtime_error("SvgCanvas::save: cannot open " + filename);
  out << to_string();
  if (!out) throw std::runtime_error("SvgCanvas::save: write failed");
}

}  // namespace rv::viz
