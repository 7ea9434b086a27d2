#include "traj/path.hpp"

#include <stdexcept>

namespace rv::traj {

using geom::Vec2;

Path::Path(Vec2 start) : start_(start), end_(start) {}

Path& Path::append(Segment seg, double tol) {
  validate(seg);
  const Vec2 sp = traj::start_point(seg);
  if (!geom::approx_equal(sp, end_, tol)) {
    throw std::invalid_argument("Path::append: segment does not start at path end");
  }
  total_ += traj::duration(seg);
  end_ = traj::end_point(seg);
  segments_.push_back(std::move(seg));
  return *this;
}

Path& Path::line_to(const Vec2& target) {
  return append(LineSeg{end_, target});
}

Path& Path::arc_around(const Vec2& center, double sweep, double tol) {
  const Vec2 rel = end_ - center;
  const double radius = geom::norm(rel);
  if (radius <= tol) {
    throw std::invalid_argument("Path::arc_around: end point is at the centre");
  }
  const double a0 = geom::angle_of(rel);
  (void)tol;
  return append(ArcSeg{center, radius, a0, sweep});
}

Path& Path::wait(double dur) { return append(WaitSeg{end_, dur}); }

Path& Path::extend(const Path& other, double tol) {
  for (const Segment& seg : other.segments_) append(seg, tol);
  return *this;
}

}  // namespace rv::traj
