#include "support/roots.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace rv::mathx {

namespace {
// Failed brackets name the offending endpoints: a bare "does not
// bracket" from deep inside a sweep is undebuggable, while the actual
// (a, f(a)), (b, f(b)) pair immediately shows whether the caller
// picked a bad window or the function is misbehaving (NaN).
void check_bracket(double a, double b, double fa, double fb) {
  if (std::isnan(fa) || std::isnan(fb)) {
    std::ostringstream msg;
    msg << "root finder: NaN at bracket endpoint: f(" << a << ") = " << fa
        << ", f(" << b << ") = " << fb;
    throw std::invalid_argument(msg.str());
  }
  if (fa * fb > 0.0) {
    std::ostringstream msg;
    msg << "root finder: endpoints do not bracket a root: f(" << a
        << ") = " << fa << ", f(" << b << ") = " << fb;
    throw std::invalid_argument(msg.str());
  }
}
}  // namespace

RootResult brent(const std::function<double(double)>& f, double a, double b,
                 const RootOptions& opts) {
  double fa = f(a);
  double fb = f(b);
  check_bracket(a, b, fa, fb);
  if (fa == 0.0) return {a, 0.0, 0};
  if (fb == 0.0) return {b, 0.0, 0};

  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a, fc = fa;
  bool mflag = true;
  double d = 0.0;

  int it = 0;
  for (; it < opts.max_iterations; ++it) {
    if (fb == 0.0 || std::abs(b - a) < opts.x_tol) break;
    double s;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // Secant.
      s = b - fb * (b - a) / (fb - fa);
    }

    const double lo = (3.0 * a + b) / 4.0;
    const bool out_of_range = (s < std::min(lo, b) || s > std::max(lo, b));
    const bool slow_bisect =
        (mflag && std::abs(s - b) >= std::abs(b - c) / 2.0) ||
        (!mflag && std::abs(s - b) >= std::abs(c - d) / 2.0) ||
        (mflag && std::abs(b - c) < opts.x_tol) ||
        (!mflag && std::abs(c - d) < opts.x_tol);
    if (out_of_range || slow_bisect) {
      s = (a + b) / 2.0;
      mflag = true;
    } else {
      mflag = false;
    }

    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if (fa * fs < 0.0) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  return {b, std::abs(fb), it};
}

RootResult bisect(const std::function<double(double)>& f, double a, double b,
                  const RootOptions& opts) {
  double fa = f(a);
  double fb = f(b);
  check_bracket(a, b, fa, fb);
  if (fa == 0.0) return {a, 0.0, 0};
  if (fb == 0.0) return {b, 0.0, 0};
  int it = 0;
  for (; it < opts.max_iterations && (b - a) > opts.x_tol; ++it) {
    const double m = 0.5 * (a + b);
    const double fm = f(m);
    if (fm == 0.0) return {m, 0.0, it};
    if (fa * fm < 0.0) {
      b = m;
      fb = fm;
    } else {
      a = m;
      fa = fm;
    }
  }
  const double m = 0.5 * (a + b);
  return {m, std::abs(f(m)), it};
}

std::optional<RootResult> first_crossing(
    const std::function<double(double)>& f, double a, double b, int steps,
    const RootOptions& opts) {
  if (steps < 1) throw std::invalid_argument("first_crossing: steps < 1");
  const double h = (b - a) / steps;
  double x0 = a;
  double f0 = f(x0);
  if (f0 == 0.0) return RootResult{x0, 0.0, 0};
  for (int i = 1; i <= steps; ++i) {
    const double x1 = (i == steps) ? b : a + i * h;
    const double f1 = f(x1);
    if (f0 * f1 <= 0.0) {
      return brent(f, x0, x1, opts);
    }
    x0 = x1;
    f0 = f1;
  }
  return std::nullopt;
}

}  // namespace rv::mathx
