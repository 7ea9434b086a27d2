#include "mathx/lambert_w.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace rv::mathx {
namespace {

/// One Halley iteration for f(w) = w·eʷ − x.
double halley_step(double w, double x) {
  const double ew = std::exp(w);
  const double f = w * ew - x;
  const double wp1 = w + 1.0;
  const double denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1);
  return w - f / denom;
}

double refine(double w, double x) {
  for (int i = 0; i < 64; ++i) {
    const double next = halley_step(w, x);
    if (!std::isfinite(next)) break;
    if (std::abs(next - w) <= 1e-16 * (1.0 + std::abs(next))) {
      return next;
    }
    w = next;
  }
  return w;
}

}  // namespace

double lambert_w0(double x) {
  constexpr double kMinusInvE = -0.36787944117144233;  // −1/e
  if (x < kMinusInvE) {
    throw std::domain_error("lambert_w0: argument below -1/e");
  }
  if (x == 0.0) return 0.0;

  // Seed selection.
  double w;
  if (x < -0.25) {
    // Branch-point expansion: W ≈ −1 + p − p²/3, p = sqrt(2(e·x + 1)).
    const double p = std::sqrt(2.0 * (std::exp(1.0) * x + 1.0));
    w = -1.0 + p - p * p / 3.0;
  } else if (x < 3.0) {
    // Rational seed, exact at 0 and within ~12% on (−1/4, 3); Halley
    // contracts cubically from here.
    w = x / (1.0 + x);
  } else {
    // Asymptotic seed for large x (log x > 1 here).
    const double l1 = std::log(x);
    const double l2 = std::log(l1);
    w = l1 - l2 + l2 / l1;
  }
  return refine(w, x);
}

}  // namespace rv::mathx
