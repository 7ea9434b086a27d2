#include "analysis/bounds.hpp"

#include <cmath>
#include <stdexcept>

#include "geom/angle.hpp"
#include "geom/difference_map.hpp"
#include "mathx/binary.hpp"
#include "mathx/lambert_w.hpp"
#include "rendezvous/feasibility.hpp"
#include "rendezvous/schedule.hpp"
#include "search/times.hpp"

namespace rv::analysis {

using geom::RobotAttributes;

double theorem2_bound_common_chirality(double d, double r, double v,
                                       double phi) {
  const double m = geom::mu(v, phi);
  if (m <= 0.0) {
    throw std::invalid_argument(
        "theorem2_bound_common_chirality: mu = 0 (infeasible tuple)");
  }
  return search::theorem1_bound(d / m, r / m);
}

double theorem2_bound(const RobotAttributes& attrs, double d, double r) {
  if (attrs.time_unit != 1.0) {
    throw std::invalid_argument("theorem2_bound: requires tau = 1");
  }
  if (!rendezvous::rendezvous_feasible(attrs)) {
    throw std::invalid_argument("theorem2_bound: infeasible attribute tuple");
  }
  if (attrs.chirality == 1) {
    return theorem2_bound_common_chirality(d, r, attrs.speed,
                                           attrs.orientation);
  }
  // χ = −1: the worst-case direction gain is |1 − v| — the smallest
  // singular value of T∘ is |det T∘|/‖T∘‖ ≥ |1 − v²|/(1 + v).  This
  // covers v > 1 as well (the paper normalises to v < 1).
  const double gain = std::abs(1.0 - attrs.speed);
  return search::theorem1_bound(d / gain, r / gain);
}

double theorem2_guaranteed_time(const RobotAttributes& attrs, double d,
                                double r) {
  if (attrs.time_unit != 1.0) {
    throw std::invalid_argument("theorem2_guaranteed_time: requires tau = 1");
  }
  if (!rendezvous::rendezvous_feasible(attrs)) {
    throw std::invalid_argument(
        "theorem2_guaranteed_time: infeasible attribute tuple");
  }
  double gain;
  if (attrs.chirality == 1) {
    gain = geom::mu(attrs.speed, attrs.orientation);
  } else {
    gain = std::abs(1.0 - attrs.speed);  // σ_min(T∘) lower bound
  }
  const int k = search::guaranteed_round(d / gain, r / gain);
  return search::time_first_rounds(k);
}

double theorem3_bound(double tau, double d, double r) {
  if (!(tau > 0.0) || tau == 1.0) {
    throw std::invalid_argument("theorem3_bound: need tau in (0,1) or (1,inf)");
  }
  if (tau > 1.0) tau = 1.0 / tau;  // analyse from the slower-clock robot
  const int n = search::guaranteed_round(d, r);
  return rendezvous::rendezvous_time_bound(tau, n);
}

int lemma12_exact_round_bound(double tau, int n) {
  if (!(tau > 0.0) || !(tau < 1.0)) {
    throw std::invalid_argument("lemma12_exact_round_bound: need tau in (0,1)");
  }
  if (n < 1) {
    throw std::invalid_argument("lemma12_exact_round_bound: need n >= 1");
  }
  const auto dec = rv::mathx::dyadic_decompose(tau);
  const double t = dec.t;
  if (!(t > 2.0 / 3.0)) {
    throw std::invalid_argument(
        "lemma12_exact_round_bound: Lemma 12 applies for t in (2/3, 1); use "
        "rendezvous_round_bound for t <= 2/3");
  }
  const double a = static_cast<double>(dec.a);
  const double one_minus = 1.0 - t;
  const double ln2 = std::log(2.0);
  // W argument: ln2·n/(4(1−γ)) · 2ⁿ · (2^{1/(1−γ)})^{−(a−2)γ−2}, γ = t.
  // Evaluate in log space — 2ⁿ·2^{(−(a−2)t−2)/(1−t)} can overflow.
  const double log_arg = std::log(ln2 * static_cast<double>(n) /
                                  (4.0 * one_minus)) +
                         ln2 * (static_cast<double>(n) +
                                (-(a - 2.0) * t - 2.0) / one_minus);
  double w;
  if (log_arg > 700.0) {
    // Beyond double range for the argument itself: use the asymptotic
    // W(e^y) ≈ y − ln y, accurate to O(ln y / y) here.
    w = log_arg - std::log(log_arg);
  } else {
    w = rv::mathx::lambert_w0(std::exp(log_arg));
  }
  const double k = 2.0 + a * t / one_minus + w / ln2;
  // The bound must also satisfy the lemma's precondition k >= k0.
  const double k0 = (a + 1.0) * t / one_minus;
  return static_cast<int>(std::ceil(std::max(k, k0) - 1e-9));
}

RobotAttributes normalized_viewpoint(const RobotAttributes& attrs) {
  RobotAttributes a = geom::validated(attrs);
  if (a.time_unit <= 1.0) return a;
  RobotAttributes flipped;
  flipped.speed = 1.0 / a.speed;
  flipped.time_unit = 1.0 / a.time_unit;
  flipped.chirality = a.chirality;
  flipped.orientation = geom::normalize_angle(
      -static_cast<double>(a.chirality) * a.orientation);
  return flipped;
}

}  // namespace rv::analysis
