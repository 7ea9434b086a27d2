#include "mathx/binary.hpp"

#include <cmath>
#include <stdexcept>

namespace rv::mathx {

bool is_power_of_two(double x) {
  if (!(x > 0.0) || !std::isfinite(x)) return false;
  int exp = 0;
  const double mant = std::frexp(x, &exp);  // x = mant·2^exp, mant ∈ [0.5, 1)
  return mant == 0.5;
}

int floor_log2(double x) {
  if (!(x > 0.0) || !std::isfinite(x)) {
    throw std::invalid_argument("floor_log2: need finite x > 0");
  }
  int exp = 0;
  const double mant = std::frexp(x, &exp);
  // x = mant·2^exp with mant ∈ [0.5, 1): floor(log2 x) = exp−1.
  (void)mant;
  return exp - 1;
}

int ceil_log2(double x) {
  const int fl = floor_log2(x);
  return is_power_of_two(x) ? fl : fl + 1;
}

double pow2(int e) { return std::ldexp(1.0, e); }

DyadicDecomposition dyadic_decompose(double tau) {
  if (!(tau > 0.0) || !(tau < 1.0)) {
    throw std::invalid_argument("dyadic_decompose: need 0 < tau < 1");
  }
  // −log2(τ) > 0.  For τ a power of two, a = ⌊−log τ⌋ − 1 and t = 1/2.
  if (is_power_of_two(tau)) {
    const int neg_log = -floor_log2(tau);  // exact
    return {0.5, neg_log - 1};
  }
  const int a = floor_log2(1.0 / tau);  // ⌊−log₂ τ⌋ for non-powers of two
  return {tau * pow2(a), a};
}

}  // namespace rv::mathx
