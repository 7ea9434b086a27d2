#pragma once

/// \file binary.hpp
/// Dyadic helpers for the paper's algebra.
///
/// Lemma 13 parameterises the clock ratio as τ = t·2⁻ᵃ with an integer
/// a ≥ 0 and real t ∈ [1/2, 1): "we may always write τ uniquely as
/// t·2⁻ᵃ by taking a = ⌊−log τ⌋ − 1 and t = 1/2 if τ is a power of two,
/// and otherwise taking a = ⌊−log τ⌋ and t = τ·2ᵃ".

#include <cstdint>

namespace rv::mathx {

/// The dyadic decomposition τ = t · 2⁻ᵃ of Lemma 13.
struct DyadicDecomposition {
  double t = 0.5;  ///< mantissa in [1/2, 1)
  int a = 0;       ///< non-negative dyadic exponent

  bool operator==(const DyadicDecomposition&) const = default;
};

/// Decomposes τ ∈ (0, 1) per Lemma 13.
/// \throws std::invalid_argument unless 0 < τ < 1.
[[nodiscard]] DyadicDecomposition dyadic_decompose(double tau);

/// True iff x is an exact (positive) power of two, including negative
/// exponents: 0.25, 0.5, 1, 2, ...
[[nodiscard]] bool is_power_of_two(double x);

/// ⌊log₂ x⌋ for x > 0, computed exactly from the floating-point
/// representation (no rounding issues near powers of two).
[[nodiscard]] int floor_log2(double x);

/// ⌈log₂ x⌉ for x > 0.
[[nodiscard]] int ceil_log2(double x);

/// Exact powers of two as doubles: 2^e for |e| within double range.
[[nodiscard]] double pow2(int e);

}  // namespace rv::mathx
