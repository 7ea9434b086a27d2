#pragma once

/// \file rng.hpp
/// Deterministic, fast pseudo-random generation (xoshiro256++) for
/// property-based tests and workload generators.  We implement our own
/// generator so that test workloads are reproducible across standard
/// libraries (std::mt19937 distributions are not portable across
/// implementations).

#include <array>
#include <cstdint>

namespace rv::mathx {

/// xoshiro256++ by Blackman & Vigna (public domain algorithm),
/// re-implemented from the published reference description.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state from a single 64-bit value via splitmix64 so that
  /// nearby seeds give unrelated streams.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next 64 random bits.
  result_type operator()();

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Uniform double in [0, 1) with 53-bit resolution.
  [[nodiscard]] double uniform01();

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive), unbiased via rejection.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace rv::mathx
