#include "mathx/rng.hpp"

#include <stdexcept>

namespace rv::mathx {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // A state of all zeros is invalid for xoshiro; splitmix64 cannot
  // produce four consecutive zeros, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Xoshiro256::uniform01() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Xoshiro256::uniform(double lo, double hi) {
  if (!(lo < hi)) throw std::invalid_argument("uniform: lo must be < hi");
  return lo + (hi - lo) * uniform01();
}

std::int64_t Xoshiro256::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo must be <= hi");
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  const std::uint64_t limit = (~0ULL) - (~0ULL) % range;
  std::uint64_t v;
  do {
    v = (*this)();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % range);
}

}  // namespace rv::mathx
