#pragma once

/// \file mat2.hpp
/// 2×2 matrices.  The paper's analysis is entirely about 2×2 linear
/// maps: the frame map of robot R′ (Lemma 4), the difference map T∘
/// (Definition 1) and its QR factorisation (Lemma 5).

#include "geom/vec2.hpp"

namespace rv::geom {

/// A 2×2 real matrix [[a, b], [c, d]] acting on column vectors.
struct Mat2 {
  double a = 1.0, b = 0.0;  ///< first row
  double c = 0.0, d = 1.0;  ///< second row

  bool operator==(const Mat2&) const = default;
};

/// Matrix–vector product.
[[nodiscard]] constexpr Vec2 operator*(const Mat2& m, const Vec2& v) {
  return {m.a * v.x + m.b * v.y, m.c * v.x + m.d * v.y};
}

/// Matrix–matrix product.
[[nodiscard]] constexpr Mat2 operator*(const Mat2& m, const Mat2& n) {
  return {m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
          m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d};
}

/// Scalar multiple.
[[nodiscard]] constexpr Mat2 operator*(double s, const Mat2& m) {
  return {s * m.a, s * m.b, s * m.c, s * m.d};
}

/// Matrix sum / difference.
[[nodiscard]] constexpr Mat2 operator+(const Mat2& m, const Mat2& n) {
  return {m.a + n.a, m.b + n.b, m.c + n.c, m.d + n.d};
}
[[nodiscard]] constexpr Mat2 operator-(const Mat2& m, const Mat2& n) {
  return {m.a - n.a, m.b - n.b, m.c - n.c, m.d - n.d};
}

/// Identity matrix.
[[nodiscard]] constexpr Mat2 identity() { return {1.0, 0.0, 0.0, 1.0}; }

/// Determinant.
[[nodiscard]] constexpr double det(const Mat2& m) {
  return m.a * m.d - m.b * m.c;
}

/// Trace.
[[nodiscard]] constexpr double trace(const Mat2& m) { return m.a + m.d; }

/// Transpose.
[[nodiscard]] constexpr Mat2 transpose(const Mat2& m) {
  return {m.a, m.c, m.b, m.d};
}

/// CCW rotation by angle θ.
[[nodiscard]] Mat2 rotation(double theta);

/// Reflection about the x axis: diag(1, −1).  This is the chirality
/// flip of the paper (χ = −1 robots disagree on the +y direction).
[[nodiscard]] constexpr Mat2 reflection_x_axis() {
  return {1.0, 0.0, 0.0, -1.0};
}

/// diag(1, χ) for χ ∈ {+1, −1}.
[[nodiscard]] Mat2 chirality(int chi);

}  // namespace rv::geom
