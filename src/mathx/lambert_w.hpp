#pragma once

/// \file lambert_w.hpp
/// The Lambert W function (principal branch W₀).
///
/// Lemma 12 of the paper bounds the asymmetric-clock rendezvous round via
/// the solution of z·eᶻ = y, i.e. z = W(y).  We provide a full
/// implementation so that `analysis/` can evaluate the exact Lemma 12
/// expression rather than only its logarithmic asymptotic.

namespace rv::mathx {

/// Principal branch W₀(x) for x ≥ −1/e.
///
/// Satisfies W₀(x)·e^{W₀(x)} = x with W₀(x) ≥ −1.
/// Accuracy: better than 1e-14 relative over the tested range.
/// \throws std::domain_error if x < −1/e (no real solution).
[[nodiscard]] double lambert_w0(double x);

}  // namespace rv::mathx
