#pragma once

/// \file roots.hpp
/// Scalar root bracketing and refinement, the independent oracle tests
/// hold the certified sweep's event times against.  `brent` provides
/// high-accuracy refinement inside a bracketing interval; `bisect` is the
/// slow-but-certain fallback.

#include <functional>
#include <optional>

namespace rv::mathx {

/// Result of a root search: the abscissa and the residual |f(root)|.
struct RootResult {
  double x = 0.0;         ///< located root
  double residual = 0.0;  ///< |f(x)| at the returned point
  int iterations = 0;     ///< iterations consumed
};

/// Options controlling termination of the root finders.
struct RootOptions {
  double x_tol = 1e-13;    ///< absolute tolerance on the abscissa
  int max_iterations = 200;
};

/// Brent's method on [a, b].  Requires f(a)·f(b) ≤ 0.
/// \throws std::invalid_argument if the bracket is invalid.
[[nodiscard]] RootResult brent(const std::function<double(double)>& f,
                               double a, double b,
                               const RootOptions& opts = {});

/// Plain bisection on [a, b].  Requires f(a)·f(b) ≤ 0.
/// \throws std::invalid_argument if the bracket is invalid.
[[nodiscard]] RootResult bisect(const std::function<double(double)>& f,
                                double a, double b,
                                const RootOptions& opts = {});

/// Scan [a, b] in `steps` uniform increments and return the first
/// sub-interval on which f changes sign (or touches zero), refined with
/// Brent.  Returns nullopt if no sign change is observed at the scan
/// resolution.
[[nodiscard]] std::optional<RootResult> first_crossing(
    const std::function<double(double)>& f, double a, double b, int steps,
    const RootOptions& opts = {});

}  // namespace rv::mathx
