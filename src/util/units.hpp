// Units and small numeric helpers shared across the library.
//
// The simulator is maths-heavy, so quantities are plain `double`s with the
// unit encoded in the name (kelvin-per-watt, rpm, seconds, watts).  This
// header centralises the unit conventions, user-defined literals for
// readability at call sites, and a handful of range helpers used everywhere.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace fsc {

/// Conventions used across the library:
///  - temperatures      : degrees Celsius (double)
///  - temperature deltas: kelvin == Celsius delta (double)
///  - fan speed         : rpm (double)
///  - power             : watts (double)
///  - energy            : joules (double)
///  - time              : seconds (double)
///  - CPU utilization   : dimensionless fraction in [0, 1]
namespace literals {

constexpr double operator""_rpm(long double v) { return static_cast<double>(v); }
constexpr double operator""_rpm(unsigned long long v) { return static_cast<double>(v); }
constexpr double operator""_celsius(long double v) { return static_cast<double>(v); }
constexpr double operator""_celsius(unsigned long long v) { return static_cast<double>(v); }
constexpr double operator""_watts(long double v) { return static_cast<double>(v); }
constexpr double operator""_watts(unsigned long long v) { return static_cast<double>(v); }
constexpr double operator""_sec(long double v) { return static_cast<double>(v); }
constexpr double operator""_sec(unsigned long long v) { return static_cast<double>(v); }

}  // namespace literals

/// Clamp `v` into [lo, hi].  Precondition: lo <= hi.
constexpr double clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

/// Clamp a CPU utilization into its valid [0, 1] range.
constexpr double clamp_utilization(double u) { return clamp(u, 0.0, 1.0); }

/// Linear interpolation: lerp(a, b, 0) == a, lerp(a, b, 1) == b.
constexpr double lerp(double a, double b, double t) { return a + (b - a) * t; }

/// True when |a - b| <= tol (absolute comparison; the library deals in
/// physical quantities with known scales, so absolute tolerances are the
/// right tool).
inline bool approx_equal(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

/// Throw std::invalid_argument with `what` when `ok` is false.  Used to
/// validate constructor parameters of model classes, and on the hot path
/// (every physics substep checks its inputs).
///
/// Hot-path rule: the message is a string literal, and it becomes a
/// std::string only inside the throw.  A `const std::string&` parameter
/// would build the message before `ok` is tested — a heap allocation on
/// every passing check, since any useful message outgrows the small-string
/// buffer — so there is deliberately no such overload: a composed message
/// does not compile here, and its caller builds it on the failure branch
/// itself.  test_alloc pins the steady state at zero allocations.
inline void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string(what));
}

}  // namespace fsc
