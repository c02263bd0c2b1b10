// Closed-interval arithmetic.
//
// Property ranges E_i and feasible subspaces v_F(a_i) in the paper are value
// intervals; the Design Constraint Manager narrows them by constraint
// propagation.  This module provides the interval algebra that the expression
// evaluator (forward pass) and the HC4 projector (backward pass) are built
// on.
//
// Representation notes:
//  * The empty interval is canonicalised to [+inf, -inf]; `empty()` tests
//    lo > hi.
//  * Bounds may be infinite; [-inf, +inf] is the "entire" interval.
//  * Arithmetic uses plain double rounding rather than directed rounding.
//    Soundness for the simulator is preserved by `inflate()`, which the
//    propagation engine applies before pruning decisions; the few ULPs of
//    slack are negligible at the scale of the paper's design ranges.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace adpm::interval {

/// A closed real interval [lo, hi]; possibly empty or unbounded.
class Interval {
 public:
  /// Default-constructs the empty interval.
  constexpr Interval() noexcept = default;

  /// Degenerate (point) interval [v, v].
  constexpr explicit Interval(double v) noexcept : lo_(v), hi_(v) {}

  /// [lo, hi]; if lo > hi the result is the canonical empty interval.
  constexpr Interval(double lo, double hi) noexcept : lo_(lo), hi_(hi) {
    if (!(lo_ <= hi_)) *this = Interval::empty_();
  }

  static constexpr Interval entire() noexcept {
    return Interval(-std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity());
  }
  static constexpr Interval emptySet() noexcept { return Interval::empty_(); }
  static constexpr Interval nonNegative() noexcept {
    return Interval(0.0, std::numeric_limits<double>::infinity());
  }
  static constexpr Interval nonPositive() noexcept {
    return Interval(-std::numeric_limits<double>::infinity(), 0.0);
  }

  constexpr double lo() const noexcept { return lo_; }
  constexpr double hi() const noexcept { return hi_; }

  constexpr bool empty() const noexcept { return !(lo_ <= hi_); }
  constexpr bool isPoint() const noexcept { return lo_ == hi_; }
  constexpr bool isEntire() const noexcept {
    return lo_ == -std::numeric_limits<double>::infinity() &&
           hi_ == std::numeric_limits<double>::infinity();
  }
  bool isBounded() const noexcept;

  /// Width hi-lo; 0 for empty, +inf for unbounded intervals.
  double width() const noexcept;

  /// Midpoint; finite clamp for half-bounded intervals.
  double mid() const noexcept;

  constexpr bool contains(double v) const noexcept {
    return !empty() && lo_ <= v && v <= hi_;
  }
  constexpr bool contains(const Interval& other) const noexcept {
    return other.empty() || (!empty() && lo_ <= other.lo_ && other.hi_ <= hi_);
  }
  constexpr bool intersects(const Interval& other) const noexcept {
    return !empty() && !other.empty() && lo_ <= other.hi_ && other.lo_ <= hi_;
  }

  /// Exact comparison of bounds (empty == empty).
  constexpr bool operator==(const Interval& other) const noexcept {
    if (empty() && other.empty()) return true;
    return lo_ == other.lo_ && hi_ == other.hi_;
  }

  /// Clamps a value into the interval; v must not be called on empty.
  double clamp(double v) const noexcept;

  /// Widens each finite bound outward by max(rel*|bound|, abs_).
  Interval inflate(double rel, double abs_) const noexcept {
    if (empty()) return *this;
    double lo = lo_;
    double hi = hi_;
    if (std::isfinite(lo)) lo -= std::max(rel * std::fabs(lo), abs_);
    if (std::isfinite(hi)) hi += std::max(rel * std::fabs(hi), abs_);
    return Interval(lo, hi);
  }

  std::string str(int digits = 6) const;

 private:
  static constexpr Interval empty_() noexcept {
    Interval e;
    return e;
  }

  double lo_ = std::numeric_limits<double>::infinity();
  double hi_ = -std::numeric_limits<double>::infinity();
};

/// +∞, the bound of unbounded intervals.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

// The leaf operations below are defined inline: every HC4 sweep calls them
// once or more per expression node, and a call across translation units
// costs as much as the operation itself.  That covers the forward
// operations and the backward projections alike; only the transcendental
// and integer-power helpers stay in interval.cpp.

// -- set operations ---------------------------------------------------------

inline Interval intersect(const Interval& a, const Interval& b) noexcept {
  if (a.empty() || b.empty()) return Interval::emptySet();
  return Interval(std::max(a.lo(), b.lo()), std::min(a.hi(), b.hi()));
}

/// Convex hull (smallest interval containing both).
inline Interval hull(const Interval& a, const Interval& b) noexcept {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return Interval(std::min(a.lo(), b.lo()), std::max(a.hi(), b.hi()));
}

// -- arithmetic (forward evaluation) ----------------------------------------

namespace detail {

/// IEEE-safe product for bound arithmetic: 0 * inf is 0 here, because the
/// zero factor comes from a degenerate bound, not from a limit process.
inline double mulBound(double a, double b) noexcept {
  if (a == 0.0 || b == 0.0) return 0.0;
  return a * b;
}

}  // namespace detail

inline Interval operator+(const Interval& a, const Interval& b) noexcept {
  if (a.empty() || b.empty()) return Interval::emptySet();
  return Interval(a.lo() + b.lo(), a.hi() + b.hi());
}

inline Interval operator-(const Interval& a, const Interval& b) noexcept {
  if (a.empty() || b.empty()) return Interval::emptySet();
  return Interval(a.lo() - b.hi(), a.hi() - b.lo());
}

inline Interval operator*(const Interval& a, const Interval& b) noexcept {
  if (a.empty() || b.empty()) return Interval::emptySet();
  const double p1 = detail::mulBound(a.lo(), b.lo());
  const double p2 = detail::mulBound(a.lo(), b.hi());
  const double p3 = detail::mulBound(a.hi(), b.lo());
  const double p4 = detail::mulBound(a.hi(), b.hi());
  return Interval(std::min({p1, p2, p3, p4}), std::max({p1, p2, p3, p4}));
}

inline Interval operator-(const Interval& a) noexcept {
  if (a.empty()) return a;
  return Interval(-a.hi(), -a.lo());
}

/// Extended division z/y as up to two disjoint intervals (when y straddles 0).
struct IntervalPair {
  Interval first;
  Interval second;  // empty when the result is a single interval
};

inline IntervalPair extendedDiv(const Interval& z,
                                const Interval& y) noexcept {
  if (z.empty() || y.empty()) return {Interval::emptySet(), Interval::emptySet()};

  // y strictly positive or strictly negative: ordinary division.
  if (y.lo() > 0.0 || y.hi() < 0.0) {
    const double q1 = z.lo() / y.lo();
    const double q2 = z.lo() / y.hi();
    const double q3 = z.hi() / y.lo();
    const double q4 = z.hi() / y.hi();
    return {Interval(std::min({q1, q2, q3, q4}), std::max({q1, q2, q3, q4})),
            Interval::emptySet()};
  }

  // y contains 0.
  if (y.isPoint()) {  // y == [0,0]
    if (z.contains(0.0)) return {Interval::entire(), Interval::emptySet()};
    return {Interval::emptySet(), Interval::emptySet()};
  }
  if (z.contains(0.0)) return {Interval::entire(), Interval::emptySet()};

  if (z.hi() < 0.0) {
    if (y.lo() == 0.0) return {Interval(-kInf, z.hi() / y.hi()), Interval::emptySet()};
    if (y.hi() == 0.0) return {Interval(z.hi() / y.lo(), kInf), Interval::emptySet()};
    return {Interval(-kInf, z.hi() / y.hi()), Interval(z.hi() / y.lo(), kInf)};
  }
  // z.lo() > 0
  if (y.lo() == 0.0) return {Interval(z.lo() / y.hi(), kInf), Interval::emptySet()};
  if (y.hi() == 0.0) return {Interval(-kInf, z.lo() / y.lo()), Interval::emptySet()};
  return {Interval(-kInf, z.lo() / y.lo()), Interval(z.lo() / y.hi(), kInf)};
}

/// Hull of a/b; division by an interval containing 0 widens appropriately
/// (entire when 0 is interior, half-line when 0 is an endpoint).
inline Interval operator/(const Interval& a, const Interval& b) noexcept {
  const IntervalPair parts = extendedDiv(a, b);
  return hull(parts.first, parts.second);
}

inline Interval sqr(const Interval& a) noexcept {
  if (a.empty()) return a;
  const double l = a.lo();
  const double h = a.hi();
  if (l >= 0.0) return Interval(l * l, h * h);
  if (h <= 0.0) return Interval(h * h, l * l);
  return Interval(0.0, std::max(l * l, h * h));
}

/// Domain-clipped to x >= 0.
inline Interval sqrt(const Interval& a) noexcept {
  const Interval clipped = intersect(a, Interval::nonNegative());
  if (clipped.empty()) return clipped;
  return Interval(std::sqrt(clipped.lo()), std::sqrt(clipped.hi()));
}

inline Interval abs(const Interval& a) noexcept {
  if (a.empty()) return a;
  if (a.lo() >= 0.0) return a;
  if (a.hi() <= 0.0) return -a;
  return Interval(0.0, std::max(-a.lo(), a.hi()));
}

inline Interval min(const Interval& a, const Interval& b) noexcept {
  if (a.empty() || b.empty()) return Interval::emptySet();
  return Interval(std::min(a.lo(), b.lo()), std::min(a.hi(), b.hi()));
}

inline Interval max(const Interval& a, const Interval& b) noexcept {
  if (a.empty() || b.empty()) return Interval::emptySet();
  return Interval(std::max(a.lo(), b.lo()), std::max(a.hi(), b.hi()));
}

Interval pow(const Interval& a, int n) noexcept; // integer powers, n may be < 0
Interval exp(const Interval& a) noexcept;
Interval log(const Interval& a) noexcept;        // domain-clipped to x > 0

// -- projections (backward/HC4 support) --------------------------------------

/// Refines x given z = x + y: x' = x ∩ (z - y).
Interval projectAddLhs(const Interval& z, const Interval& x,
                       const Interval& y) noexcept;
/// Refines x given z = x * y: x' = x ∩ (z ÷ y), using extended division.
inline Interval projectMulLhs(const Interval& z, const Interval& x,
                              const Interval& y) noexcept {
  const IntervalPair q = extendedDiv(z, y);
  return hull(intersect(x, q.first), intersect(x, q.second));
}

/// Refines x given z = x^2.
inline Interval projectSqr(const Interval& z, const Interval& x) noexcept {
  const Interval root = sqrt(z);
  if (root.empty()) return Interval::emptySet();
  return hull(intersect(x, root), intersect(x, -root));
}

/// Refines x given z = x^n.
Interval projectPow(const Interval& z, const Interval& x, int n) noexcept;
/// Refines x given z = |x|.
inline Interval projectAbs(const Interval& z, const Interval& x) noexcept {
  const Interval zc = intersect(z, Interval::nonNegative());
  if (zc.empty()) return Interval::emptySet();
  return hull(intersect(x, zc), intersect(x, -zc));
}

/// Refines x given z = min(x, y) (use with swapped args for the y side).
inline Interval projectMinLhs(const Interval& z, const Interval& x,
                              const Interval& y) noexcept {
  if (z.empty()) return Interval::emptySet();
  // min(x, y) >= z.lo implies x >= z.lo.
  Interval refined = intersect(x, Interval(z.lo(), kInf));
  // If y alone cannot achieve the minimum (y.lo > z.hi), x must supply it.
  if (y.lo() > z.hi()) refined = intersect(refined, z);
  return refined;
}

/// Refines x given z = max(x, y).
inline Interval projectMaxLhs(const Interval& z, const Interval& x,
                              const Interval& y) noexcept {
  if (z.empty()) return Interval::emptySet();
  Interval refined = intersect(x, Interval(-kInf, z.hi()));
  if (y.hi() < z.lo()) refined = intersect(refined, z);
  return refined;
}

}  // namespace adpm::interval
