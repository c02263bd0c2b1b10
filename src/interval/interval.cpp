#include "interval/interval.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace adpm::interval {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

bool Interval::isBounded() const noexcept {
  return !empty() && std::isfinite(lo_) && std::isfinite(hi_);
}

double Interval::width() const noexcept {
  if (empty()) return 0.0;
  return hi_ - lo_;
}

double Interval::mid() const noexcept {
  if (empty()) return std::numeric_limits<double>::quiet_NaN();
  if (isEntire()) return 0.0;
  if (lo_ == -kInf) return hi_;
  if (hi_ == kInf) return lo_;
  return 0.5 * (lo_ + hi_);
}

double Interval::clamp(double v) const noexcept {
  return std::min(std::max(v, lo_), hi_);
}

std::string Interval::str(int digits) const {
  if (empty()) return "{}";
  std::ostringstream out;
  out.precision(digits);
  out << "[" << lo_ << ", " << hi_ << "]";
  return out.str();
}

Interval operator/(const Interval& a, const Interval& b) noexcept {
  const IntervalPair parts = extendedDiv(a, b);
  return hull(parts.first, parts.second);
}

Interval sqrt(const Interval& a) noexcept {
  const Interval clipped = intersect(a, Interval::nonNegative());
  if (clipped.empty()) return clipped;
  return Interval(std::sqrt(clipped.lo()), std::sqrt(clipped.hi()));
}

Interval pow(const Interval& a, int n) noexcept {
  if (a.empty()) return a;
  if (n == 0) return Interval(1.0);
  if (n < 0) return Interval(1.0) / pow(a, -n);
  if (n == 1) return a;
  if (n % 2 == 0) {
    // Even power behaves like sqr: symmetric around 0.
    Interval base = abs(a);
    return Interval(std::pow(base.lo(), n), std::pow(base.hi(), n));
  }
  return Interval(std::pow(a.lo(), n), std::pow(a.hi(), n));
}

Interval exp(const Interval& a) noexcept {
  if (a.empty()) return a;
  return Interval(std::exp(a.lo()), std::exp(a.hi()));
}

Interval log(const Interval& a) noexcept {
  const Interval clipped = intersect(a, Interval(0.0, kInf));
  if (clipped.empty()) return clipped;
  const double lo = clipped.lo() == 0.0 ? -kInf : std::log(clipped.lo());
  return Interval(lo, std::log(clipped.hi()));
}

Interval abs(const Interval& a) noexcept {
  if (a.empty()) return a;
  if (a.lo() >= 0.0) return a;
  if (a.hi() <= 0.0) return -a;
  return Interval(0.0, std::max(-a.lo(), a.hi()));
}

Interval min(const Interval& a, const Interval& b) noexcept {
  if (a.empty() || b.empty()) return Interval::emptySet();
  return Interval(std::min(a.lo(), b.lo()), std::min(a.hi(), b.hi()));
}

Interval max(const Interval& a, const Interval& b) noexcept {
  if (a.empty() || b.empty()) return Interval::emptySet();
  return Interval(std::max(a.lo(), b.lo()), std::max(a.hi(), b.hi()));
}

IntervalPair extendedDiv(const Interval& z, const Interval& y) noexcept {
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

Interval projectAddLhs(const Interval& z, const Interval& x,
                       const Interval& y) noexcept {
  return intersect(x, z - y);
}

Interval projectMulLhs(const Interval& z, const Interval& x,
                       const Interval& y) noexcept {
  const IntervalPair q = extendedDiv(z, y);
  return hull(intersect(x, q.first), intersect(x, q.second));
}

Interval projectSqr(const Interval& z, const Interval& x) noexcept {
  const Interval root = sqrt(z);
  if (root.empty()) return Interval::emptySet();
  return hull(intersect(x, root), intersect(x, -root));
}

Interval projectPow(const Interval& z, const Interval& x, int n) noexcept {
  if (n == 0) return z.contains(1.0) ? x : Interval::emptySet();
  if (n == 1) return intersect(x, z);
  if (n < 0) {
    // z = x^n = 1 / x^(-n): project through the reciprocal.
    const Interval recip = Interval(1.0) / z;
    return projectPow(recip, x, -n);
  }
  if (n % 2 == 0) {
    const Interval zc = intersect(z, Interval::nonNegative());
    if (zc.empty()) return Interval::emptySet();
    const double rl = std::pow(zc.lo(), 1.0 / n);
    const double rh = std::pow(zc.hi(), 1.0 / n);
    const Interval root(rl, rh);
    return hull(intersect(x, root), intersect(x, -root));
  }
  // Odd power: monotone bijection over the reals.
  auto cbrtn = [n](double v) {
    if (v == kInf || v == -kInf) return v;
    const double mag = std::pow(std::fabs(v), 1.0 / n);
    return v < 0.0 ? -mag : mag;
  };
  return intersect(x, Interval(cbrtn(z.lo()), cbrtn(z.hi())));
}

Interval projectAbs(const Interval& z, const Interval& x) noexcept {
  const Interval zc = intersect(z, Interval::nonNegative());
  if (zc.empty()) return Interval::emptySet();
  return hull(intersect(x, zc), intersect(x, -zc));
}

Interval projectMinLhs(const Interval& z, const Interval& x,
                       const Interval& y) noexcept {
  if (z.empty()) return Interval::emptySet();
  // min(x, y) >= z.lo implies x >= z.lo.
  Interval refined = intersect(x, Interval(z.lo(), kInf));
  // If y alone cannot achieve the minimum (y.lo > z.hi), x must supply it.
  if (y.lo() > z.hi()) refined = intersect(refined, z);
  return refined;
}

Interval projectMaxLhs(const Interval& z, const Interval& x,
                       const Interval& y) noexcept {
  if (z.empty()) return Interval::emptySet();
  Interval refined = intersect(x, Interval(-kInf, z.hi()));
  if (y.hi() < z.lo()) refined = intersect(refined, z);
  return refined;
}

}  // namespace adpm::interval
