#include "interval/interval.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace adpm::interval {

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

Interval projectAddLhs(const Interval& z, const Interval& x,
                       const Interval& y) noexcept {
  return intersect(x, z - y);
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

}  // namespace adpm::interval
