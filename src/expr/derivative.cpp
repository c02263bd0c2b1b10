#include "expr/derivative.hpp"

#include "util/error.hpp"

namespace adpm::expr {

using interval::Interval;

const char* directionName(Direction d) noexcept {
  switch (d) {
    case Direction::None: return "none";
    case Direction::Constant: return "constant";
    case Direction::Increasing: return "increasing";
    case Direction::Decreasing: return "decreasing";
    case Direction::Unknown: return "unknown";
  }
  return "?";
}

ValueDerivative evalDerivative(const Expr& e, std::span<const Interval> domains,
                               VarId var) {
  const Node& n = e.node();
  switch (n.kind) {
    case OpKind::Const:
      return {Interval(n.value), Interval(0.0)};
    case OpKind::Var:
      if (n.var >= domains.size()) {
        throw adpm::InvalidArgumentError("evalDerivative: variable out of range");
      }
      return {domains[n.var], Interval(n.var == var ? 1.0 : 0.0)};
    case OpKind::Add: {
      const auto a = evalDerivative(n.children[0], domains, var);
      const auto b = evalDerivative(n.children[1], domains, var);
      return {a.value + b.value, a.derivative + b.derivative};
    }
    case OpKind::Sub: {
      const auto a = evalDerivative(n.children[0], domains, var);
      const auto b = evalDerivative(n.children[1], domains, var);
      return {a.value - b.value, a.derivative - b.derivative};
    }
    case OpKind::Mul: {
      const auto a = evalDerivative(n.children[0], domains, var);
      const auto b = evalDerivative(n.children[1], domains, var);
      return {a.value * b.value,
              a.derivative * b.value + a.value * b.derivative};
    }
    case OpKind::Div: {
      const auto a = evalDerivative(n.children[0], domains, var);
      const auto b = evalDerivative(n.children[1], domains, var);
      return {a.value / b.value,
              (a.derivative * b.value - a.value * b.derivative) /
                  interval::sqr(b.value)};
    }
    case OpKind::Neg: {
      const auto a = evalDerivative(n.children[0], domains, var);
      return {-a.value, -a.derivative};
    }
    case OpKind::Sqrt: {
      const auto a = evalDerivative(n.children[0], domains, var);
      const Interval root = interval::sqrt(a.value);
      return {root, a.derivative / (Interval(2.0) * root)};
    }
    case OpKind::Sqr: {
      const auto a = evalDerivative(n.children[0], domains, var);
      return {interval::sqr(a.value),
              Interval(2.0) * a.value * a.derivative};
    }
    case OpKind::Pow: {
      const auto a = evalDerivative(n.children[0], domains, var);
      const int k = n.exponent;
      return {interval::pow(a.value, k),
              Interval(static_cast<double>(k)) * interval::pow(a.value, k - 1) *
                  a.derivative};
    }
    case OpKind::Exp: {
      const auto a = evalDerivative(n.children[0], domains, var);
      const Interval v = interval::exp(a.value);
      return {v, v * a.derivative};
    }
    case OpKind::Log: {
      const auto a = evalDerivative(n.children[0], domains, var);
      return {interval::log(a.value), a.derivative / a.value};
    }
    case OpKind::Abs: {
      const auto a = evalDerivative(n.children[0], domains, var);
      Interval sign;
      if (a.value.lo() > 0.0) {
        sign = Interval(1.0);
      } else if (a.value.hi() < 0.0) {
        sign = Interval(-1.0);
      } else {
        sign = Interval(-1.0, 1.0);  // kink inside the box
      }
      return {interval::abs(a.value), sign * a.derivative};
    }
    case OpKind::Min: {
      const auto a = evalDerivative(n.children[0], domains, var);
      const auto b = evalDerivative(n.children[1], domains, var);
      Interval d;
      if (a.value.hi() <= b.value.lo()) {
        d = a.derivative;  // min is always the left operand
      } else if (b.value.hi() <= a.value.lo()) {
        d = b.derivative;
      } else {
        d = interval::hull(a.derivative, b.derivative);
      }
      return {interval::min(a.value, b.value), d};
    }
    case OpKind::Max: {
      const auto a = evalDerivative(n.children[0], domains, var);
      const auto b = evalDerivative(n.children[1], domains, var);
      Interval d;
      if (a.value.lo() >= b.value.hi()) {
        d = a.derivative;
      } else if (b.value.lo() >= a.value.hi()) {
        d = b.derivative;
      } else {
        d = interval::hull(a.derivative, b.derivative);
      }
      return {interval::max(a.value, b.value), d};
    }
  }
  throw adpm::InvalidArgumentError("evalDerivative: bad node kind");
}

Direction directionOf(const interval::Interval& derivative) noexcept {
  const Interval& d = derivative;
  if (d.empty()) return Direction::Unknown;
  if (d.lo() == 0.0 && d.hi() == 0.0) return Direction::Constant;
  if (d.lo() >= 0.0) return Direction::Increasing;
  if (d.hi() <= 0.0) return Direction::Decreasing;
  return Direction::Unknown;
}

}  // namespace adpm::expr
