#include "oracle/expr.hpp"

#include "expr/sweep.hpp"
#include "util/error.hpp"

namespace adpm::oracle {

using expr::OpKind;
using interval::Interval;

Interval evalInterval(const expr::Expr& e, std::span<const Interval> domains) {
  const expr::Node& n = e.node();
  switch (n.kind) {
    case OpKind::Const:
      return Interval(n.value);
    case OpKind::Var:
      if (n.var >= domains.size()) {
        throw adpm::InvalidArgumentError("evalInterval: variable out of range");
      }
      return domains[n.var];
    case OpKind::Add:
      return evalInterval(n.children[0], domains) +
             evalInterval(n.children[1], domains);
    case OpKind::Sub:
      return evalInterval(n.children[0], domains) -
             evalInterval(n.children[1], domains);
    case OpKind::Mul:
      return evalInterval(n.children[0], domains) *
             evalInterval(n.children[1], domains);
    case OpKind::Div:
      return evalInterval(n.children[0], domains) /
             evalInterval(n.children[1], domains);
    case OpKind::Neg:
      return -evalInterval(n.children[0], domains);
    case OpKind::Sqrt:
      return interval::sqrt(evalInterval(n.children[0], domains));
    case OpKind::Sqr:
      return interval::sqr(evalInterval(n.children[0], domains));
    case OpKind::Pow:
      return interval::pow(evalInterval(n.children[0], domains), n.exponent);
    case OpKind::Exp:
      return interval::exp(evalInterval(n.children[0], domains));
    case OpKind::Log:
      return interval::log(evalInterval(n.children[0], domains));
    case OpKind::Abs:
      return interval::abs(evalInterval(n.children[0], domains));
    case OpKind::Min:
      return interval::min(evalInterval(n.children[0], domains),
                           evalInterval(n.children[1], domains));
    case OpKind::Max:
      return interval::max(evalInterval(n.children[0], domains),
                           evalInterval(n.children[1], domains));
  }
  throw adpm::InvalidArgumentError("evalInterval: bad node kind");
}

ValueDerivative evalDerivative(const expr::Expr& e,
                               std::span<const Interval> domains,
                               expr::VarId var) {
  const expr::Node& n = e.node();
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

expr::Direction monotonicity(const expr::Expr& e,
                             std::span<const Interval> domains,
                             expr::VarId var) {
  if (!expr::mentions(e, var)) return expr::Direction::None;
  expr::countSweep();  // one recursive value+derivative walk for one variable
  return expr::directionOf(evalDerivative(e, domains, var).derivative);
}

}  // namespace adpm::oracle
