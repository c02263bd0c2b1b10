#include "expr/eval.hpp"

#include <cmath>

#include "util/error.hpp"

namespace adpm::expr {

double evalPoint(const Expr& e, std::span<const double> values) {
  const Node& n = e.node();
  switch (n.kind) {
    case OpKind::Const:
      return n.value;
    case OpKind::Var:
      if (n.var >= values.size()) {
        throw adpm::InvalidArgumentError("evalPoint: variable out of range");
      }
      return values[n.var];
    case OpKind::Add:
      return evalPoint(n.children[0], values) + evalPoint(n.children[1], values);
    case OpKind::Sub:
      return evalPoint(n.children[0], values) - evalPoint(n.children[1], values);
    case OpKind::Mul:
      return evalPoint(n.children[0], values) * evalPoint(n.children[1], values);
    case OpKind::Div:
      return evalPoint(n.children[0], values) / evalPoint(n.children[1], values);
    case OpKind::Neg:
      return -evalPoint(n.children[0], values);
    case OpKind::Sqrt:
      return std::sqrt(evalPoint(n.children[0], values));
    case OpKind::Sqr: {
      const double x = evalPoint(n.children[0], values);
      return x * x;
    }
    case OpKind::Pow:
      return std::pow(evalPoint(n.children[0], values), n.exponent);
    case OpKind::Exp:
      return std::exp(evalPoint(n.children[0], values));
    case OpKind::Log:
      return std::log(evalPoint(n.children[0], values));
    case OpKind::Abs:
      return std::fabs(evalPoint(n.children[0], values));
    case OpKind::Min:
      return std::min(evalPoint(n.children[0], values),
                      evalPoint(n.children[1], values));
    case OpKind::Max:
      return std::max(evalPoint(n.children[0], values),
                      evalPoint(n.children[1], values));
  }
  throw adpm::InvalidArgumentError("evalPoint: bad node kind");
}

}  // namespace adpm::expr
