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

expr::Direction monotonicity(const expr::Expr& e,
                             std::span<const Interval> domains,
                             expr::VarId var) {
  if (!expr::mentions(e, var)) return expr::Direction::None;
  expr::countSweep();  // one recursive value+derivative walk for one variable
  return expr::directionOf(expr::evalDerivative(e, domains, var).derivative);
}

}  // namespace adpm::oracle
