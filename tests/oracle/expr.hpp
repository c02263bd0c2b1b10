// Tree-walking reference implementations of interval evaluation,
// forward-mode differentiation and derived monotonicity.  The shipped
// library evaluates through CompiledExpr (expr/compiled.hpp): `evaluate` for
// enclosures and one fused `derivatives` sweep for every partial at once.
// These recursive walks are the specification the compiled sweeps are
// tested against.
#pragma once

#include <span>

#include "expr/derivative.hpp"
#include "expr/expr.hpp"
#include "interval/interval.hpp"

namespace adpm::oracle {

/// Evaluates over an interval box; `domains[v]` supplies variable v's range.
/// The result encloses {e(x) : x in box} (interval extension).
interval::Interval evalInterval(const expr::Expr& e,
                                std::span<const interval::Interval> domains);

/// Value and derivative enclosures of an expression over a box.
struct ValueDerivative {
  interval::Interval value;
  interval::Interval derivative;
};

/// Forward-mode AD: enclosures of e and ∂e/∂var over the box `domains`, one
/// recursive walk per variable.
ValueDerivative evalDerivative(const expr::Expr& e,
                               std::span<const interval::Interval> domains,
                               expr::VarId var);

/// Proven direction of e with respect to `var` over the box: None when e
/// does not mention var, else `directionOf` the tree-walked derivative.
/// Counts one expression sweep.
expr::Direction monotonicity(const expr::Expr& e,
                             std::span<const interval::Interval> domains,
                             expr::VarId var);

}  // namespace adpm::oracle
