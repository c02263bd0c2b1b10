// Point evaluation of expressions.  Interval evaluation goes through
// CompiledExpr::evaluate (expr/compiled.hpp).
#pragma once

#include <span>

#include "expr/expr.hpp"

namespace adpm::expr {

/// Evaluates at a point; `values[v]` supplies variable v.  Variables outside
/// the span of `values` are an error.
double evalPoint(const Expr& e, std::span<const double> values);

}  // namespace adpm::expr
