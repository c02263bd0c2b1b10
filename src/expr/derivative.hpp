// Monotonicity derived from interval derivative enclosures.
//
// The paper's simulated designer keeps, per property, "a list of constraints
// monotonically increasing in a_i and a list of constraints monotonically
// decreasing in a_i"; DDDL lets scenario authors declare monotonicity
// explicitly.  This module also *derives* monotonicity automatically: the
// sign of the interval enclosure of ∂e/∂x over the current box proves
// monotone behaviour on that box (`directionOf`).  The miner and the
// simulated designer read every partial from one CompiledExpr::derivatives
// sweep, whose enclosures are tested bit-identical to the tree walk of
// `oracle::evalDerivative` (tests/oracle/expr.hpp).
#pragma once

#include <cstdint>

#include "interval/interval.hpp"

namespace adpm::expr {

/// Direction of an expression with respect to one variable over a box.
enum class Direction : std::uint8_t {
  None,        ///< variable does not occur in the expression
  Constant,    ///< derivative is identically zero over the box
  Increasing,  ///< derivative >= 0 over the whole box
  Decreasing,  ///< derivative <= 0 over the whole box
  Unknown,     ///< sign of the derivative changes (or cannot be proven)
};

const char* directionName(Direction d) noexcept;

/// Classifies a derivative enclosure into a Direction: identically-zero ⇒
/// Constant, provably signed ⇒ Increasing/Decreasing, else Unknown.  It
/// cannot distinguish None — callers that need None must check `mentions`
/// themselves.
Direction directionOf(const interval::Interval& derivative) noexcept;

}  // namespace adpm::expr
