// HC4-revise over a flattened expression.
//
// The paper's Design Constraint Manager "runs a constraint propagation
// algorithm to compute infeasible property values and the status of all
// constraints", delegating per-constraint evaluation to constraint-based
// systems (Bessiere & Regin's arc-consistency work is cited).  Our equivalent
// primitive is HC4-revise: a forward interval sweep of the expression tree
// followed by a backward projection pass that narrows the variable domains to
// the values compatible with the constraint's target interval.  Propagation
// calls `revisePadded`, which sizes the target's tolerance pad from the same
// forward sweep; each such call is one "constraint evaluation" in the
// paper's cost metric.
#pragma once

#include <span>
#include <vector>

#include "expr/expr.hpp"
#include "interval/interval.hpp"

namespace adpm::expr {

/// Default relative feasibility tolerance.  Equality constraints between
/// values that travelled through chains of floating-point models are never
/// met *exactly*; a verification tool would report them as passing within
/// its numeric tolerance, and so does this library.
inline constexpr double kFeasibilityTolerance = 1e-7;

/// The target interval padded by a tolerance scaled to the residual's
/// magnitude; use for classification and propagation so boundary-exact
/// designs do not flip to Violated through rounding.
interval::Interval tolerancedTarget(const interval::Interval& target,
                                    const interval::Interval& residual,
                                    double tol = kFeasibilityTolerance) noexcept;

/// Result of one HC4-revise call.
struct ReviseResult {
  /// Forward interval enclosure of the expression over the input box.
  interval::Interval value;
  /// The target the backward sweep narrowed against (for `revisePadded`,
  /// the raw target after tolerance padding).
  interval::Interval target;
  /// False when value ∩ target is empty (the constraint cannot be met
  /// anywhere in the box); domains are left untouched in that case.
  bool feasible = false;
  /// True when at least one domain was strictly narrowed.
  bool narrowed = false;
};

/// Result of one fused value-plus-derivatives sweep.  `derivatives` is
/// parallel to `CompiledExpr::variables()` and points into the calling
/// thread's sweep workspace — it is valid only until the next sweep of any
/// CompiledExpr on the same thread.
struct DerivativeSweep {
  /// Forward interval enclosure of the expression over the input box.
  interval::Interval value;
  /// Enclosure of ∂e/∂v for every distinct variable v, ascending by VarId.
  std::span<const interval::Interval> derivatives;
};

/// An expression flattened to postorder for repeated forward/backward sweeps.
/// An immutable program: the sweeps are const and run over one per-thread
/// workspace (compiled.cpp), so an instance holds no scratch and every
/// revise is a pure function of its target and the argument domains.
/// Concurrent sweeps of one instance from different threads are safe.
class CompiledExpr {
 public:
  explicit CompiledExpr(const Expr& e);

  /// Distinct variables, ascending.
  const std::vector<VarId>& variables() const noexcept { return vars_; }

  /// One-past the largest variable id (callers size domain vectors by this).
  std::size_t variableSpan() const noexcept { return span_; }

  std::size_t nodeCount() const noexcept { return nodes_.size(); }

  /// Forward sweep only: interval enclosure of the expression over the box.
  interval::Interval evaluate(
      std::span<const interval::Interval> domains) const;

  /// Fused forward-mode AD sweep: one pass over the postorder node array
  /// computes the value enclosure *and* the derivative enclosure with
  /// respect to every distinct variable at once.  The per-variable
  /// derivative enclosures are bit-identical to the tree walk
  /// `oracle::evalDerivative` in tests/oracle (same formulas, same
  /// operation order) — the miner's differential tests rely on this.  The
  /// miner and the simulated designer take every partial from here.
  /// Counts as a single expression sweep where a tree walk costs one
  /// `evaluate` plus one `oracle::evalDerivative` walk per (variable,
  /// expression) pair.
  DerivativeSweep derivatives(
      std::span<const interval::Interval> domains) const;

  /// Full HC4-revise: narrows `domains` in place to values compatible with
  /// expression ∈ target.  If the revise proves infeasibility, domains are
  /// left unchanged and `feasible` is false.
  ReviseResult revise(const interval::Interval& target,
                      std::span<interval::Interval> domains) const;

  /// HC4-revise against `tolerancedTarget(rawTarget, value)`, where `value`
  /// is this revise's own forward enclosure: one sweep where
  /// `evaluate` → `tolerancedTarget` → `revise` takes two, with a
  /// bit-identical result.  The padded target is returned in
  /// `ReviseResult::target`.
  ReviseResult revisePadded(const interval::Interval& rawTarget,
                            std::span<interval::Interval> domains) const;

 private:
  struct CNode {
    OpKind kind;
    double value;
    VarId var;
    int exponent;
    int child0;
    int child1;
  };

  /// A Var node and the index of its variable in `vars_`.
  struct VarSlot {
    std::size_t node;
    std::size_t slot;
  };

  int compile(const Expr& e);
  /// Writes the enclosure of every node to fwd[0, nodeCount()).
  void forwardSweep(std::span<const interval::Interval> domains,
                    interval::Interval* fwd) const;
  /// Backward projection and harvest over the node enclosures in `fwd` (a
  /// forward sweep's output).
  ReviseResult backwardSweep(const interval::Interval& target,
                             std::span<interval::Interval> domains,
                             const interval::Interval* fwd) const;

  std::vector<CNode> nodes_;  // postorder; root is nodes_.back()
  std::vector<VarId> vars_;
  /// Every Var node with its slot, in node order (the harvest's input).
  std::vector<VarSlot> varSlots_;
  std::size_t span_ = 0;
};

}  // namespace adpm::expr
