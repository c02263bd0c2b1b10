// Design constraints and their three-valued status.
//
// "A constraint c_i is satisfied if it holds for all combinations of the
// current argument values; violated if it returns False for all
// combinations; and consistent otherwise." (paper, Section 2.1)
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "constraint/ids.hpp"
#include "expr/compiled.hpp"
#include "expr/derivative.hpp"
#include "expr/expr.hpp"

namespace adpm::constraint {

enum class Relation : std::uint8_t { Le, Ge, Eq };

const char* relationSymbol(Relation r) noexcept;

/// Status values; `Consistent` is the paper's s(c_i) = Unknown case.
enum class Status : std::uint8_t { Satisfied, Violated, Consistent };

const char* statusName(Status s) noexcept;

/// A relation lhs REL rhs over properties, kept in the canonical residual
/// form g = lhs - rhs with a target interval (g <= 0, g >= 0, or g = 0).
class Constraint {
 public:
  Constraint(ConstraintId id, std::string name, expr::Expr lhs, Relation rel,
             expr::Expr rhs);

  ConstraintId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  Relation relation() const noexcept { return rel_; }
  const expr::Expr& lhs() const noexcept { return lhs_; }
  const expr::Expr& rhs() const noexcept { return rhs_; }
  /// Canonical residual g = lhs - rhs.
  const expr::Expr& residual() const noexcept { return residual_; }
  /// Target interval for the residual ([-inf,0], [0,inf], or [0,0]).
  interval::Interval target() const noexcept;

  /// Argument properties a_i (variable ids of the residual).
  const std::vector<PropertyId>& arguments() const noexcept { return args_; }

  bool involves(PropertyId p) const noexcept;

  /// The compiled residual for evaluation/HC4; one instance per constraint,
  /// so a Constraint is not safe for concurrent evaluation.
  expr::CompiledExpr& compiled() noexcept { return *compiled_; }

  /// Miner cache: residual enclosure and per-argument derived direction from
  /// the last compiled-AD sweep, keyed on the network's box generation
  /// counter (`Network::generation()`).  A mine over an unchanged box — the
  /// common case for what-if reporting and repeated browser refreshes —
  /// reuses this instead of re-sweeping the expression.  None of the cached
  /// quantities are charged evaluations (mining bookkeeping never is), so
  /// the cache cannot perturb the paper's cost metric.
  struct MiningCache {
    std::uint64_t generation = std::numeric_limits<std::uint64_t>::max();
    interval::Interval residual;
    /// Parallel to `arguments()`.
    std::vector<expr::Direction> argDirection;
  };
  MiningCache& miningCache() noexcept { return miningCache_; }

  /// Declared monotonicity (from DDDL "monotone increasing/decreasing in"):
  /// the direction of the *property* movement that helps satisfy the
  /// constraint.  Empty entries fall back to derived monotonicity.
  void declareHelpDirection(PropertyId p, bool increaseHelps);
  /// Returns +1 if increasing p helps satisfy this constraint, -1 if
  /// decreasing helps, 0 if undeclared.
  int declaredHelpDirection(PropertyId p) const noexcept;

  /// Human-readable rendering "lhs <= rhs".
  std::string str() const;

 private:
  ConstraintId id_;
  std::string name_;
  expr::Expr lhs_;
  Relation rel_;
  expr::Expr rhs_;
  expr::Expr residual_;
  std::vector<PropertyId> args_;
  std::unique_ptr<expr::CompiledExpr> compiled_;
  std::map<PropertyId, int> declaredHelp_;
  MiningCache miningCache_;
};

/// Classifies a residual enclosure against a target interval per the paper's
/// three-valued semantics.
Status classify(const interval::Interval& residual,
                const interval::Interval& target) noexcept;

/// The feasibility tolerance and its target padding are defined once, in
/// the expression layer, so `CompiledExpr::revisePadded` and classification
/// apply the same rule.
using expr::kFeasibilityTolerance;
using expr::tolerancedTarget;

}  // namespace adpm::constraint
