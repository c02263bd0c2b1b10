// Design constraints and their three-valued status.
//
// "A constraint c_i is satisfied if it holds for all combinations of the
// current argument values; violated if it returns False for all
// combinations; and consistent otherwise." (paper, Section 2.1)
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
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

  /// The compiled residual for evaluation/HC4: an immutable program whose
  /// sweeps run over the calling thread's workspace, so any number of
  /// threads may sweep it at once.  The caches below are per-constraint
  /// mutable state, so a Constraint as a whole is still owned by one
  /// propagation or mine at a time.
  const expr::CompiledExpr& compiled() const noexcept { return *compiled_; }

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

  /// Revise trace: the inputs and outcome of this constraint's k-th HC4
  /// revise (k < kSlots) in the last propagation run that revised it k+1
  /// times.  A revise is a pure function of the argument intervals (the
  /// compiled residual and the target never change), so when the k-th
  /// revise of a later run sees the same arguments bit for bit, the
  /// propagator replays slot k instead of sweeping the expression.  Main
  /// runs and what-ifs alternate over mostly unchanged boxes, which is what
  /// makes the k-th revises repeat.  A replayed revise is still charged as
  /// one evaluation (see docs/ARCHITECTURE.md, §4b).
  class ReviseTrace {
   public:
    /// Slots per constraint.  On zoo-medium's 25-op benchmark trajectories
    /// 24 slots replay 62% of the revises with ~670 KB of traces per
    /// network; 16 slots replay 49%, 32 slots 66%, unbounded traces 77%
    /// for ~1.5 MB (docs/ARCHITECTURE.md, §4b).
    static constexpr std::size_t kSlots = 24;

    /// What a revise concluded besides the narrowed arguments.
    struct Outcome {
      bool feasible = false;
      bool narrowed = false;
      Status status = Status::Consistent;
    };

    explicit ReviseTrace(std::size_t arity) : arity_(arity) {}

    /// Slots recorded so far.
    std::size_t size() const noexcept { return outcomes_.size(); }

    /// Slot k's outcome if its recorded arguments equal `args` bit for bit
    /// — so [−0, −0] does not match [+0, +0] — else null.
    const Outcome* match(std::size_t k,
                         std::span<const interval::Interval> args) const {
      if (k >= outcomes_.size()) return nullptr;
      // A constant residual has no arguments, and memcmp must not be handed
      // the null data of an empty buffer.
      if (arity_ != 0 &&
          std::memcmp(slot(k), args.data(), arity_ * sizeof(args[0])) != 0) {
        return nullptr;
      }
      return &outcomes_[k];
    }

    /// Slot k's arguments after its revise; set only when it narrowed.
    std::span<const interval::Interval> after(std::size_t k) const noexcept {
      return {slot(k) + arity_, arity_};
    }

    /// Records the k-th revise of the current run (k <= size(); slots past
    /// kSlots are dropped).  `after` is read only when `outcome.narrowed`.
    void record(std::size_t k, std::span<const interval::Interval> before,
                std::span<const interval::Interval> after, Outcome outcome);

    /// Empties every slot, keeping the storage.
    void forget() noexcept {
      outcomes_.clear();
      io_.clear();
    }

   private:
    static_assert(std::is_trivially_copyable_v<interval::Interval> &&
                  sizeof(interval::Interval) == 2 * sizeof(double));

    const interval::Interval* slot(std::size_t k) const noexcept {
      return io_.data() + k * 2 * arity_;
    }

    std::size_t arity_;
    std::vector<Outcome> outcomes_;
    /// Per slot: the arity arguments before the revise, then after it.
    std::vector<interval::Interval> io_;
  };
  ReviseTrace& reviseTrace() noexcept { return reviseTrace_; }
  const ReviseTrace& reviseTrace() const noexcept { return reviseTrace_; }

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
  ReviseTrace reviseTrace_{0};
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
