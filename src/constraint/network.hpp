// The constraint network C_n: all properties and constraints of the current
// design state, with binding operations and status evaluation.
//
// This module is the equivalent of the paper's CCM constraint-management
// infrastructure (Carballo & Director, DAC'99): constraints are generated
// into the network as the design process runs, and the Design Constraint
// Manager evaluates/propagates them.  Every status evaluation and every
// HC4 revise increments the network's evaluation counter — the paper's
// "number of constraint evaluations" cost metric (a proxy for verification
// tool runs).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "constraint/constraint.hpp"
#include "constraint/property.hpp"

namespace adpm::constraint {

/// Everything needed to register a property.
struct PropertySpec {
  std::string name;
  std::string object;
  interval::Domain initial;
  std::string unit;
  std::vector<std::string> abstractionLevels;
  /// -1 prefer small, +1 prefer large, 0 no preference.
  int preference = 0;
};

class Network {
 public:
  Network() = default;

  // Non-copyable (constraints hold per-constraint caches); movable.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  // -- construction ----------------------------------------------------------

  PropertyId addProperty(PropertySpec spec);

  /// Adds lhs REL rhs.  All variables in the expressions must be ids of
  /// already-registered properties.  An inactive constraint is registered
  /// (stable id, adjacency) but invisible to evaluation and propagation
  /// until activated — the paper's DPM "generates any necessary constraints"
  /// as the process unfolds, which is modelled as activation.
  ConstraintId addConstraint(std::string name, expr::Expr lhs, Relation rel,
                             expr::Expr rhs, bool active = true);

  bool isActive(ConstraintId c) const;
  void activate(ConstraintId c);
  /// Number of currently active constraints (what the Fig. 8 statistics
  /// window displays as "number of constraints").
  std::size_t activeConstraintCount() const noexcept;

  /// Expression variable for a property (names the variable after it).
  expr::Expr var(PropertyId p) const;

  // -- lookup ----------------------------------------------------------------

  std::size_t propertyCount() const noexcept { return properties_.size(); }
  std::size_t constraintCount() const noexcept { return constraints_.size(); }

  /// Read-only: bind/unbind are the only way to change a property, which is
  /// what keeps `generation()` exact.
  const Property& property(PropertyId p) const;
  const Constraint& constraint(ConstraintId c) const;
  Constraint& constraint(ConstraintId c);

  std::optional<PropertyId> findProperty(std::string_view name) const noexcept;
  std::optional<ConstraintId> findConstraint(std::string_view name) const noexcept;

  /// Constraints mentioning property p (the basis of β_i).
  const std::vector<ConstraintId>& constraintsOf(PropertyId p) const;

  std::vector<PropertyId> propertyIds() const;
  std::vector<ConstraintId> constraintIds() const;

  // -- binding ---------------------------------------------------------------

  /// Binds p to value v (v need not lie in E_i; designers can and do pick
  /// out-of-range values in conventional mode, which is how conflicts arise).
  void bind(PropertyId p, double v);
  void unbind(PropertyId p);

  /// The evaluation box: bound properties appear as points, unbound ones as
  /// their full range hull.
  std::vector<interval::Interval> currentBox() const;

  // -- evaluation ------------------------------------------------------------

  /// Forward-evaluates one constraint over the current box; counts one
  /// evaluation.  This is the conventional flow's primitive (a verification
  /// tool run).
  Status evaluate(ConstraintId c);

  /// Evaluates a set of constraints; returns their statuses in order.
  std::vector<Status> evaluate(const std::vector<ConstraintId>& ids);

  /// Total evaluations since construction or the last reset.
  std::size_t evaluationCount() const noexcept { return evaluations_; }
  void resetEvaluationCount() noexcept { evaluations_ = 0; }
  /// Used by the propagation engine to charge its revises to this network.
  void chargeEvaluations(std::size_t n) noexcept { evaluations_ += n; }

  /// Box generation: bumped by every mutation routed through this API that
  /// can change `currentBox()` or the active set (add/bind/unbind/activate).
  /// The miner keys its per-constraint residual/direction caches on this,
  /// so repeated mines over an unchanged box (what-if reporting, repeated
  /// browser refreshes) skip recomputation.
  std::uint64_t generation() const noexcept { return generation_; }

  /// Empties every constraint's revise trace, so the next propagation run
  /// sweeps every revise (benchmarks use this to measure cold runs).  Never
  /// needed for correctness: a trace slot is keyed on the exact arguments.
  void forgetReviseTraces() noexcept;

 private:
  std::vector<Property> properties_;
  std::vector<std::unique_ptr<Constraint>> constraints_;
  std::vector<bool> active_;
  std::vector<std::vector<ConstraintId>> byProperty_;
  std::size_t evaluations_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace adpm::constraint
