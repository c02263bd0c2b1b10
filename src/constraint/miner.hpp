// Heuristic support data mining.
//
// "Constraint information is consolidated into data that explicitly supports
// heuristics ... e.g. the number of violations related to each design
// variable." (paper, Sections 2.2-2.3)
//
// For every property a_i the miner produces:
//   * v_F(a_i)  — feasible subspace (Section 2.3.1),
//   * β_i       — number of constraints where a_i appears (Section 2.3.2),
//   * α_i       — number of violated constraints where a_i appears (eq. 3),
//   * the lists of constraints monotonically increasing/decreasing in a_i
//     (designer model, Section 3.1.1), and
//   * repair direction votes: for the currently-violated monotonic
//     constraints, which direction of value change is likely to fix most
//     violations (target property selection function f_a).
#pragma once

#include <vector>

#include "constraint/propagate.hpp"

namespace adpm::constraint {

/// Per-property heuristic guidance record.
struct PropertyGuidance {
  PropertyId id{};
  /// Feasible subspace v_F(a_i).
  interval::Domain feasible;
  /// |v_F| / |E_i| in [0,1]; the smallest-feasible-subspace heuristic ranks
  /// ascending on this (raw sizes are unit-dependent, as the paper notes).
  double relativeFeasibleSize = 1.0;
  /// β_i: number of constraints where a_i appears.
  int beta = 0;
  /// α_i: number of violated constraints where a_i appears.
  int alpha = 0;
  /// Constraints that moving a_i up / down helps satisfy (monotone lists).
  std::vector<ConstraintId> increasing;
  std::vector<ConstraintId> decreasing;
  /// Among currently-violated constraints involving a_i: how many an
  /// increase (resp. decrease) of a_i would move toward satisfaction.
  int repairVotesUp = 0;
  int repairVotesDown = 0;

  /// Net preferred repair direction: +1 up, -1 down, 0 no signal/tie.
  int preferredRepairDirection() const noexcept {
    if (repairVotesUp > repairVotesDown) return 1;
    if (repairVotesDown > repairVotesUp) return -1;
    return 0;
  }
};

/// Guidance for all properties plus bookkeeping.
struct GuidanceReport {
  /// Indexed by PropertyId::value.
  std::vector<PropertyGuidance> properties;
  std::vector<ConstraintId> violated;
  /// Extra evaluations spent on what-if (relaxed) propagation for bound
  /// properties involved in violations.
  std::size_t extraEvaluations = 0;
  /// The what-if revises among `extraEvaluations` served from revise
  /// traces (`PropagationResult::replayed`).
  std::size_t extraReplayed = 0;

  const PropertyGuidance& of(PropertyId p) const { return properties.at(p.value); }
};

class HeuristicMiner {
 public:
  struct Options {
    /// Compute what-if feasible subspaces (relaxed re-propagation) for bound
    /// properties involved in violations — the "Consistent values" ranges a
    /// designer uses when rebinding.  Costs extra evaluations, which is part
    /// of ADPM's computational-penalty story.
    bool whatIfForViolated = true;
  };

  HeuristicMiner() = default;
  explicit HeuristicMiner(Options options) : options_(options) {}

  /// Consolidates one propagation result into per-property guidance.
  ///
  /// Help directions (the monotone lists and repair votes) come from one
  /// fused value+derivative sweep per constraint
  /// (`CompiledExpr::derivatives`), cached on the constraint and keyed on
  /// the network's box generation: Θ(nc) expression sweeps per mine, Θ(0)
  /// when the box is unchanged.  Derived-direction precedence: a *proven*
  /// sign (Increasing/Decreasing) wins; a proven Constant — derivative
  /// identically zero over the box, so moving the property provably cannot
  /// help — yields no direction and **no** fallback; only an *unproven*
  /// sign (Unknown) falls back to the DDDL-declared direction.
  GuidanceReport mine(Network& net, const PropagationResult& prop) const;

 private:
  Options options_;
  /// What-if propagator (default options), held (not rebuilt per mine) so
  /// its scratch arena survives across mines.
  Propagator propagator_;
};

}  // namespace adpm::constraint
