// Set-valued single-variable solving.
//
// HC4 over plain intervals can only report the *hull* of the values a
// property may take under a constraint.  For disjunctive constraints — an
// |x - target| <= tol window, an even power, an abs() — the true answer is a
// union of lobes.  solveUnivariate recovers it by branch-and-prune: split
// the variable's range, revise the single constraint on each slice, keep
// the feasible (narrowed) slices, and merge.  Used for analysis and display
// (the browser's REQUIRED WINDOWS pane); the propagation fixpoint itself
// stays hull-based.
#pragma once

#include "constraint/network.hpp"
#include "interval/interval_set.hpp"

namespace adpm::constraint {

struct UnivariateOptions {
  /// Number of initial slices of the variable's range.
  int slices = 64;
  /// Subdivision depth per slice when a slice is only partially feasible.
  int refinements = 16;
};

/// The set of values of `arg` compatible with constraint `c`, holding every
/// other property at its current extent (bound value or full range).  The
/// result is a subset of arg's current hull and a superset of the true
/// solution set intersected with it (outer enclosure per lobe).
/// Not charged to the network's evaluation counter — callers decide whether
/// the computation counts as tool runs.
interval::IntervalSet solveUnivariate(const Network& net, ConstraintId c,
                                      PropertyId arg,
                                      const UnivariateOptions& options = {});

}  // namespace adpm::constraint
