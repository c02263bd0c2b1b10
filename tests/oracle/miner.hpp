// Reference miner: the specification constraint::HeuristicMiner is tested
// against.
//
// It derives every help direction by tree walks — one `evaluate` of the
// residual plus one symbolic `monotonicity` walk per (property, constraint)
// incidence, Θ(Σβᵢ) sweeps per mine — with no cache, its own copy of the
// precedence rules, and the reference propagator for what-if runs.  The
// shipped miner shares none of this code, so the differential tests can
// catch a fault in either.
#pragma once

#include <vector>

#include "constraint/miner.hpp"
#include "oracle/propagate.hpp"

namespace adpm::oracle {

/// The direction of property movement that helps satisfy a constraint, given
/// the current violation side: +1 increase helps, -1 decrease helps, 0 no
/// verdict.
///
/// Precedence: a *proven* sign (Increasing/Decreasing) wins; a proven
/// Constant — derivative identically zero over the box, so moving p
/// provably cannot help — yields 0 with **no** fallback; only an *unproven*
/// sign (Unknown) falls back to the DDDL-declared direction.
int helpDirection(constraint::Constraint& c, constraint::PropertyId p,
                  const std::vector<interval::Interval>& box);

class ReferenceMiner {
 public:
  using Options = constraint::HeuristicMiner::Options;

  ReferenceMiner() = default;
  explicit ReferenceMiner(Options options) : options_(options) {}

  /// Same contract as constraint::HeuristicMiner::mine.
  constraint::GuidanceReport mine(
      constraint::Network& net,
      const constraint::PropagationResult& prop) const;

 private:
  Options options_;
  ReferencePropagator propagator_;
};

}  // namespace adpm::oracle
