#include "constraint/miner.hpp"

#include <algorithm>

#include "expr/derivative.hpp"

namespace adpm::constraint {

namespace {

/// Which way the residual must move to reach the target: +1 up, -1 down,
/// 0 already overlapping (not violated) or no verdict.
int neededResidualShift(const interval::Interval& residual,
                        const interval::Interval& target) noexcept {
  if (residual.empty() || target.empty()) return 0;
  if (residual.lo() > target.hi()) return -1;  // residual entirely above
  if (residual.hi() < target.lo()) return +1;  // entirely below
  return 0;
}

/// Combines the residual's position, the relation's natural side, and the
/// derived slope direction into a help direction: +1 increase helps, -1
/// decrease helps, 0 no verdict.  Precedence (see HeuristicMiner::mine):
/// proven sign > proven Constant (0, no fallback) > declared fallback for
/// Unknown.
int combineHelpDirection(const Constraint& c, PropertyId p,
                         const interval::Interval& residual,
                         expr::Direction slope) {
  // Decide which way the residual needs to move.  For a violated constraint
  // the side is determined by where the residual enclosure sits relative to
  // the target; for a non-violated one we use the relation's natural side
  // (Le wants the residual lower, Ge higher).  This reuses the state the
  // propagation pass just computed, so it is bookkeeping, not a tool run —
  // no evaluation charge.
  int shift = neededResidualShift(residual, c.target());
  if (shift == 0) {
    switch (c.relation()) {
      case Relation::Le: shift = -1; break;
      case Relation::Ge: shift = +1; break;
      case Relation::Eq: return 0;  // no natural side
    }
  }

  switch (slope) {
    case expr::Direction::Increasing:
      return shift;
    case expr::Direction::Decreasing:
      return -shift;
    case expr::Direction::Constant:
    case expr::Direction::None:
      // Proven ineffective over this box (or not an argument at all): no
      // direction, and no declared fallback — a declaration must not
      // override a proof that moving p cannot change the residual.
      return 0;
    case expr::Direction::Unknown:
      break;
  }
  // Derived monotonicity is inconclusive over this box; fall back to the
  // DDDL-declared help direction if the scenario provided one.
  return c.declaredHelpDirection(p);
}

/// Help direction of `p` in `c`: reads the constraint's mining cache,
/// refreshing it with one fused AD sweep when the box generation moved.
int cachedHelpDirection(Constraint& c, PropertyId p, std::uint64_t generation,
                        const std::vector<interval::Interval>& box) {
  Constraint::MiningCache& cache = c.miningCache();
  if (cache.generation != generation) {
    const expr::DerivativeSweep sweep = c.compiled().derivatives(box);
    cache.residual = sweep.value;
    cache.argDirection.resize(c.arguments().size());
    for (std::size_t k = 0; k < cache.argDirection.size(); ++k) {
      cache.argDirection[k] = expr::directionOf(sweep.derivatives[k]);
    }
    cache.generation = generation;
  }
  // arguments() is ascending by id (it mirrors the compiled expression's
  // variable list), so the argument slot is a binary search away.
  const auto& args = c.arguments();
  const auto it = std::lower_bound(args.begin(), args.end(), p);
  const auto k = static_cast<std::size_t>(it - args.begin());
  return combineHelpDirection(c, p, cache.residual, cache.argDirection[k]);
}

}  // namespace

GuidanceReport HeuristicMiner::mine(Network& net,
                                    const PropagationResult& prop) const {
  GuidanceReport report;
  report.violated = prop.violated;
  report.properties.resize(net.propertyCount());

  const auto box = net.currentBox();
  const std::uint64_t generation = net.generation();

  for (std::uint32_t pi = 0; pi < net.propertyCount(); ++pi) {
    const PropertyId pid{pi};
    PropertyGuidance& g = report.properties[pi];
    g.id = pid;

    const Property& p = net.property(pid);
    g.feasible = prop.feasible.at(pi);
    g.relativeFeasibleSize = g.feasible.relativeMeasure(p.initial);
    // A bound property's propagated subspace degenerates to its point value;
    // without a what-if range its *rebinding* freedom is simply unknown, so
    // report full size rather than zero (zero would make every later genuine
    // reduction invisible to the NM's diff).
    if (p.bound()) g.relativeFeasibleSize = 1.0;

    g.beta = 0;
    for (ConstraintId cid : net.constraintsOf(pid)) {
      if (!net.isActive(cid)) continue;  // not generated yet
      ++g.beta;
      Constraint& c = net.constraint(cid);
      const bool violated = prop.isViolated(cid);
      if (violated) ++g.alpha;

      const int dir = cachedHelpDirection(c, pid, generation, box);
      if (dir > 0) {
        g.increasing.push_back(cid);
        if (violated) ++g.repairVotesUp;
      } else if (dir < 0) {
        g.decreasing.push_back(cid);
        if (violated) ++g.repairVotesDown;
      }
    }

    // For a bound property caught in violations, the propagated feasible
    // subspace degenerates to its own point; the designer needs the what-if
    // range ("what could this be rebound to?").  That requires a relaxed
    // re-propagation — more tool runs, charged to the network.
    if (options_.whatIfForViolated && p.bound() && g.alpha > 0) {
      const PropagationResult relaxed = propagator_.runRelaxed(net, pid);
      report.extraEvaluations += relaxed.evaluations;
      report.extraReplayed += relaxed.replayed;
      g.feasible = relaxed.feasible.at(pi);
      g.relativeFeasibleSize = g.feasible.relativeMeasure(p.initial);
    }
  }
  return report;
}

}  // namespace adpm::constraint
