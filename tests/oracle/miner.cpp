#include "oracle/miner.hpp"

#include "oracle/expr.hpp"

namespace adpm::oracle {

using constraint::Constraint;
using constraint::ConstraintId;
using constraint::GuidanceReport;
using constraint::Network;
using constraint::PropagationResult;
using constraint::Property;
using constraint::PropertyGuidance;
using constraint::PropertyId;
using constraint::Relation;

int helpDirection(Constraint& c, PropertyId p,
                  const std::vector<interval::Interval>& box) {
  // Which way the residual must move: for a violated constraint, toward the
  // target from the side its enclosure sits on; otherwise the relation's
  // natural side (Le wants the residual lower, Ge higher, Eq has none).
  const interval::Interval residual = c.compiled().evaluate(box);
  const interval::Interval& target = c.target();
  int shift = 0;
  if (!residual.empty() && !target.empty()) {
    if (residual.lo() > target.hi()) shift = -1;
    if (residual.hi() < target.lo()) shift = +1;
  }
  if (shift == 0) {
    if (c.relation() == Relation::Eq) return 0;
    shift = c.relation() == Relation::Le ? -1 : +1;
  }

  switch (monotonicity(c.residual(), box, p.value)) {
    case expr::Direction::Increasing:
      return shift;
    case expr::Direction::Decreasing:
      return -shift;
    case expr::Direction::Unknown:
      return c.declaredHelpDirection(p);
    case expr::Direction::Constant:
    case expr::Direction::None:
      return 0;
  }
  return 0;
}

GuidanceReport ReferenceMiner::mine(Network& net,
                                    const PropagationResult& prop) const {
  GuidanceReport report;
  report.violated = prop.violated;
  report.properties.resize(net.propertyCount());

  const auto box = net.currentBox();

  for (std::uint32_t pi = 0; pi < net.propertyCount(); ++pi) {
    const PropertyId pid{pi};
    PropertyGuidance& g = report.properties[pi];
    g.id = pid;

    const Property& p = net.property(pid);
    g.feasible = prop.feasible.at(pi);
    g.relativeFeasibleSize = g.feasible.relativeMeasure(p.initial);
    if (p.bound()) g.relativeFeasibleSize = 1.0;

    g.beta = 0;
    for (ConstraintId cid : net.constraintsOf(pid)) {
      if (!net.isActive(cid)) continue;
      ++g.beta;
      Constraint& c = net.constraint(cid);
      const bool violated = prop.isViolated(cid);
      if (violated) ++g.alpha;

      const int dir = helpDirection(c, pid, box);
      if (dir > 0) {
        g.increasing.push_back(cid);
        if (violated) ++g.repairVotesUp;
      } else if (dir < 0) {
        g.decreasing.push_back(cid);
        if (violated) ++g.repairVotesDown;
      }
    }

    if (options_.whatIfForViolated && p.bound() && g.alpha > 0) {
      const PropagationResult relaxed = propagator_.runRelaxed(net, pid);
      report.extraEvaluations += relaxed.evaluations;
      g.feasible = relaxed.feasible.at(pi);
      g.relativeFeasibleSize = g.feasible.relativeMeasure(p.initial);
    }
  }
  return report;
}

}  // namespace adpm::oracle
