#include "oracle/propagate.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

namespace adpm::oracle {

using constraint::Constraint;
using constraint::ConstraintId;
using constraint::Network;
using constraint::PropagationResult;
using constraint::Property;
using constraint::PropertyId;
using constraint::Status;
using constraint::classify;
using constraint::tolerancedTarget;

namespace {

/// True when a bound moved by more than the significance tolerance.
bool movedSignificantly(const interval::Interval& before,
                        const interval::Interval& after, double tol) {
  if (before.empty() && after.empty()) return false;
  if (before.empty() != after.empty()) return true;
  const double eps = [&](double bound) {
    return tol * (1.0 + std::fabs(bound));
  }(std::max(std::fabs(before.lo()), std::fabs(before.hi())));
  return std::fabs(before.lo() - after.lo()) > eps ||
         std::fabs(before.hi() - after.hi()) > eps;
}

}  // namespace

PropagationResult ReferencePropagator::run(Network& net) const {
  return runOnBox(net, net.currentBox());
}

PropagationResult ReferencePropagator::runRelaxed(Network& net,
                                                  PropertyId p) const {
  auto box = net.currentBox();
  box[p.value] = net.property(p).initial.hull();
  return runOnBox(net, std::move(box));
}

PropagationResult ReferencePropagator::runOnBox(
    Network& net, std::vector<interval::Interval> box) const {
  const std::size_t nc = net.constraintCount();
  PropagationResult result;
  result.status.assign(nc, Status::Consistent);

  std::deque<ConstraintId> queue;
  std::vector<bool> queued(nc, false);
  for (std::uint32_t i = 0; i < nc; ++i) {
    if (!net.isActive(ConstraintId{i})) continue;  // not generated yet
    queue.push_back(ConstraintId{i});
    queued[i] = true;
  }

  const std::size_t maxRevises =
      std::max<std::size_t>(nc * options_.maxRevisesPerConstraint, nc);
  std::size_t revises = 0;
  std::size_t sweepBoundary = queue.size();
  bool sweptOnce = false;

  while (!queue.empty() && revises < maxRevises) {
    if (sweepBoundary == 0) {
      ++result.passes;
      sweepBoundary = queue.size();
      if (!options_.fixpoint && sweptOnce) break;
      sweptOnce = true;
    }
    --sweepBoundary;

    const ConstraintId cid = queue.front();
    queue.pop_front();
    queued[cid.value] = false;

    Constraint& c = net.constraint(cid);

    // Snapshot the arguments to detect significant narrowing.
    std::vector<interval::Interval> before;
    before.reserve(c.arguments().size());
    for (PropertyId arg : c.arguments()) before.push_back(box[arg.value]);

    // Revise against a tolerance-padded target: a first forward sweep sizes
    // the pad to the residual's magnitude so boundary-exact designs are not
    // flipped to Violated by rounding.
    const interval::Interval forward =
        c.compiled().evaluate({box.data(), box.size()});
    const interval::Interval target = tolerancedTarget(c.target(), forward);
    const expr::ReviseResult r =
        c.compiled().revise(target, {box.data(), box.size()});
    ++revises;

    if (!r.feasible) {
      result.status[cid.value] = Status::Violated;
      continue;  // no narrowing to propagate from a violated constraint
    }
    result.status[cid.value] = classify(r.value, target);

    if (!r.narrowed || !options_.fixpoint) continue;

    for (std::size_t i = 0; i < c.arguments().size(); ++i) {
      const PropertyId arg = c.arguments()[i];
      if (!movedSignificantly(before[i], box[arg.value], options_.tolerance)) {
        continue;
      }
      for (ConstraintId neighbour : net.constraintsOf(arg)) {
        if (neighbour == cid || queued[neighbour.value]) continue;
        if (!net.isActive(neighbour)) continue;
        queue.push_back(neighbour);
        queued[neighbour.value] = true;
      }
    }
  }
  if (result.passes == 0) result.passes = 1;

  result.evaluations = revises;
  net.chargeEvaluations(revises);

  result.hulls = std::move(box);
  result.feasible.reserve(net.propertyCount());
  for (std::uint32_t i = 0; i < net.propertyCount(); ++i) {
    const Property& p = net.property(PropertyId{i});
    result.feasible.push_back(p.initial.intersect(result.hulls[i]));
  }

  // Discrete shaving: drop values of unbound discrete properties that no
  // consistent constraint supports.
  if (options_.filterDiscrete) {
    for (std::uint32_t i = 0; i < net.propertyCount(); ++i) {
      const Property& p = net.property(PropertyId{i});
      if (!p.initial.isDiscrete() || p.bound()) continue;
      if (result.feasible[i].empty()) continue;

      std::vector<double> supported;
      for (const double v : result.feasible[i].values()) {
        bool ok = true;
        for (ConstraintId cid : net.constraintsOf(PropertyId{i})) {
          if (!net.isActive(cid)) continue;
          if (result.status[cid.value] == Status::Violated) continue;
          Constraint& c = net.constraint(cid);
          auto probe = result.hulls;
          probe[i] = interval::Interval(v);
          const interval::Interval residual =
              c.compiled().evaluate({probe.data(), probe.size()});
          ++result.evaluations;
          net.chargeEvaluations(1);
          if (!residual.intersects(tolerancedTarget(c.target(), residual))) {
            ok = false;
            break;
          }
        }
        if (ok) supported.push_back(v);
      }
      result.feasible[i] = interval::Domain::discrete(std::move(supported));
    }
  }
  for (std::uint32_t i = 0; i < nc; ++i) {
    if (result.status[i] == Status::Violated) {
      result.violated.push_back(ConstraintId{i});
    }
  }
  return result;
}

}  // namespace adpm::oracle
