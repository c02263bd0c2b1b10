#include "teamsim/designer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>

#include "expr/compiled.hpp"
#include "expr/eval.hpp"

namespace adpm::teamsim {

using constraint::ConstraintId;
using constraint::PropertyId;
using constraint::Relation;
using constraint::Status;

namespace {

/// The designer's reading of the current design point: each property's
/// bound value, else the middle of its initial range.
std::vector<double> designPoint(const constraint::Network& net) {
  std::vector<double> point(net.propertyCount());
  for (std::uint32_t i = 0; i < net.propertyCount(); ++i) {
    const constraint::Property& p = net.property(PropertyId{i});
    point[i] = p.bound() ? *p.value : p.initial.hull().mid();
  }
  return point;
}

/// (variable, partial) for each variable of a compiled expression, ascending:
/// the midpoint of the ∂e/∂v enclosure from one derivatives sweep over
/// `pointBox`, copied out of the thread's sweep workspace.
using PointPartials = std::vector<std::pair<expr::VarId, double>>;
PointPartials pointPartials(const expr::CompiledExpr& compiled,
                            std::span<const interval::Interval> pointBox) {
  const expr::DerivativeSweep sweep = compiled.derivatives(pointBox);
  PointPartials out;
  out.reserve(sweep.derivatives.size());
  for (std::size_t i = 0; i < sweep.derivatives.size(); ++i) {
    out.emplace_back(compiled.variables()[i], sweep.derivatives[i].mid());
  }
  return out;
}

/// A defining equality model of a property p: constraint `model` reads
/// `p == *other` (either side), where `other` does not mention p.
struct DefiningModel {
  ConstraintId model;
  const expr::Expr* other;
};

/// Defining equality models: constraints of the form `p == f(...)` (or the
/// mirror) where f does not mention p.  A property with such a model is
/// *derived* — a tool computes it; the designer cannot choose it freely.
std::vector<DefiningModel> definingModels(const constraint::Network& net,
                                          PropertyId p) {
  std::vector<DefiningModel> out;
  for (constraint::ConstraintId cid : net.constraintsOf(p)) {
    if (!net.isActive(cid)) continue;  // not generated yet
    const constraint::Constraint& c = net.constraint(cid);
    if (c.relation() != Relation::Eq) continue;
    const expr::Expr* other = nullptr;
    if (c.lhs().kind() == expr::OpKind::Var && c.lhs().node().var == p.value) {
      other = &c.rhs();
    } else if (c.rhs().kind() == expr::OpKind::Var &&
               c.rhs().node().var == p.value) {
      other = &c.lhs();
    }
    if (other != nullptr && !expr::mentions(*other, p.value)) {
      out.push_back({cid, other});
    }
  }
  return out;
}

/// The value a model's `other` side computes from the current bindings:
/// nullopt unless every input is bound and the result is finite.
std::optional<double> modelValue(const constraint::Network& net,
                                 const expr::Expr& other) {
  std::vector<double> values(net.propertyCount(), 0.0);
  for (expr::VarId v : expr::variablesOf(other)) {
    const constraint::Property& ap = net.property(PropertyId{v});
    if (!ap.bound()) return std::nullopt;
    values[v] = *ap.value;
  }
  const double computed = expr::evalPoint(other, values);
  if (!std::isfinite(computed)) return std::nullopt;
  return computed;
}

/// "Read the value off the tool": when a violated model pins property p as
/// the lone subject of an equality whose other side is fully determined, the
/// designer can set p to the computed value directly instead of stepping
/// toward it.  Returns nullopt when no such model applies.
std::optional<double> solveFromEqualityModel(
    const dpm::DesignProcessManager& dpm, PropertyId p) {
  const constraint::Network& net = dpm.network();
  for (const DefiningModel& m : definingModels(net, p)) {
    if (dpm.knownStatuses()[m.model.value] != Status::Violated) continue;
    if (const auto solved = modelValue(net, *m.other)) return solved;
  }
  return std::nullopt;
}

/// Value of `pid` in the world where design variable `b` is set to `x`, all
/// other design variables keep their current values, and every derived
/// property is recomputed from its defining model (the designer mentally
/// re-running their spreadsheet).  `excluded` is the constraint under
/// repair, never used as a model.
double resolvedValue(const constraint::Network& net, PropertyId pid,
                     PropertyId b, double x, const std::vector<double>& point,
                     ConstraintId excluded, int depth) {
  if (pid == b) return x;
  if (depth > 0) {
    for (const DefiningModel& m : definingModels(net, pid)) {
      if (m.model == excluded) continue;
      std::vector<double> values(net.propertyCount(), 0.0);
      for (expr::VarId v : expr::variablesOf(*m.other)) {
        values[v] =
            resolvedValue(net, PropertyId{v}, b, x, point, excluded, depth - 1);
      }
      const double computed = expr::evalPoint(*m.other, values);
      if (std::isfinite(computed)) return computed;
    }
  }
  return point[pid.value];
}

/// Residual of constraint `c` as a function of design variable `b` alone,
/// with derived properties resynced (see resolvedValue).
double resolvedResidual(const constraint::Network& net,
                        const constraint::Constraint& c, PropertyId b,
                        double x, const std::vector<double>& point) {
  std::vector<double> values(net.propertyCount(), 0.0);
  for (PropertyId a : c.arguments()) {
    values[a.value] = resolvedValue(net, a, b, x, point, c.id(), 4);
  }
  return expr::evalPoint(c.residual(), values);
}

/// 1-D boundary solve: the value of `b` in its range that brings constraint
/// `c` to its boundary, nudged `margin` into the satisfying side.  Engineers
/// do exactly this with the numbers a verification tool reports ("power is
/// 26.6 mW against a 25 mW cap — back the gain off to ...").  Returns
/// nullopt when the constraint has no crossing inside b's range.
std::optional<double> solveBoundary(const constraint::Network& net,
                                    const constraint::Constraint& c,
                                    PropertyId b,
                                    const std::vector<double>& point,
                                    double margin) {
  const interval::Interval range = net.property(b).initial.hull();
  if (!range.isBounded() || range.isPoint()) return std::nullopt;

  // Satisfaction test for a residual value.
  auto satisfied = [&](double g) {
    switch (c.relation()) {
      case Relation::Le: return g <= 0.0;
      case Relation::Ge: return g >= 0.0;
      case Relation::Eq: return g == 0.0;
    }
    return false;
  };

  // Scan for a sign change of "satisfied-ness" across the range.
  constexpr int kSamples = 32;
  const double width = range.width();
  double prevX = range.lo();
  double prevG = resolvedResidual(net, c, b, prevX, point);
  double bestLo = 0.0;
  double bestHi = 0.0;
  bool found = false;
  for (int i = 1; i <= kSamples; ++i) {
    const double x = range.lo() + width * i / kSamples;
    const double g = resolvedResidual(net, c, b, x, point);
    if (std::isfinite(prevG) && std::isfinite(g) &&
        (satisfied(prevG) != satisfied(g) ||
         (prevG > 0.0) != (g > 0.0))) {
      bestLo = prevX;
      bestHi = x;
      found = true;
      break;
    }
    prevX = x;
    prevG = g;
  }
  if (!found) return std::nullopt;

  // Bisect to the crossing.
  double lo = bestLo;
  double hi = bestHi;
  double gLo = resolvedResidual(net, c, b, lo, point);
  for (int iter = 0; iter < 50; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double gMid = resolvedResidual(net, c, b, mid, point);
    if ((gLo > 0.0) == (gMid > 0.0)) {
      lo = mid;
      gLo = gMid;
    } else {
      hi = mid;
    }
  }
  const double root = 0.5 * (lo + hi);

  if (c.relation() == Relation::Eq) return range.clamp(root);
  // Step `margin` into the satisfying side.
  const double gRight =
      resolvedResidual(net, c, b, std::min(root + 1e-6 * width, range.hi()),
                       point);
  const bool rightSatisfies = satisfied(gRight);
  const double value = rightSatisfies ? root + margin : root - margin;
  return range.clamp(value);
}

/// Clamps a proposed repair value so it does not walk through the boundary
/// of any constraint the designer can check outright (every other argument
/// bound).  Stepping Vref below its floor to chase a noise spec just trades
/// one violation for another; an engineer stops at the boundary.
double clampToKnownConstraints(const dpm::DesignProcessManager& dpm,
                               PropertyId pid, double current,
                               double proposed) {
  const constraint::Network& net = dpm.network();
  std::vector<double> values = designPoint(net);

  double value = proposed;
  for (ConstraintId cid : net.constraintsOf(pid)) {
    if (!net.isActive(cid)) continue;
    const constraint::Constraint& c = net.constraint(cid);
    if (c.relation() == Relation::Eq) continue;  // models resync afterwards
    bool checkable = true;
    for (PropertyId a : c.arguments()) {
      if (!(a == pid) && !net.property(a).bound()) {
        checkable = false;
        break;
      }
    }
    if (!checkable) continue;

    auto residualAt = [&](double x) {
      values[pid.value] = x;
      return expr::evalPoint(c.residual(), values);
    };
    auto ok = [&](double g) {
      return c.relation() == Relation::Le ? g <= 0.0 : g >= 0.0;
    };
    // Only guard boundaries the current value respects; a constraint that is
    // already violated is what the repair is trying to escape.
    if (!ok(residualAt(current))) continue;
    if (ok(residualAt(value))) continue;

    // Bisect between current (ok) and value (not ok) for the boundary.
    double lo = current;
    double hi = value;
    for (int iter = 0; iter < 50; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (ok(residualAt(mid))) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    // Stop short of the boundary, on the satisfying side.
    value = current + (lo - current) * 0.9;
  }
  return value;
}

}  // namespace

SimulatedDesigner::SimulatedDesigner(std::string name,
                                     const SimulationOptions& options,
                                     std::uint64_t seed)
    : name_(std::move(name)), options_(options), rng_(seed) {}

std::vector<dpm::ProblemId> SimulatedDesigner::selectProblems(
    const dpm::DesignProcessManager& dpm) const {
  // f_p: assigned problems that are addressable (not Waiting/Unassigned).
  std::vector<dpm::ProblemId> out;
  for (dpm::ProblemId id : dpm.problemsOf(name_)) {
    const dpm::ProblemStatus s = dpm.problem(id).status;
    if (s == dpm::ProblemStatus::Ready || s == dpm::ProblemStatus::InProgress ||
        s == dpm::ProblemStatus::Solved) {
      out.push_back(id);
    }
  }
  return out;
}

std::optional<dpm::Operation> SimulatedDesigner::nextOperation(
    dpm::DesignProcessManager& dpm) {
  const std::vector<dpm::ProblemId> problems = selectProblems(dpm);
  if (problems.empty()) return std::nullopt;

  // Release undecomposed work first: a problem with Unassigned children
  // needs its decomposition operator applied before anyone can act on them.
  for (dpm::ProblemId id : problems) {
    for (dpm::ProblemId child : dpm.problem(id).children) {
      if (dpm.problem(child).status == dpm::ProblemStatus::Unassigned) {
        dpm::Operation op;
        op.kind = dpm::OperatorKind::Decomposition;
        op.problem = id;
        op.designer = name_;
        op.rationale = "release subproblems of " + dpm.problem(id).name;
        return op;
      }
    }
  }

  // f_a priority 1: violations exist -> repair.
  if (auto op = makeRepair(dpm, problems)) return op;
  // f_a priority 2: unbound outputs -> bind (smallest subspace first).
  if (auto op = makeBinding(dpm, problems)) return op;
  // Conventional flow: request verification for completed work.
  if (!dpm.adpmEnabled()) {
    if (auto op = makeVerification(dpm, problems)) return op;
  }
  // Optimization operators: once the design is complete, spend the optional
  // improvement budget.
  if (options_.optimizationPasses > optimizationMoves_ &&
      dpm.designComplete()) {
    if (auto op = makeOptimization(dpm, problems)) return op;
  }
  return std::nullopt;
}

std::optional<dpm::Operation> SimulatedDesigner::makeOptimization(
    dpm::DesignProcessManager& dpm,
    const std::vector<dpm::ProblemId>& problems) {
  const constraint::Network& net = dpm.network();
  const std::vector<double> point = designPoint(net);

  std::vector<std::pair<PropertyId, dpm::ProblemId>> candidates;
  for (dpm::ProblemId id : problems) {
    for (PropertyId pid : dpm.problem(id).outputs) {
      const constraint::Property& p = net.property(pid);
      if (dpm.isFrozen(pid) || !p.bound()) continue;
      if (p.preference == 0 || p.initial.isDiscrete()) continue;
      if (!definingModels(net, pid).empty()) continue;  // derived
      candidates.emplace_back(pid, id);
    }
  }
  rng_.shuffle(candidates);

  for (const auto& [pid, problem] : candidates) {
    const constraint::Property& p = net.property(pid);
    const interval::Interval range = p.initial.hull();

    // A move is admissible only if every active constraint still holds in
    // the resynced world (derived properties recomputed through models).
    auto safeAt = [&](double target) {
      for (ConstraintId cid : net.constraintIds()) {
        if (!net.isActive(cid)) continue;
        const constraint::Constraint& c = net.constraint(cid);
        if (c.relation() == Relation::Eq) continue;  // models resync after
        const double g = resolvedResidual(net, c, pid, target, point);
        const bool ok = c.relation() == Relation::Le ? g <= 0.0 : g >= 0.0;
        if (!ok || !std::isfinite(g)) return false;
      }
      return true;
    };

    // Back off through halved steps when the full nudge crosses a boundary.
    double step = range.width() * options_.optimizationStep;
    for (int attempt = 0; attempt < 4; ++attempt, step *= 0.5) {
      const double target =
          range.clamp(*p.value + (p.preference > 0 ? step : -step));
      if (std::fabs(target - *p.value) < 1e-12) break;
      if (!safeAt(target)) continue;

      dpm::Operation op;
      op.kind = dpm::OperatorKind::Synthesis;
      op.problem = problem;
      op.designer = name_;
      op.assignments.emplace_back(pid, target);
      op.rationale = "optimize " + p.name + " toward its preferred " +
                     (p.preference > 0 ? "maximum" : "minimum");
      ++optimizationMoves_;
      return op;
    }
  }
  return std::nullopt;
}

std::vector<SimulatedDesigner::RepairCandidate>
SimulatedDesigner::repairCandidates(
    dpm::DesignProcessManager& dpm,
    const std::vector<dpm::ProblemId>& problems) {
  const constraint::GuidanceReport* guidance = dpm.latestGuidance();
  const constraint::Network& net = dpm.network();

  // Properties this designer can move: outputs of addressable problems.
  std::vector<PropertyId> mine;
  for (dpm::ProblemId id : problems) {
    for (PropertyId o : dpm.problem(id).outputs) {
      if (!dpm.isFrozen(o)) mine.push_back(o);
    }
  }

  // Sensitivity analysis: the total derivative of a residual with respect
  // to a design variable at the current point, chained through defining
  // equality models (d res/d b = Σ_x ∂res/∂x · dx/db).  This is the
  // designer's own discipline knowledge — engineers know which knob moves
  // which number and by how much — and also the paper's §2.3.2 extension
  // ("β_i may also include constraints indirectly related to a_i by an
  // intermediate constraint").
  const std::vector<double> point = designPoint(net);
  std::vector<interval::Interval> pointBox;
  pointBox.reserve(point.size());
  for (double v : point) pointBox.emplace_back(v);

  // Point partials of each defining model's `other` side, one sweep per
  // side: the point is fixed for this call.  Keyed by the side, not the
  // model: one equality a == b is a defining model of both a and b, with a
  // different `other` for each.
  std::unordered_map<const expr::Expr*, PointPartials> modelPartials;
  auto partialsOf = [&](const expr::Expr& other) -> const PointPartials& {
    auto it = modelPartials.find(&other);
    if (it == modelPartials.end()) {
      expr::CompiledExpr compiled(other);
      it = modelPartials.emplace(&other, pointPartials(compiled, pointBox))
               .first;
    }
    return it->second;
  };

  // dx/db through defining models, depth-capped against cycles.  The
  // constraint currently being repaired is excluded from the chain:
  // chaining a residual through its own defining model cancels every
  // sensitivity to zero by construction.
  std::function<double(PropertyId, PropertyId, ConstraintId, int)> dxdb =
      [&](PropertyId x, PropertyId b, ConstraintId excluded,
          int depth) -> double {
    if (x == b) return 1.0;
    if (depth <= 0) return 0.0;
    for (const DefiningModel& m : definingModels(net, x)) {
      if (m.model == excluded) continue;
      double total = 0.0;
      for (const auto& [v, partial] : partialsOf(*m.other)) {
        if (partial == 0.0 || !std::isfinite(partial)) continue;
        const double inner = dxdb(PropertyId{v}, b, excluded, depth - 1);
        if (inner != 0.0) total += partial * inner;
      }
      if (total != 0.0 && std::isfinite(total)) return total;
    }
    return 0.0;
  };

  // Helpful direction of b for a violated constraint: the side the residual
  // must move times the sign of the chained sensitivity.
  auto chainDirection = [&](PropertyId b, ConstraintId cid) -> int {
    const constraint::Constraint& c = net.constraint(cid);
    // Needed residual shift.
    int shift = 0;
    switch (c.relation()) {
      case Relation::Le: shift = -1; break;
      case Relation::Ge: shift = +1; break;
      case Relation::Eq: {
        const double residual = expr::evalPoint(c.residual(), point);
        if (!std::isfinite(residual) || residual == 0.0) return 0;
        shift = residual > 0.0 ? -1 : +1;
        break;
      }
    }
    // The compiled residual's variables are c.arguments(), in order.
    double total = 0.0;
    for (const auto& [a, partial] : pointPartials(c.compiled(), pointBox)) {
      if (partial == 0.0 || !std::isfinite(partial)) continue;
      const double inner = dxdb(PropertyId{a}, b, cid, 4);
      if (inner != 0.0) total += partial * inner;
    }
    if (!std::isfinite(total) || total == 0.0) return 0;
    return shift * (total > 0.0 ? 1 : -1);
  };

  // Conventional flow: a violated verdict is actionable evidence only while
  // the model chain feeding the constraint is fresh.  Once the designer has
  // turned an upstream knob, the derived values are stale and the old
  // verdict says nothing about the new state — re-run the tools first.
  std::function<bool(PropertyId, int)> chainFresh =
      [&](PropertyId a, int depth) -> bool {
    if (depth <= 0) return true;
    for (const DefiningModel& m : definingModels(net, a)) {
      if (dpm.isStale(m.model)) return false;
      for (PropertyId v : net.constraint(m.model).arguments()) {
        if (!(v == a) && !chainFresh(v, depth - 1)) return false;
      }
    }
    return true;
  };
  auto evidenceFresh = [&](ConstraintId cid) {
    if (guidance != nullptr) return true;  // ADPM re-propagates every state
    for (PropertyId a : net.constraint(cid).arguments()) {
      if (!chainFresh(a, 4)) return false;
    }
    return true;
  };

  std::vector<RepairCandidate> out;
  for (PropertyId pid : mine) {
    RepairCandidate cand;
    cand.property = pid;
    for (ConstraintId cid : net.constraintIds()) {
      if (dpm.knownStatuses()[cid.value] != Status::Violated) continue;
      if (!evidenceFresh(cid)) continue;
      const bool direct = net.constraint(cid).involves(pid);
      const int dir = chainDirection(pid, cid);
      if (!direct && dir == 0) continue;  // no influence on this conflict
      ++cand.alpha;
      // Representative trigger: prefer a cross-subsystem violation (it is
      // what makes the eventual repair a spin).
      const bool cross = dpm.crossSubsystem(cid);
      if (cand.alpha == 1 || (cross && !cand.crossTrigger)) {
        cand.trigger = cid;
        cand.crossTrigger = cross;
      }
      if (dir > 0) ++cand.votesUp;
      if (dir < 0) ++cand.votesDown;
      // Fall back to the scenario's declared monotonicity when the local
      // sensitivity is flat.
      if (dir == 0 && direct) {
        const int declared =
            net.constraint(cid).declaredHelpDirection(pid);
        if (declared > 0) ++cand.votesUp;
        if (declared < 0) ++cand.votesDown;
      }
    }

    if (cand.alpha == 0) {
      repair_[pid].attempts = 0;  // its conflicts cleared; forgive the knob
      continue;
    }
    // Model solves only count when achievable: the computed value must lie
    // inside the property's range (a clamped solve leaves the model violated
    // and would starve the knob that can actually fix things), and must
    // differ from the current binding.
    if (const auto solved = solveFromEqualityModel(dpm, pid)) {
      const constraint::Property& prop = dpm.network().property(pid);
      const double tol = prop.initial.measure() * 1e-9 + 1e-12;
      cand.modelSolvable =
          prop.initial.contains(*solved, tol) &&
          (!prop.bound() || std::fabs(*solved - *prop.value) > 1e-15);
    }

    // A derived property whose defining model currently *holds* cannot be
    // repaired: rebinding it away from the model value only manufactures a
    // new conflict.  Its spec violations are fixed upstream, through the
    // design variables the indirect expansion credited.
    const auto models = definingModels(dpm.network(), pid);
    if (!models.empty()) {
      const bool anyModelViolated = std::any_of(
          models.begin(), models.end(), [&](const DefiningModel& m) {
            return dpm.knownStatuses()[m.model.value] == Status::Violated;
          });
      if (!anyModelViolated) continue;
    }
    if (guidance != nullptr) {
      const auto& g = guidance->of(pid);
      const constraint::Property& prop = dpm.network().property(pid);
      if (g.feasible.empty()) {
        cand.fixableInWindow = false;
      } else if (prop.bound() && g.feasible.isPoint() &&
                 std::fabs(g.feasible.minValue() - *prop.value) < 1e-12) {
        // The only consistent value is the current one: moving this
        // property cannot resolve anything on its own; it still ranks above
        // empty-window candidates because a delta step might.
        cand.fixableInWindow = false;
      }
    }
    out.push_back(cand);
  }
  return out;
}

std::optional<dpm::Operation> SimulatedDesigner::makeRepair(
    dpm::DesignProcessManager& dpm,
    const std::vector<dpm::ProblemId>& problems) {
  std::vector<RepairCandidate> candidates = repairCandidates(dpm, problems);
  if (candidates.empty()) return std::nullopt;

  // f_a: "preference is given to properties involved in many violations",
  // with direction-vote clarity as a secondary signal.  Ties are resolved
  // randomly (shuffle first, stable_sort preserves the shuffle among ties).
  rng_.shuffle(candidates);
  if (options_.useAlphaRepair) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](const RepairCandidate& a, const RepairCandidate& b) {
                       if (a.modelSolvable != b.modelSolvable) {
                         return a.modelSolvable;
                       }
                       // Knobs that keep failing rotate to the back in
                       // coarse buckets so alternatives get tried — even a
                       // knob with a promising what-if window loses its turn
                       // after repeated fruitless repairs (the window is
                       // computed amid other violations and can mislead).
                       const int ba = repair_[a.property].attempts / 3;
                       const int bb = repair_[b.property].attempts / 3;
                       if (ba != bb) return ba < bb;
                       if (a.fixableInWindow != b.fixableInWindow) {
                         return a.fixableInWindow;
                       }
                       if (a.alpha != b.alpha) return a.alpha > b.alpha;
                       if (!options_.useDirectionVoting) return false;
                       return std::abs(a.votesUp - a.votesDown) >
                              std::abs(b.votesUp - b.votesDown);
                     });
  }

  for (const RepairCandidate& cand : candidates) {
    const constraint::Property& prop = dpm.network().property(cand.property);
    const double newValue = chooseRepairValue(dpm, cand);
    if (prop.bound() && std::fabs(newValue - *prop.value) < 1e-15) continue;

    const auto problem = problemForProperty(dpm, cand.property, problems);
    if (!problem) continue;
    dpm::Operation op;
    op.kind = dpm::OperatorKind::Synthesis;
    op.problem = *problem;
    op.designer = name_;
    op.assignments.emplace_back(cand.property, newValue);
    op.triggeredBy = cand.trigger;
    op.rationale = "repair " +
                   dpm.network().constraint(cand.trigger).name() +
                   " via " + dpm.network().property(cand.property).name +
                   " (alpha=" + std::to_string(cand.alpha) +
                   (cand.modelSolvable ? ", model resync" : "") + ")";
    ++repair_[cand.property].attempts;
    return op;
  }
  return std::nullopt;
}

double SimulatedDesigner::chooseRepairValue(dpm::DesignProcessManager& dpm,
                                            const RepairCandidate& candidate) {
  const constraint::Property& prop = dpm.network().property(candidate.property);
  const interval::Interval initialHull = prop.initial.hull();
  RepairState& state = repair_[candidate.property];

  // Repair direction from the monotone-vote majority.
  int dir = 0;
  if (options_.useDirectionVoting) {
    if (candidate.votesUp > candidate.votesDown) dir = 1;
    if (candidate.votesDown > candidate.votesUp) dir = -1;
  }
  if (dir == 0) dir = state.direction != 0 ? state.direction
                                           : (rng_.chance(0.5) ? 1 : -1);

  // f_v, "choose from feasible subspace": with ADPM guidance the what-if
  // feasible window shows where this property can be rebound; take its
  // middle (the paper's walkthrough picks 3.5 inside [3, 3.698]).  A point
  // window is the fully-determined case — rebind to it exactly.
  const constraint::GuidanceReport* guidance = dpm.latestGuidance();
  if (guidance != nullptr && options_.useFeasibleValues) {
    const auto& g = guidance->of(candidate.property);
    if (!g.feasible.empty()) {
      double value;
      if (g.feasible.isDiscrete()) {
        const auto& vs = g.feasible.values();
        value = vs[vs.size() / 2];
      } else {
        value = g.feasible.hull().mid();
      }
      if (!prop.bound() || std::fabs(value - *prop.value) > 1e-15) {
        state.direction = value > (prop.bound() ? *prop.value : value) ? 1 : -1;
        state.step = 0.0;
        return value;
      }
    }
  }

  // A violated equality model with a determined right side is solved
  // directly in either flow — the tool already reported the correct value.
  if (const auto solved = solveFromEqualityModel(dpm, candidate.property)) {
    const double v = prop.initial.isDiscrete()
                         ? prop.initial.nearest(*solved)
                         : initialHull.clamp(*solved);
    if (!prop.bound() || std::fabs(v - *prop.value) > 1e-15) {
      state.direction = prop.bound() && v < *prop.value ? -1 : 1;
      state.step = 0.0;
      return v;
    }
  }

  if (options_.useBoundarySolve) {
    // Solve the triggering constraint's boundary in 1-D on the designer's
    // own models (derived properties resynced), nudged a base step into the
    // satisfying side.  Available in both flows: it is the designer's own
    // arithmetic, not process-manager feedback.
    if (!prop.initial.isDiscrete()) {
      const std::vector<double> point = designPoint(dpm.network());
      const double margin =
          initialHull.width() /
          (options_.deltaDivisor > 0 ? options_.deltaDivisor : 100.0);
      if (const auto v = solveBoundary(
              dpm.network(), dpm.network().constraint(candidate.trigger),
              candidate.property, point, margin)) {
        if (!prop.bound() || std::fabs(*v - *prop.value) > 1e-15) {
          state.direction = prop.bound() && *v < *prop.value ? -1 : 1;
          state.step = 0.0;
          return *v;
        }
      }
    }
  }

  // "Choose from initial subspace": move the bound value in the fixing
  // direction by an adaptive delta (base |E_i| / deltaDivisor).
  if (!prop.bound()) {
    // Unbound amid violations: bind somewhere sensible.
    return chooseBindingValue(dpm, candidate.property);
  }

  if (prop.initial.isDiscrete()) {
    // Step to the neighbouring discrete value in the repair direction.
    const auto& vs = prop.initial.values();
    const double current = *prop.value;
    double best = current;
    if (dir > 0) {
      for (double v : vs) {
        if (v > current + 1e-15) {
          best = v;
          break;
        }
      }
    } else {
      for (auto it = vs.rbegin(); it != vs.rend(); ++it) {
        if (*it < current - 1e-15) {
          best = *it;
          break;
        }
      }
    }
    state.direction = dir;
    return best;
  }

  const double width = initialHull.width();
  const double divisor = options_.deltaDivisor > 0 ? options_.deltaDivisor
                                                   : 100.0;
  const double base = width / divisor;
  if (dir == state.direction && state.step > 0.0) {
    state.step = std::min(state.step * options_.stepGrowth,
                          width * options_.maxStepFraction);
  } else {
    state.step = base;
  }
  state.direction = dir;
  const double stepped = initialHull.clamp(*prop.value + dir * state.step);
  return clampToKnownConstraints(dpm, candidate.property, *prop.value,
                                 stepped);
}

std::optional<dpm::Operation> SimulatedDesigner::makeBinding(
    dpm::DesignProcessManager& dpm,
    const std::vector<dpm::ProblemId>& problems) {
  struct Target {
    PropertyId pid;
    dpm::ProblemId problem;
    double feasibleSize;
    bool derived;
  };
  const constraint::GuidanceReport* guidance = dpm.latestGuidance();

  std::vector<Target> targets;
  for (dpm::ProblemId id : problems) {
    for (PropertyId o : dpm.problem(id).outputs) {
      if (dpm.isFrozen(o) || dpm.network().property(o).bound()) continue;
      double size = 1.0;
      if (guidance != nullptr) size = guidance->of(o).relativeFeasibleSize;
      const bool derived = !definingModels(dpm.network(), o).empty();
      targets.push_back({o, id, size, derived});
    }
  }
  if (targets.empty()) return std::nullopt;

  rng_.shuffle(targets);
  // Design variables first, tool-computed (derived) values last: binding a
  // derived property before its inputs settle just manufactures a model
  // conflict on the next upstream change.  Within each class, ADPM applies
  // the §2.3.1 heuristic: focus first on the smallest feasible subspaces.
  std::stable_sort(targets.begin(), targets.end(),
                   [&](const Target& a, const Target& b) {
                     if (a.derived != b.derived) return !a.derived;
                     if (guidance != nullptr && options_.useSubspaceOrdering) {
                       return a.feasibleSize < b.feasibleSize;
                     }
                     return false;
                   });

  const Target& t = targets.front();
  dpm::Operation op;
  op.kind = dpm::OperatorKind::Synthesis;
  op.problem = t.problem;
  op.designer = name_;
  op.assignments.emplace_back(t.pid, chooseBindingValue(dpm, t.pid));
  if (guidance != nullptr && options_.useSubspaceOrdering && !t.derived) {
    op.rationale =
        "bind " + dpm.network().property(t.pid).name +
        " (smallest feasible subspace, " +
        std::to_string(static_cast<int>(t.feasibleSize * 100.0)) +
        "% of range)";
  } else if (t.derived) {
    op.rationale = "bind derived " + dpm.network().property(t.pid).name +
                   " from its model";
  } else {
    op.rationale = "bind " + dpm.network().property(t.pid).name;
  }
  return op;
}

double SimulatedDesigner::chooseBindingValue(dpm::DesignProcessManager& dpm,
                                             PropertyId pid) {
  const constraint::Property& prop = dpm.network().property(pid);
  const constraint::GuidanceReport* guidance = dpm.latestGuidance();
  const double tabuTol =
      prop.initial.measure() * options_.tabuFraction + 1e-12;

  // Injected human error: ignore every heuristic for this one binding.
  if (options_.blunderRate > 0.0 && rng_.chance(options_.blunderRate)) {
    return prop.initial.isDiscrete()
               ? rng_.pick(prop.initial.values())
               : rng_.uniform(prop.initial.hull().lo(),
                              prop.initial.hull().hi());
  }

  // A derived property whose model inputs are all bound is read off the
  // tool exactly; picking a near-by value from the tolerance-widened window
  // would only manufacture a phantom model violation.
  for (const DefiningModel& m : definingModels(dpm.network(), pid)) {
    if (const auto computed = modelValue(dpm.network(), *m.other)) {
      return prop.initial.isDiscrete() ? prop.initial.nearest(*computed)
                                       : prop.initial.hull().clamp(*computed);
    }
  }

  // ADPM: pick from the feasible subspace; "for ordered value sets we choose
  // the top or bottom value based on what may satisfy most constraints."
  if (guidance != nullptr && options_.useFeasibleValues) {
    const auto& g = guidance->of(pid);
    if (!g.feasible.empty()) {
      bool top;
      if (options_.useDirectionVoting &&
          g.increasing.size() != g.decreasing.size()) {
        top = g.increasing.size() > g.decreasing.size();
      } else if (prop.preference != 0) {
        // No constraint signal either way: follow the declared economy
        // preference (the walkthrough's "smallest potentially feasible
        // value ... will reduce power consumption").
        top = prop.preference > 0;
      } else {
        top = rng_.chance(0.5);
      }
      double value = top ? g.feasible.maxValue() : g.feasible.minValue();
      if (!g.feasible.isDiscrete()) {
        // Stay a margin inside the window: the propagated bound is a
        // constraint boundary (binding exactly on it invites rounding
        // violations and squeezes the other subsystems into corners).  The
        // depth is jittered — designers don't pick identical safety slack —
        // which is also where run-to-run variation in ADPM comes from.
        const double margin = g.feasible.hull().width() *
                              options_.bindingMargin *
                              rng_.uniform(0.1, 1.5);
        value += top ? -margin : margin;
      }
      // Consult the design history to avoid repeating a failed assignment.
      for (int attempt = 0;
           attempt < 4 && dpm.isFailedAssignment(pid, value, tabuTol);
           ++attempt) {
        value = g.feasible.isDiscrete()
                    ? rng_.pick(g.feasible.values())
                    : rng_.uniform(g.feasible.hull().lo(),
                                   g.feasible.hull().hi());
      }
      return value;
    }
  }

  // Conventional flow (or empty v_F): guess from the initial range E_i,
  // biased toward the economical half when the property declares a
  // preference.
  double value = 0.0;
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (prop.initial.isDiscrete()) {
      value = rng_.pick(prop.initial.values());
    } else {
      double lo = prop.initial.hull().lo();
      double hi = prop.initial.hull().hi();
      if (prop.preference < 0) {
        hi = lo + 0.5 * (hi - lo);
      } else if (prop.preference > 0) {
        lo = hi - 0.5 * (hi - lo);
      }
      value = rng_.uniform(lo, hi);
    }
    if (!dpm.isFailedAssignment(pid, value, tabuTol)) break;
  }
  return value;
}

std::optional<dpm::Operation> SimulatedDesigner::makeVerification(
    dpm::DesignProcessManager& dpm,
    const std::vector<dpm::ProblemId>& problems) {
  for (dpm::ProblemId id : problems) {
    const dpm::DesignProblem& p = dpm.problem(id);

    // Integration gating: "constraints relating multiple subproblems are
    // evaluated only when all subproblems involved are solved".
    const bool childrenSolved = std::all_of(
        p.children.begin(), p.children.end(), [&](dpm::ProblemId ch) {
          return dpm.problem(ch).status == dpm::ProblemStatus::Solved;
        });
    if (!childrenSolved) continue;

    for (ConstraintId cid : p.constraints) {
      if (!dpm.network().isActive(cid)) continue;
      if (!dpm.isStale(cid)) continue;
      const constraint::Constraint& c = dpm.network().constraint(cid);
      const bool runnable = std::all_of(
          c.arguments().begin(), c.arguments().end(), [&](PropertyId a) {
            return dpm.network().property(a).bound();
          });
      if (!runnable) continue;

      dpm::Operation op;
      op.kind = dpm::OperatorKind::Verification;
      op.problem = id;
      op.designer = name_;
      op.rationale = "verify " + p.name + " (unchecked results)";
      return op;
    }
  }
  return std::nullopt;
}

std::optional<dpm::ProblemId> SimulatedDesigner::problemForProperty(
    const dpm::DesignProcessManager& dpm, PropertyId pid,
    const std::vector<dpm::ProblemId>& problems) const {
  for (dpm::ProblemId id : problems) {
    if (dpm.problem(id).hasOutput(pid)) return id;
  }
  return std::nullopt;
}

void SimulatedDesigner::observe(dpm::DesignProcessManager& dpm,
                                const dpm::OperationRecord& record) {
  // Feed the design history: assignments present when a violation surfaced
  // are recorded so value selection avoids revisiting them.
  for (ConstraintId cid : record.violationsFound) {
    const constraint::Constraint& c = dpm.network().constraint(cid);
    for (PropertyId arg : c.arguments()) {
      const constraint::Property& p = dpm.network().property(arg);
      if (p.bound() && !dpm.isFrozen(arg)) {
        dpm.recordFailedAssignment(arg, *p.value);
      }
    }
  }
}

}  // namespace adpm::teamsim
