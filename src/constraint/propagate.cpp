#include "constraint/propagate.hpp"

#include <algorithm>
#include <cmath>

#ifdef ADPM_DEBUG_CHECKS
#include <cstdio>
#include <cstdlib>
#endif

namespace adpm::constraint {

namespace {

#ifdef ADPM_DEBUG_CHECKS
/// RAII claim on the propagator's scratch arena.  compare_exchange from the
/// empty thread id detects a second thread entering while a run is in
/// flight; that is the exact corruption scenario the scratch arena's
/// single-owner contract forbids, so fail fast rather than let two runs
/// interleave over the same buffers.
class ScratchClaim {
 public:
  explicit ScratchClaim(std::atomic<std::thread::id>& owner) : owner_(owner) {
    std::thread::id expected{};
    if (!owner_.compare_exchange_strong(expected, std::this_thread::get_id(),
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "adpm: Propagator used concurrently from two threads; "
                   "the scratch arena is single-owner — give each "
                   "engine/session its own Propagator\n");
      std::abort();
    }
  }
  ~ScratchClaim() { owner_.store(std::thread::id{}, std::memory_order_release); }
  ScratchClaim(const ScratchClaim&) = delete;
  ScratchClaim& operator=(const ScratchClaim&) = delete;

 private:
  std::atomic<std::thread::id>& owner_;
};
#endif

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

PropagationResult Propagator::run(Network& net) const {
  return runOnBox(net, net.currentBox());
}

PropagationResult Propagator::runRelaxed(Network& net, PropertyId p) const {
  auto box = net.currentBox();
  box[p.value] = net.property(p).initial.hull();
  return runOnBox(net, std::move(box));
}

// Every per-revise and per-candidate buffer lives in the reused scratch
// arena, so steady-state propagation performs no heap allocation beyond the
// result it returns.  The differential tests hold this path bit-identical,
// charges included, to the reference propagator in tests/oracle.
PropagationResult Propagator::runOnBox(
    Network& net, std::vector<interval::Interval> box) const {
#ifdef ADPM_DEBUG_CHECKS
  const ScratchClaim claim(scratchOwner_.id);
#endif
  const std::size_t nc = net.constraintCount();
  PropagationResult result;
  result.status.assign(nc, Status::Consistent);

  // FIFO queue: vector + head cursor.  Entries are appended at the tail and
  // consumed at the head; the backing storage is recycled across runs.  The
  // total number of pushes per run is bounded by the revise cap times the
  // network degree, so the tail never runs away.
  Scratch& s = scratch_;
  s.queue.clear();
  s.queueHead = 0;
  s.queued.assign(nc, 0);
  s.ordinal.assign(nc, 0);
  for (std::uint32_t i = 0; i < nc; ++i) {
    if (!net.isActive(ConstraintId{i})) continue;  // not generated yet
    s.queue.push_back(ConstraintId{i});
    s.queued[i] = 1;
  }

  const std::size_t maxRevises =
      std::max<std::size_t>(nc * options_.maxRevisesPerConstraint, nc);
  std::size_t revises = 0;
  std::size_t sweepBoundary = s.queue.size();
  bool sweptOnce = false;

  while (s.queueHead < s.queue.size() && revises < maxRevises) {
    if (sweepBoundary == 0) {
      ++result.passes;
      sweepBoundary = s.queue.size() - s.queueHead;
      if (!options_.fixpoint && sweptOnce) break;
      sweptOnce = true;
    }
    --sweepBoundary;

    const ConstraintId cid = s.queue[s.queueHead++];
    s.queued[cid.value] = 0;

    Constraint& c = net.constraint(cid);
    const std::size_t k = s.ordinal[cid.value]++;

    // Snapshot the arguments to detect significant narrowing (reused
    // buffer; capacity persists across revises and runs).  The snapshot is
    // also the revise trace's key.
    s.before.clear();
    for (PropertyId arg : c.arguments()) s.before.push_back(box[arg.value]);

    Constraint::ReviseTrace& trace = c.reviseTrace();
    Constraint::ReviseTrace::Outcome outcome;
    if (const Constraint::ReviseTrace::Outcome* hit =
            trace.match(k, s.before)) {
      // The k-th revise of an earlier run saw these arguments bit for bit:
      // replay its outcome instead of sweeping the expression.
      outcome = *hit;
      if (outcome.narrowed) {
        const auto after = trace.after(k);
        for (std::size_t i = 0; i < after.size(); ++i) {
          box[c.arguments()[i].value] = after[i];
        }
      }
      ++result.replayed;
    } else {
      // Revise against a tolerance-padded target: the revise's own forward
      // sweep sizes the pad to the residual's magnitude so boundary-exact
      // designs are not flipped to Violated by rounding.
      const expr::ReviseResult r =
          c.compiled().revisePadded(c.target(), {box.data(), box.size()});
      outcome.feasible = r.feasible;
      outcome.narrowed = r.narrowed;
      outcome.status =
          r.feasible ? classify(r.value, r.target) : Status::Violated;
      s.after.clear();
      if (r.narrowed) {
        for (PropertyId arg : c.arguments()) {
          s.after.push_back(box[arg.value]);
        }
      }
      trace.record(k, s.before, s.after, outcome);
    }
    ++revises;

    result.status[cid.value] = outcome.status;
    // No narrowing to propagate from a violated constraint.
    if (!outcome.feasible || !outcome.narrowed || !options_.fixpoint) continue;

    for (std::size_t i = 0; i < c.arguments().size(); ++i) {
      const PropertyId arg = c.arguments()[i];
      if (!movedSignificantly(s.before[i], box[arg.value],
                              options_.tolerance)) {
        continue;
      }
      for (ConstraintId neighbour : net.constraintsOf(arg)) {
        if (neighbour == cid || s.queued[neighbour.value]) continue;
        if (!net.isActive(neighbour)) continue;
        s.queue.push_back(neighbour);
        s.queued[neighbour.value] = 1;
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
  // consistent constraint supports.  One probe box is built per run and
  // patched in place per candidate value (shaving edits result.feasible
  // only, never the hulls the probe mirrors).
  if (options_.filterDiscrete) {
    s.probe.assign(result.hulls.begin(), result.hulls.end());
    for (std::uint32_t i = 0; i < net.propertyCount(); ++i) {
      const Property& p = net.property(PropertyId{i});
      if (!p.initial.isDiscrete() || p.bound()) continue;
      if (result.feasible[i].empty()) continue;

      std::vector<double> supported;
      for (const double v : result.feasible[i].values()) {
        bool ok = true;
        s.probe[i] = interval::Interval(v);
        for (ConstraintId cid : net.constraintsOf(PropertyId{i})) {
          if (!net.isActive(cid)) continue;
          if (result.status[cid.value] == Status::Violated) continue;
          Constraint& c = net.constraint(cid);
          const interval::Interval residual =
              c.compiled().evaluate({s.probe.data(), s.probe.size()});
          ++result.evaluations;
          net.chargeEvaluations(1);
          if (!residual.intersects(tolerancedTarget(c.target(), residual))) {
            ok = false;
            break;
          }
        }
        if (ok) supported.push_back(v);
      }
      s.probe[i] = result.hulls[i];
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

}  // namespace adpm::constraint
