#include "expr/compiled.hpp"

#include <algorithm>
#include <cmath>

#include "expr/sweep.hpp"
#include "util/error.hpp"

namespace adpm::expr {

using interval::Interval;

namespace {

/// Sweep scratch shared by every CompiledExpr on this thread: node
/// enclosures of the forward and backward sweeps, the harvest's
/// per-variable refinements and the tangent matrix of `derivatives`.  No
/// sweep reads what an earlier one left here, so a program's results depend
/// on its inputs alone; the buffers only grow, to the largest program the
/// thread has swept, and the steady-state sweep allocates nothing.
struct Workspace {
  std::vector<Interval> fwd;
  std::vector<Interval> bwd;
  std::vector<Interval> refined;
  std::vector<Interval> tan;
};

thread_local Workspace tlsWorkspace;

/// `buffer` grown to at least `n` entries; returns its storage.
Interval* atLeast(std::vector<Interval>& buffer, std::size_t n) {
  if (buffer.size() < n) buffer.resize(n);
  return buffer.data();
}

}  // namespace

CompiledExpr::CompiledExpr(const Expr& e) {
  if (!e.valid()) throw adpm::InvalidArgumentError("CompiledExpr: invalid Expr");
  compile(e);
  vars_ = variablesOf(e);
  span_ = 0;
  for (VarId v : vars_) span_ = std::max(span_, static_cast<std::size_t>(v) + 1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind != OpKind::Var) continue;
    const auto slot = static_cast<std::size_t>(
        std::lower_bound(vars_.begin(), vars_.end(), nodes_[i].var) -
        vars_.begin());
    varSlots_.push_back({i, slot});
  }
}

int CompiledExpr::compile(const Expr& e) {
  const Node& n = e.node();
  int c0 = -1;
  int c1 = -1;
  if (!n.children.empty()) c0 = compile(n.children[0]);
  if (n.children.size() > 1) c1 = compile(n.children[1]);
  nodes_.push_back({n.kind, n.value, n.var, n.exponent, c0, c1});
  return static_cast<int>(nodes_.size()) - 1;
}

void CompiledExpr::forwardSweep(std::span<const Interval> domains,
                                Interval* fwd) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const CNode& n = nodes_[i];
    const auto x = [&]() -> const Interval& { return fwd[static_cast<std::size_t>(n.child0)]; };
    const auto y = [&]() -> const Interval& { return fwd[static_cast<std::size_t>(n.child1)]; };
    switch (n.kind) {
      case OpKind::Const: fwd[i] = Interval(n.value); break;
      case OpKind::Var:
        if (n.var >= domains.size()) {
          throw adpm::InvalidArgumentError("CompiledExpr: variable out of range");
        }
        fwd[i] = domains[n.var];
        break;
      case OpKind::Add: fwd[i] = x() + y(); break;
      case OpKind::Sub: fwd[i] = x() - y(); break;
      case OpKind::Mul: fwd[i] = x() * y(); break;
      case OpKind::Div: fwd[i] = x() / y(); break;
      case OpKind::Neg: fwd[i] = -x(); break;
      case OpKind::Sqrt: fwd[i] = interval::sqrt(x()); break;
      case OpKind::Sqr: fwd[i] = interval::sqr(x()); break;
      case OpKind::Pow: fwd[i] = interval::pow(x(), n.exponent); break;
      case OpKind::Exp: fwd[i] = interval::exp(x()); break;
      case OpKind::Log: fwd[i] = interval::log(x()); break;
      case OpKind::Abs: fwd[i] = interval::abs(x()); break;
      case OpKind::Min: fwd[i] = interval::min(x(), y()); break;
      case OpKind::Max: fwd[i] = interval::max(x(), y()); break;
    }
  }
}

Interval CompiledExpr::evaluate(std::span<const Interval> domains) const {
  countSweep();
  Interval* fwd = atLeast(tlsWorkspace.fwd, nodes_.size());
  forwardSweep(domains, fwd);
  return fwd[nodes_.size() - 1];
}

DerivativeSweep CompiledExpr::derivatives(
    std::span<const Interval> domains) const {
  countSweep();
  Workspace& ws = tlsWorkspace;
  Interval* fwd = atLeast(ws.fwd, nodes_.size());
  forwardSweep(domains, fwd);

  const std::size_t nv = vars_.size();
  Interval* tan = atLeast(ws.tan, nodes_.size() * nv);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const CNode& n = nodes_[i];
    Interval* d = tan + i * nv;
    const Interval* dx =
        n.child0 >= 0 ? tan + static_cast<std::size_t>(n.child0) * nv
                      : nullptr;
    const Interval* dy =
        n.child1 >= 0 ? tan + static_cast<std::size_t>(n.child1) * nv
                      : nullptr;
    const auto x = [&]() -> const Interval& {
      return fwd[static_cast<std::size_t>(n.child0)];
    };
    const auto y = [&]() -> const Interval& {
      return fwd[static_cast<std::size_t>(n.child1)];
    };
    // Each case mirrors oracle::evalDerivative's formula and operation order
    // exactly, so the per-variable enclosures are bit-identical to the
    // recursive tree walk (the differential tests assert this).
    switch (n.kind) {
      case OpKind::Const:
        for (std::size_t k = 0; k < nv; ++k) d[k] = Interval(0.0);
        break;
      case OpKind::Var:
        for (std::size_t k = 0; k < nv; ++k) {
          d[k] = Interval(vars_[k] == n.var ? 1.0 : 0.0);
        }
        break;
      case OpKind::Add:
        for (std::size_t k = 0; k < nv; ++k) d[k] = dx[k] + dy[k];
        break;
      case OpKind::Sub:
        for (std::size_t k = 0; k < nv; ++k) d[k] = dx[k] - dy[k];
        break;
      case OpKind::Mul:
        for (std::size_t k = 0; k < nv; ++k) {
          d[k] = dx[k] * y() + x() * dy[k];
        }
        break;
      case OpKind::Div:
        for (std::size_t k = 0; k < nv; ++k) {
          d[k] = (dx[k] * y() - x() * dy[k]) / interval::sqr(y());
        }
        break;
      case OpKind::Neg:
        for (std::size_t k = 0; k < nv; ++k) d[k] = -dx[k];
        break;
      case OpKind::Sqrt:
        // fwd[i] is sqrt(x), the `root` of the tree-walking formula.
        for (std::size_t k = 0; k < nv; ++k) {
          d[k] = dx[k] / (Interval(2.0) * fwd[i]);
        }
        break;
      case OpKind::Sqr:
        for (std::size_t k = 0; k < nv; ++k) {
          d[k] = Interval(2.0) * x() * dx[k];
        }
        break;
      case OpKind::Pow:
        for (std::size_t k = 0; k < nv; ++k) {
          d[k] = Interval(static_cast<double>(n.exponent)) *
                 interval::pow(x(), n.exponent - 1) * dx[k];
        }
        break;
      case OpKind::Exp:
        for (std::size_t k = 0; k < nv; ++k) d[k] = fwd[i] * dx[k];
        break;
      case OpKind::Log:
        for (std::size_t k = 0; k < nv; ++k) d[k] = dx[k] / x();
        break;
      case OpKind::Abs: {
        Interval sign;
        if (x().lo() > 0.0) {
          sign = Interval(1.0);
        } else if (x().hi() < 0.0) {
          sign = Interval(-1.0);
        } else {
          sign = Interval(-1.0, 1.0);  // kink inside the box
        }
        for (std::size_t k = 0; k < nv; ++k) d[k] = sign * dx[k];
        break;
      }
      case OpKind::Min:
        for (std::size_t k = 0; k < nv; ++k) {
          if (x().hi() <= y().lo()) {
            d[k] = dx[k];  // min is always the left operand
          } else if (y().hi() <= x().lo()) {
            d[k] = dy[k];
          } else {
            d[k] = interval::hull(dx[k], dy[k]);
          }
        }
        break;
      case OpKind::Max:
        for (std::size_t k = 0; k < nv; ++k) {
          if (x().lo() >= y().hi()) {
            d[k] = dx[k];
          } else if (y().lo() >= x().hi()) {
            d[k] = dy[k];
          } else {
            d[k] = interval::hull(dx[k], dy[k]);
          }
        }
        break;
    }
  }

  DerivativeSweep out;
  out.value = fwd[nodes_.size() - 1];
  out.derivatives = {tan + (nodes_.size() - 1) * nv, nv};
  return out;
}

Interval tolerancedTarget(const Interval& target, const Interval& residual,
                          double tol) noexcept {
  double scale = 1.0;
  if (!residual.empty()) {
    const double lo = std::abs(residual.lo());
    const double hi = std::abs(residual.hi());
    const double mag = std::max(lo, hi);
    if (std::isfinite(mag)) scale = std::max(scale, mag);
  }
  return target.inflate(0.0, tol * scale);
}

ReviseResult CompiledExpr::revise(const Interval& target,
                                  std::span<Interval> domains) const {
  countSweep();
  Interval* fwd = atLeast(tlsWorkspace.fwd, nodes_.size());
  forwardSweep({domains.data(), domains.size()}, fwd);
  return backwardSweep(target, domains, fwd);
}

ReviseResult CompiledExpr::revisePadded(const Interval& rawTarget,
                                        std::span<Interval> domains) const {
  countSweep();
  Interval* fwd = atLeast(tlsWorkspace.fwd, nodes_.size());
  forwardSweep({domains.data(), domains.size()}, fwd);
  return backwardSweep(tolerancedTarget(rawTarget, fwd[nodes_.size() - 1]),
                       domains, fwd);
}

ReviseResult CompiledExpr::backwardSweep(const Interval& target,
                                         std::span<Interval> domains,
                                         const Interval* fwd) const {
  ReviseResult result;
  result.value = fwd[nodes_.size() - 1];
  result.target = target;

  const Interval rootRange = interval::intersect(result.value, target);
  if (rootRange.empty()) {
    result.feasible = false;
    return result;
  }
  result.feasible = true;

  // Backward sweep: bwd holds the refined enclosure of each node.  Every
  // projection is inflated outward before intersecting: the library uses
  // plain double rounding instead of directed rounding, and without slack a
  // projection through a deep expression chain can shave the true value off
  // a point domain by an ULP, falsely proving infeasibility.
  constexpr double kSlackRel = 1e-10;
  constexpr double kSlackAbs = 1e-12;
  Workspace& ws = tlsWorkspace;
  Interval* bwd = atLeast(ws.bwd, nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) bwd[i] = fwd[i];
  bwd[nodes_.size() - 1] = rootRange;

  for (std::size_t ri = nodes_.size(); ri-- > 0;) {
    const CNode& n = nodes_[ri];
    const Interval z = bwd[ri];
    if (z.empty()) continue;  // dead branch; soundly skip

    auto refine = [&](int child, const Interval& projected) {
      auto ci = static_cast<std::size_t>(child);
      bwd[ci] = interval::intersect(bwd[ci],
                                     projected.inflate(kSlackRel, kSlackAbs));
    };
    // Prior enclosures handed to projections that intersect internally
    // (mul/div/sqr/pow/abs/min/max) must carry the slack too, or a point
    // domain one ULP off empties inside the helper.
    auto prior = [&](int child) {
      return bwd[static_cast<std::size_t>(child)].inflate(kSlackRel,
                                                           kSlackAbs);
    };

    switch (n.kind) {
      case OpKind::Const:
      case OpKind::Var:
        break;
      case OpKind::Add: {
        const Interval& x = bwd[static_cast<std::size_t>(n.child0)];
        const Interval& y = bwd[static_cast<std::size_t>(n.child1)];
        refine(n.child0, z - y);
        refine(n.child1, z - bwd[static_cast<std::size_t>(n.child0)]);
        (void)x;
        break;
      }
      case OpKind::Sub: {
        const Interval y = bwd[static_cast<std::size_t>(n.child1)];
        refine(n.child0, z + y);
        refine(n.child1, bwd[static_cast<std::size_t>(n.child0)] - z);
        break;
      }
      case OpKind::Mul: {
        refine(n.child0, interval::projectMulLhs(z, prior(n.child0),
                                                 prior(n.child1)));
        refine(n.child1, interval::projectMulLhs(z, prior(n.child1),
                                                 prior(n.child0)));
        break;
      }
      case OpKind::Div: {
        // z = x / y  =>  x in z*y;  y in x/z.
        refine(n.child0, z * prior(n.child1));
        const Interval y = prior(n.child1);
        const interval::IntervalPair q =
            interval::extendedDiv(prior(n.child0), z);
        refine(n.child1, interval::hull(interval::intersect(y, q.first),
                                        interval::intersect(y, q.second)));
        break;
      }
      case OpKind::Neg:
        refine(n.child0, -z);
        break;
      case OpKind::Sqrt: {
        const Interval zc = interval::intersect(z, Interval::nonNegative());
        refine(n.child0, interval::sqr(zc));
        break;
      }
      case OpKind::Sqr:
        refine(n.child0, interval::projectSqr(z, prior(n.child0)));
        break;
      case OpKind::Pow:
        refine(n.child0,
               interval::projectPow(z, prior(n.child0), n.exponent));
        break;
      case OpKind::Exp:
        refine(n.child0, interval::log(z));
        break;
      case OpKind::Log:
        refine(n.child0, interval::exp(z));
        break;
      case OpKind::Abs:
        refine(n.child0, interval::projectAbs(z, prior(n.child0)));
        break;
      case OpKind::Min: {
        refine(n.child0, interval::projectMinLhs(z, prior(n.child0),
                                                 prior(n.child1)));
        refine(n.child1, interval::projectMinLhs(z, prior(n.child1),
                                                 prior(n.child0)));
        break;
      }
      case OpKind::Max: {
        refine(n.child0, interval::projectMaxLhs(z, prior(n.child0),
                                                 prior(n.child1)));
        refine(n.child1, interval::projectMaxLhs(z, prior(n.child1),
                                                 prior(n.child0)));
        break;
      }
    }
  }

  // Harvest narrowed variable domains.  A variable occurring several times
  // gets the intersection of all its occurrences.  An empty refinement means
  // the constraint is actually infeasible over the box (the root-range test
  // is only a necessary condition once rounding and the dependency problem
  // enter); report infeasibility and leave the box untouched rather than
  // poisoning downstream propagation with an empty domain.
  // Aggregate across occurrences first, then check, then commit.
  Interval* refined = atLeast(ws.refined, vars_.size());
  for (std::size_t k = 0; k < vars_.size(); ++k) refined[k] = domains[vars_[k]];
  for (const VarSlot& vs : varSlots_) {
    refined[vs.slot] = interval::intersect(refined[vs.slot], bwd[vs.node]);
  }
  for (std::size_t k = 0; k < vars_.size(); ++k) {
    if (refined[k].empty()) {
      result.feasible = false;
      result.narrowed = false;
      return result;
    }
  }
  for (std::size_t k = 0; k < vars_.size(); ++k) {
    if (!(refined[k] == domains[vars_[k]])) {
      domains[vars_[k]] = refined[k];
      result.narrowed = true;
    }
  }
  return result;
}

}  // namespace adpm::expr
