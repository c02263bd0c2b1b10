// Constraint propagation: the Design Constraint Manager's core algorithm.
//
// "The DCM runs a constraint propagation algorithm to compute infeasible
// property values and the status of all constraints." (paper, Section 2.2)
//
// The algorithm is an AC-3-style fixpoint over HC4-revise: constraints are
// revised against the current box (bound properties pinned to their values,
// unbound ones spanning their range E_i); every revise that narrows a
// property's interval requeues the constraints sharing that property.  Every
// revise is charged to the network's evaluation counter — this is exactly
// the "extra tool runs" cost the paper attributes to ADPM — including a
// revise replayed from the constraint's revise trace because its arguments
// repeat bit for bit (`Constraint::ReviseTrace`).
#pragma once

#include <cstdint>
#include <vector>

#ifdef ADPM_DEBUG_CHECKS
#include <atomic>
#include <thread>
#endif

#include "constraint/network.hpp"
#include "interval/domain.hpp"

namespace adpm::constraint {

/// Output of one propagation run.
struct PropagationResult {
  /// Narrowed hull per property (indexed by PropertyId::value).  For bound
  /// properties this is their point value.
  std::vector<interval::Interval> hulls;
  /// Feasible subspace v_F(a_i) per property: the initial domain filtered to
  /// the narrowed hull.
  std::vector<interval::Domain> feasible;
  /// Status per constraint (indexed by ConstraintId::value).
  std::vector<Status> status;
  /// Constraints found violated, ascending by id.
  std::vector<ConstraintId> violated;
  /// Revises performed by this run (also charged to the network counter).
  std::size_t evaluations = 0;
  /// The revises among `evaluations` served from the constraints' revise
  /// traces instead of an expression sweep (`Constraint::ReviseTrace`).
  std::size_t replayed = 0;
  /// Number of fixpoint sweeps that performed at least one revise.
  std::size_t passes = 0;

  bool anyViolation() const noexcept { return !violated.empty(); }
  bool isViolated(ConstraintId c) const {
    return status.at(c.value) == Status::Violated;
  }
};

class Propagator {
 public:
  struct Options {
    /// Iterate to fixpoint (AC-3) when true; single sweep when false.  The
    /// single-sweep mode exists for the ablation benchmarks.
    bool fixpoint = true;
    /// Hard cap: at most maxRevisesPerConstraint * |C| revises per run, to
    /// bound slowly-converging nonlinear networks.
    std::size_t maxRevisesPerConstraint = 40;
    /// A bound movement below tol*(1+|bound|) does not requeue neighbours.
    double tolerance = 1e-9;
    /// After the interval fixpoint, shave discrete domains value-by-value:
    /// each remaining value of an unbound discrete property is tested
    /// against every active constraint touching it (one evaluation each),
    /// and unsupported values are dropped from the feasible set.  Hull
    /// consistency alone cannot remove interior values of a discrete set.
    bool filterDiscrete = true;
  };

  Propagator() = default;
  explicit Propagator(Options options) : options_(options) {}

  const Options& options() const noexcept { return options_; }

  /// Runs propagation over the network's current box.  Does not modify any
  /// property binding; evaluation cost is charged to the network.
  PropagationResult run(Network& net) const;

  /// "What-if" feasible subspace: the values property `p` could be rebound
  /// to, given everything else in the current state.  Computed by relaxing p
  /// to its initial range and re-propagating.  The evaluations consumed are
  /// charged to the network and reported in the result.
  PropagationResult runRelaxed(Network& net, PropertyId p) const;

 private:
  PropagationResult runOnBox(Network& net,
                             std::vector<interval::Interval> box) const;

  Options options_;

  /// Scratch arena reused across runs so the steady-state hot path performs
  /// no heap allocation: the per-revise `before` and `after` snapshots, the
  /// per-constraint revise ordinals, the AC-3 FIFO and its membership
  /// bitmap, and the discrete-shaving probe box.  All buffers keep their
  /// capacity between runs.  Mutable because the public
  /// entry points are const (they do not change *observable* propagator
  /// state); consequently a Propagator instance is not safe for concurrent
  /// use — every engine/thread owns its own, as the parallel seed sweep
  /// already guarantees.
  struct Scratch {
    std::vector<interval::Interval> before;
    std::vector<interval::Interval> after;
    /// Revises of each constraint so far in this run: the next revise's
    /// slot in the constraint's revise trace.
    std::vector<std::uint32_t> ordinal;
    /// FIFO as vector + head cursor (std::deque churns block allocations).
    std::vector<ConstraintId> queue;
    std::size_t queueHead = 0;
    /// Queued-set membership; std::uint8_t, not vector<bool>, so tests and
    /// clears are single byte ops without bit masking.
    std::vector<std::uint8_t> queued;
    std::vector<interval::Interval> probe;
  };
  mutable Scratch scratch_;

#ifdef ADPM_DEBUG_CHECKS
  /// Debug builds enforce the "one engine, one propagator" contract above:
  /// the thread entering a run claims the scratch arena and releases it on
  /// exit, so *concurrent* use from two threads aborts loudly instead of
  /// silently corrupting the shared buffers.  Sequential use from different
  /// threads (a session strand hopping pool threads) remains legal.  The
  /// guard is identity, not state — copies start unclaimed.
  struct ScratchOwner {
    std::atomic<std::thread::id> id{};
    ScratchOwner() = default;
    ScratchOwner(const ScratchOwner&) noexcept {}
    ScratchOwner& operator=(const ScratchOwner&) noexcept { return *this; }
  };
  mutable ScratchOwner scratchOwner_;
#endif
};

}  // namespace adpm::constraint
