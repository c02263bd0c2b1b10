// Reference propagator: the pre-optimization AC-3/HC4 fixpoint, kept
// verbatim as the specification constraint::Propagator is tested against.
//
// It allocates per revise (a fresh `before` snapshot, a std::deque
// worklist, a vector<bool> queued set), copies the whole box per candidate
// value in discrete shaving, and revises in two sweeps (`evaluate` to size
// the tolerance pad, then `revise`).  The shipped Propagator does the same
// work from a reused scratch arena in one sweep per revise; the
// differential tests hold the two to bit-identical results and charges.
#pragma once

#include <vector>

#include "constraint/network.hpp"
#include "constraint/propagate.hpp"

namespace adpm::oracle {

class ReferencePropagator {
 public:
  using Options = constraint::Propagator::Options;

  ReferencePropagator() = default;
  explicit ReferencePropagator(Options options) : options_(options) {}

  /// Same contract as constraint::Propagator::run.
  constraint::PropagationResult run(constraint::Network& net) const;

  /// Same contract as constraint::Propagator::runRelaxed.
  constraint::PropagationResult runRelaxed(constraint::Network& net,
                                           constraint::PropertyId p) const;

 private:
  constraint::PropagationResult runOnBox(
      constraint::Network& net, std::vector<interval::Interval> box) const;

  Options options_;
};

}  // namespace adpm::oracle
