// Expression-sweep accounting.
//
// A "sweep" is one pass over an expression — a forward interval evaluation,
// an HC4 revise (forward + backward projection, counted once), or one fused
// value+derivative pass of CompiledExpr::derivatives, whether the miner or
// the simulated designer runs it (the tree-walking reference
// implementations in tests/oracle count theirs too: `oracle::monotonicity`
// counts one per `oracle::evalDerivative` walk).  A propagation revise is
// one sweep: the propagator calls CompiledExpr::revisePadded, which sizes
// the target's tolerance pad from its own forward pass (the reference
// propagator evaluates first and so counts two).  A revise the propagator
// replays from the constraint's revise trace is no sweep at all, though it
// is still one charged evaluation.  The counter exists to make the miner's
// Θ(Σβᵢ) → Θ(nc) sweep reduction observable in benchmarks and tests; it is
// *not* the paper's cost metric — that is the network's charged evaluation
// counter (`Network::evaluationCount`), which the optimizations leave
// bit-identical (see docs/ARCHITECTURE.md, "Hot path & evaluation
// accounting").
//
// The counter is thread-local so parallel seed sweeps do not race; read and
// reset it on the thread doing the measured work.
#pragma once

#include <cstdint>

namespace adpm::expr {

namespace detail {
inline thread_local std::uint64_t sweepCounter = 0;
}

/// Records one expression sweep (library-internal; benchmarks only read).
inline void countSweep() noexcept { ++detail::sweepCounter; }

/// Sweeps performed on this thread since the last reset.
inline std::uint64_t sweepCount() noexcept { return detail::sweepCounter; }

inline void resetSweepCount() noexcept { detail::sweepCounter = 0; }

}  // namespace adpm::expr
