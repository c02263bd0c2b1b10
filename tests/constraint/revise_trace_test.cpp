// The propagator's revise trace (`Constraint::ReviseTrace`): a revise is
// replayed only when the constraint's arguments repeat bit for bit, and a
// replay changes nothing but the expression-sweep count.
#include <gtest/gtest.h>

#include "constraint/propagate.hpp"
#include "dpm/manager.hpp"
#include "dpm/scenario.hpp"
#include "expr/sweep.hpp"
#include "gen/registry.hpp"

namespace adpm::constraint {
namespace {

void expectSameResult(const PropagationResult& a, const PropagationResult& b) {
  EXPECT_EQ(a.hulls, b.hulls);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.violated, b.violated);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.passes, b.passes);
}

/// The sensing scenario's network with every staged constraint active, so
/// propagation crosses all of its coupled subsystems.
struct SensingNetwork {
  dpm::DesignProcessManager manager{{.adpm = true}};
  SensingNetwork() {
    dpm::instantiate(gen::scenarioByName("sensing"), manager);
    for (ConstraintId cid : net().constraintIds()) {
      if (!net().isActive(cid)) net().activate(cid);
    }
  }
  Network& net() { return manager.network(); }
};

// Without discrete shaving every charged evaluation is a revise, so
// `evaluations` counts the revises exactly.
const Propagator::Options kRevisesOnly{.filterDiscrete = false};

TEST(ReviseTrace, UnchangedBoxReplaysEveryRevise) {
  SensingNetwork s;
  Network& net = s.net();
  const Propagator prop(kRevisesOnly);
  net.forgetReviseTraces();

  net.resetEvaluationCount();
  const PropagationResult first = prop.run(net);
  const std::size_t firstCharge = net.evaluationCount();
  EXPECT_EQ(first.replayed, 0u);
  ASSERT_GT(first.evaluations, 0u);

  net.resetEvaluationCount();
  expr::resetSweepCount();
  const PropagationResult second = prop.run(net);
  EXPECT_EQ(second.replayed, second.evaluations);
  EXPECT_EQ(expr::sweepCount(), 0u) << "a replayed revise is not a sweep";
  EXPECT_EQ(net.evaluationCount(), firstCharge)
      << "a replayed revise is still one charged evaluation";
  expectSameResult(second, first);
}

TEST(ReviseTrace, SignOfZeroIsPartOfTheKey) {
  SensingNetwork s;
  Network& net = s.net();
  const Propagator prop(kRevisesOnly);
  const PropertyId p = net.findProperty("Bias-power").value();
  net.bind(p, 0.0);
  net.forgetReviseTraces();

  const PropagationResult plus = prop.run(net);
  ASSERT_EQ(plus.replayed, 0u);
  // Every revise of a constraint touching p: after one run from an empty
  // trace, a constraint's slot count is its revise count (below the cap).
  std::size_t touching = 0;
  for (ConstraintId cid : net.constraintsOf(p)) {
    if (!net.isActive(cid)) continue;
    const Constraint::ReviseTrace& trace = net.constraint(cid).reviseTrace();
    ASSERT_LT(trace.size(), Constraint::ReviseTrace::kSlots);
    touching += trace.size();
  }
  ASSERT_GT(touching, 0u);
  ASSERT_LT(touching, plus.evaluations);

  // [−0, −0] equals [+0, +0] as an Interval, but not bit for bit: every
  // revise that reads p runs again; every other revise replays.
  net.bind(p, -0.0);
  const PropagationResult minus = prop.run(net);
  expectSameResult(minus, plus);
  EXPECT_EQ(minus.replayed, minus.evaluations - touching);

  // The re-recorded slots now serve the −0.0 box.
  const PropagationResult again = prop.run(net);
  EXPECT_EQ(again.replayed, again.evaluations);
  expectSameResult(again, plus);
}

}  // namespace
}  // namespace adpm::constraint
