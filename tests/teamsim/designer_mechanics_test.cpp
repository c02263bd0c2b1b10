// Focused rigs for the designer's repair machinery: boundary solving,
// step clamping against known constraints, evidence-freshness gating, and
// the attempts rotation.  Each rig isolates one mechanism.
#include <gtest/gtest.h>

#include "dpm/scenario.hpp"
#include "teamsim/designer.hpp"

namespace adpm::teamsim {
namespace {

using constraint::ConstraintId;
using constraint::PropertyId;
using constraint::Relation;
using interval::Domain;

dpm::Operation synth(std::uint32_t prob, const char* designer,
                     std::uint32_t pid, double v) {
  dpm::Operation op;
  op.kind = dpm::OperatorKind::Synthesis;
  op.problem = dpm::ProblemId{prob};
  op.designer = designer;
  op.assignments.emplace_back(PropertyId{pid}, v);
  return op;
}

dpm::Operation verifyOp(std::uint32_t prob, const char* designer) {
  dpm::Operation op;
  op.kind = dpm::OperatorKind::Verification;
  op.problem = dpm::ProblemId{prob};
  op.designer = designer;
  return op;
}

TEST(DesignerMechanics, BoundarySolveLandsNearCrossing) {
  // Conventional flow, derived chain: power == 0.5*x^2, spec power <= 50.
  // With x bound to 12 (power 72, violated), the boundary solve should land
  // x just under sqrt(100) = 10 in one operation — not crawl by deltas.
  dpm::ScenarioSpec spec;
  spec.name = "bsolve";
  spec.addObject("o");
  const auto x = spec.addProperty("x", "o", Domain::continuous(0, 20));
  const auto power = spec.addProperty("power", "o", Domain::continuous(0, 250));
  spec.addConstraint({"model", spec.pvar(power), Relation::Eq,
                      0.5 * expr::sqr(spec.pvar(x)), {}});
  spec.addConstraint({"spec", spec.pvar(power), Relation::Le,
                      expr::Expr::constant(50.0), {}});
  spec.addProblem({"P", "o", "dana", {}, {x, power}, {0, 1},
                   std::nullopt, {}, true});

  dpm::DesignProcessManager mgr(
      dpm::DesignProcessManager::Options{.adpm = false});
  dpm::instantiate(spec, mgr);
  mgr.execute(synth(0, "dana", static_cast<std::uint32_t>(x), 12.0));
  mgr.execute(synth(0, "dana", static_cast<std::uint32_t>(power), 72.0));
  mgr.execute(verifyOp(0, "dana"));
  ASSERT_GT(mgr.knownViolationCount(), 0u);

  SimulationOptions options;
  options.adpm = false;
  SimulatedDesigner dana("dana", options, 3);
  // Drive the repairs; within a handful of operations x must land below 10.
  for (int i = 0; i < 12; ++i) {
    auto op = dana.nextOperation(mgr);
    ASSERT_TRUE(op.has_value());
    mgr.execute(*op);
    if (mgr.designComplete()) break;
  }
  EXPECT_TRUE(mgr.designComplete());
  const double xFinal =
      *mgr.network().property(PropertyId{static_cast<std::uint32_t>(x)}).value;
  EXPECT_LE(xFinal, 10.0 + 1e-6);
  EXPECT_GT(xFinal, 8.5);  // a boundary solve, not a blind plunge
}

TEST(DesignerMechanics, StepClampStopsAtKnownBoundary) {
  // ADPM: a violated budget pushes y down, but it cannot be fixed by y at
  // all (the frozen requirement z dominates the sum), so neither the
  // what-if window nor the 1-D boundary solve apply and the designer falls
  // back to delta stepping.  A second, currently satisfied floor constraint
  // must cap the plunge: the clamp never lets y cross the floor.
  dpm::ScenarioSpec spec;
  spec.name = "clamp";
  spec.addObject("sys");
  spec.addObject("o", "sys");
  const auto y = spec.addProperty("y", "o", Domain::continuous(0, 100));
  const auto z = spec.addProperty("z", "sys", Domain::continuous(0, 100));
  // floor: y >= 40 (the known boundary the repair must respect).
  spec.addConstraint({"floor", spec.pvar(y), Relation::Ge,
                      expr::Expr::constant(40.0), {}});
  // budget: y + z <= 30 with z frozen at 50 — violated for every y, so no
  // boundary crossing exists inside y's range.
  spec.addConstraint({"budget", spec.pvar(y) + spec.pvar(z), Relation::Le,
                      expr::Expr::constant(30.0), {}});
  spec.addProblem({"Top", "sys", "lead", {}, {z}, {1},
                   std::nullopt, {}, true});
  spec.addProblem({"P", "o", "dana", {z}, {y}, {0},
                   std::optional<std::size_t>{0}, {}, true});
  spec.require(z, 50.0);

  dpm::DesignProcessManager mgr(dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(spec, mgr);
  mgr.execute(synth(1, "dana", static_cast<std::uint32_t>(y), 70.0));
  ASSERT_GT(mgr.knownViolationCount(), 0u);  // budget violated

  SimulationOptions options;
  SimulatedDesigner dana("dana", options, 7);
  double lowest = 70.0;
  for (int i = 0; i < 25; ++i) {
    auto op = dana.nextOperation(mgr);
    if (!op || op->assignments.empty()) break;
    mgr.execute(*op);
    const auto& p = mgr.network().property(
        PropertyId{static_cast<std::uint32_t>(y)});
    if (p.bound()) lowest = std::min(lowest, *p.value);
  }
  // Despite adaptive step growth, the clamp keeps y at or above the floor.
  EXPECT_GE(lowest, 40.0 - 1e-6);
  EXPECT_LT(lowest, 70.0);  // it did move
}

TEST(DesignerMechanics, StaleEvidenceSuppressesRepairUntilVerified) {
  // Conventional: a violated cross spec reads derived values; once the
  // designer rebinds an upstream variable the old verdict is stale and the
  // next action must be verification, not another repair.
  dpm::ScenarioSpec spec;
  spec.name = "fresh";
  spec.addObject("sys");
  spec.addObject("o", "sys");
  const auto x = spec.addProperty("x", "o", Domain::continuous(0, 10));
  const auto d = spec.addProperty("d", "o", Domain::continuous(0, 30));
  const auto cap = spec.addProperty("cap", "sys", Domain::continuous(1, 30));
  spec.addConstraint({"model", spec.pvar(d), Relation::Eq,
                      2.0 * spec.pvar(x), {}});
  spec.addConstraint({"spec", spec.pvar(d), Relation::Le, spec.pvar(cap), {}});
  const auto top = spec.addProblem({"Top", "sys", "lead", {}, {cap}, {1},
                                    std::nullopt, {}, true});
  spec.addProblem({"P", "o", "dana", {cap}, {x, d}, {0}, top, {}, true});
  spec.require(cap, 10.0);

  dpm::DesignProcessManager mgr(
      dpm::DesignProcessManager::Options{.adpm = false});
  dpm::instantiate(spec, mgr);
  mgr.execute(synth(1, "dana", static_cast<std::uint32_t>(x), 9.0));
  mgr.execute(synth(1, "dana", static_cast<std::uint32_t>(d), 18.0));
  mgr.execute(verifyOp(1, "dana"));
  mgr.execute(verifyOp(0, "lead"));  // spec violated: 18 > 10
  ASSERT_GT(mgr.knownViolationCount(), 0u);

  SimulationOptions options;
  options.adpm = false;
  SimulatedDesigner dana("dana", options, 5);
  // First action: a repair (evidence fresh).
  auto op1 = dana.nextOperation(mgr);
  ASSERT_TRUE(op1.has_value());
  EXPECT_EQ(op1->kind, dpm::OperatorKind::Synthesis);
  EXPECT_TRUE(op1->triggeredBy.has_value());
  mgr.execute(*op1);

  // The spec's verdict is now stale through the model chain: the next
  // designer action must be verification, not a further repair.
  auto op2 = dana.nextOperation(mgr);
  ASSERT_TRUE(op2.has_value());
  EXPECT_EQ(op2->kind, dpm::OperatorKind::Verification)
      << "acted on stale evidence";
}

TEST(DesignerMechanics, AttemptsRotationTriesAlternateKnobs) {
  // Two knobs influence a violated spec; the first choice cannot fix it
  // (its admissible range is exhausted).  After a few futile attempts the
  // rotation must hand the repair to the other knob.
  dpm::ScenarioSpec spec;
  spec.name = "rotate";
  spec.addObject("o");
  const auto a = spec.addProperty("a", "o", Domain::continuous(0, 1));
  const auto b = spec.addProperty("b", "o", Domain::continuous(0, 100));
  // a + b <= 10: with b bound at 60, only b can realistically fix it
  // (a's entire range moves the sum by at most 1).
  spec.addConstraint({"sum", spec.pvar(a) + spec.pvar(b), Relation::Le,
                      expr::Expr::constant(10.0), {}});
  spec.addProblem({"P", "o", "dana", {}, {a, b}, {0},
                   std::nullopt, {}, true});

  dpm::DesignProcessManager mgr(dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(spec, mgr);
  mgr.execute(synth(0, "dana", static_cast<std::uint32_t>(a), 0.5));
  mgr.execute(synth(0, "dana", static_cast<std::uint32_t>(b), 60.0));
  ASSERT_GT(mgr.knownViolationCount(), 0u);

  SimulationOptions options;
  SimulatedDesigner dana("dana", options, 11);
  bool touchedB = false;
  for (int i = 0; i < 15 && !mgr.designComplete(); ++i) {
    auto op = dana.nextOperation(mgr);
    ASSERT_TRUE(op.has_value());
    for (const auto& [pid, value] : op->assignments) {
      (void)value;
      touchedB = touchedB || pid.value == static_cast<std::uint32_t>(b);
    }
    mgr.execute(*op);
  }
  EXPECT_TRUE(touchedB) << "rotation never tried the knob that can fix it";
  EXPECT_TRUE(mgr.designComplete());
}

TEST(DesignerMechanics, SharedEqualityChainsThroughBothSides) {
  // One equality a == b is a defining model of both a and b, read from a
  // different side for each (b for a, a for b).  The knob k reaches a
  // through a == 3k, and reaches b only through a == b read from b's side.
  // Both specs are violated, so k influences both: alpha = 2.  A chain
  // that reused a's reading of a == b for b would see b depend on itself
  // and credit k with the first spec only.
  dpm::ScenarioSpec spec;
  spec.name = "shared";
  spec.addObject("o");
  const auto k = spec.addProperty("k", "o", Domain::continuous(0, 100));
  const auto a = spec.addProperty("a", "o", Domain::continuous(0, 300));
  const auto b = spec.addProperty("b", "o", Domain::continuous(0, 300));
  spec.addConstraint({"same", spec.pvar(a), Relation::Eq, spec.pvar(b), {}});
  spec.addConstraint({"model", spec.pvar(a), Relation::Eq,
                      3.0 * spec.pvar(k), {}});
  spec.addConstraint({"specA", spec.pvar(a), Relation::Le,
                      expr::Expr::constant(20.0), {}});
  spec.addConstraint({"specB", spec.pvar(b), Relation::Le,
                      expr::Expr::constant(20.0), {}});
  spec.addProblem({"P", "o", "dana", {}, {k, a, b}, {0, 1, 2, 3},
                   std::nullopt, {}, true});

  dpm::DesignProcessManager mgr(dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(spec, mgr);
  mgr.execute(synth(0, "dana", static_cast<std::uint32_t>(k), 10.0));
  mgr.execute(synth(0, "dana", static_cast<std::uint32_t>(a), 30.0));
  mgr.execute(synth(0, "dana", static_cast<std::uint32_t>(b), 30.0));
  ASSERT_EQ(mgr.knownViolationCount(), 2u);  // specA and specB

  SimulationOptions options;
  SimulatedDesigner dana("dana", options, 13);
  const auto op = dana.nextOperation(mgr);
  ASSERT_TRUE(op.has_value());
  ASSERT_EQ(op->assignments.size(), 1u);
  EXPECT_EQ(op->assignments[0].first.value, static_cast<std::uint32_t>(k));
  EXPECT_NE(op->rationale.find("(alpha=2)"), std::string::npos)
      << op->rationale;
}

}  // namespace
}  // namespace adpm::teamsim
