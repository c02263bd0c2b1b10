#include "gen/registry.hpp"
#include "teamsim/engine.hpp"
#include "teamsim/experiment.hpp"

#include <gtest/gtest.h>

#include <string>

namespace adpm::teamsim {
namespace {

SimulationOptions opts(bool adpm, std::uint64_t seed) {
  SimulationOptions o;
  o.adpm = adpm;
  o.seed = seed;
  return o;
}

TEST(SimulationEngine, AdpmCompletesWalkthrough) {
  SimulationEngine engine(gen::scenarioByName("walkthrough"), opts(true, 7));
  const SimulationResult r = engine.run();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.operations, 0u);
  EXPECT_GT(r.evaluations, 0u);
  EXPECT_EQ(r.trace.size(), r.operations);
}

TEST(SimulationEngine, ConventionalCompletesWalkthrough) {
  SimulationEngine engine(gen::scenarioByName("walkthrough"), opts(false, 7));
  const SimulationResult r = engine.run();
  EXPECT_TRUE(r.completed);
  // The conventional flow must have issued verification operations.
  bool sawVerification = false;
  for (const auto& s : r.trace) {
    if (s.kind == dpm::OperatorKind::Verification) sawVerification = true;
  }
  EXPECT_TRUE(sawVerification);
}

class CompletesAcrossSeeds
    : public ::testing::TestWithParam<std::tuple<std::string, bool, int>> {};

TEST_P(CompletesAcrossSeeds, RunCompletes) {
  const auto& [name, adpm, seed] = GetParam();
  const dpm::ScenarioSpec spec = gen::scenarioByName(name);
  SimulationEngine engine(spec, opts(adpm, static_cast<std::uint64_t>(seed)));
  const SimulationResult r = engine.run();
  EXPECT_TRUE(r.completed)
      << name << " adpm=" << adpm << " seed=" << seed << " ops="
      << r.operations;
  // Completion means every constraint genuinely holds at the final point.
  auto& net = engine.manager().network();
  for (constraint::ConstraintId cid : net.constraintIds()) {
    EXPECT_NE(net.evaluate(cid), constraint::Status::Violated)
        << net.constraint(cid).name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CompletesAcrossSeeds,
    ::testing::Combine(::testing::Values(std::string("sensing"),
                                         std::string("receiver")),
                       ::testing::Bool(), ::testing::Values(1, 2, 3, 4, 5)));

TEST(SimulationEngine, DeterministicForSameSeed) {
  SimulationEngine a(gen::scenarioByName("sensing"), opts(true, 42));
  SimulationEngine b(gen::scenarioByName("sensing"), opts(true, 42));
  const SimulationResult ra = a.run();
  const SimulationResult rb = b.run();
  EXPECT_EQ(ra.operations, rb.operations);
  EXPECT_EQ(ra.evaluations, rb.evaluations);
  EXPECT_EQ(ra.spins, rb.spins);
  ASSERT_EQ(ra.trace.size(), rb.trace.size());
  for (std::size_t i = 0; i < ra.trace.size(); ++i) {
    EXPECT_EQ(ra.trace[i].designer, rb.trace[i].designer);
    EXPECT_EQ(ra.trace[i].evaluations, rb.trace[i].evaluations);
  }
}

TEST(SimulationEngine, SeedsChangeTheProcess) {
  SimulationEngine a(gen::scenarioByName("sensing"), opts(false, 1));
  SimulationEngine b(gen::scenarioByName("sensing"), opts(false, 2));
  const SimulationResult ra = a.run();
  const SimulationResult rb = b.run();
  // Different random seeds should virtually never produce identical traces.
  EXPECT_TRUE(ra.operations != rb.operations ||
              ra.evaluations != rb.evaluations);
}

TEST(SimulationEngine, TraceAccountingIsConsistent) {
  SimulationEngine engine(gen::scenarioByName("receiver"), opts(true, 3));
  const SimulationResult r = engine.run();
  ASSERT_FALSE(r.trace.size() == 0);
  std::size_t evalSum = engine.bootstrapEvaluations();
  std::size_t spinCount = 0;
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const OpStat& s = r.trace[i];
    EXPECT_EQ(s.opIndex, i + 1);
    evalSum += s.evaluations;
    if (s.spin) ++spinCount;
    EXPECT_EQ(s.cumulativeEvaluations, evalSum);
    EXPECT_EQ(s.cumulativeSpins, spinCount);
  }
  EXPECT_EQ(evalSum, r.evaluations);
  EXPECT_EQ(spinCount, r.spins);
}

TEST(SimulationEngine, StepReturnsFalseWhenEveryoneIdle) {
  SimulationEngine engine(gen::scenarioByName("walkthrough"), opts(true, 1));
  engine.run();
  EXPECT_TRUE(engine.complete());
  EXPECT_FALSE(engine.step());
}

TEST(SimulationEngine, OperationCapStopsRunawayRuns) {
  SimulationOptions o = opts(false, 1);
  o.maxOperations = 5;
  SimulationEngine engine(gen::scenarioByName("receiver"), o);
  const SimulationResult r = engine.run();
  EXPECT_LE(r.operations, 5u);
  EXPECT_FALSE(r.completed);
}

TEST(SimulationEngine, OwnerlessScenarioIdlesImmediately) {
  dpm::ScenarioSpec spec;
  spec.name = "ownerless";
  spec.addObject("o");
  spec.addProperty("x", "o", interval::Domain::continuous(0, 1));
  spec.addProblem({"p", "o", /*owner=*/"", {}, {0}, {}, std::nullopt, {},
                   true});
  SimulationEngine engine(spec, opts(true, 1));
  const SimulationResult r = engine.run();
  EXPECT_EQ(r.operations, 0u);
  EXPECT_FALSE(r.completed);  // nobody can bind x
}

TEST(SimulationEngine, NonpositiveDeltaDivisorIsGuarded) {
  SimulationOptions o = opts(true, 5);
  o.deltaDivisor = 0.0;  // would divide by zero without the guard
  SimulationEngine engine(gen::scenarioByName("sensing"), o);
  const SimulationResult r = engine.run();
  EXPECT_TRUE(r.completed);
}

TEST(OptimizationPhase, ImprovesPreferredVariablesWhileStayingSound) {
  // The receiver's I-bias prefers low (power economy).  With an
  // optimization budget the completed design must end with a strictly
  // smaller bias current than the feasibility-only run, still satisfying
  // every constraint.
  SimulationOptions plain = opts(true, 9);
  SimulationOptions optimizing = plain;
  optimizing.optimizationPasses = 8;

  SimulationEngine a(gen::scenarioByName("receiver"), plain);
  SimulationEngine b(gen::scenarioByName("receiver"), optimizing);
  const SimulationResult ra = a.run();
  const SimulationResult rb = b.run();
  ASSERT_TRUE(ra.completed);
  ASSERT_TRUE(rb.completed);
  EXPECT_GT(rb.operations, ra.operations);  // improvement costs operations

  const auto pid = *b.manager().network().findProperty("I-bias");
  const double biasPlain = *a.manager().network().property(pid).value;
  const double biasOptimized = *b.manager().network().property(pid).value;
  EXPECT_LT(biasOptimized, biasPlain);

  auto& net = b.manager().network();
  for (const auto cid : net.constraintIds()) {
    EXPECT_NE(net.evaluate(cid), constraint::Status::Violated)
        << net.constraint(cid).name();
  }
}

TEST(OptimizationPhase, DisabledByDefault) {
  SimulationEngine engine(gen::scenarioByName("receiver"), opts(true, 9));
  const SimulationResult r = engine.run();
  EXPECT_TRUE(r.completed);
  for (const auto& s : r.trace) {
    // No rationale mentions optimization when the budget is zero.
    (void)s;
  }
  const auto& history = engine.manager().history();
  for (const auto& rec : history) {
    EXPECT_EQ(rec.op.rationale.find("optimize"), std::string::npos);
  }
}

class BlunderRobustness
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(BlunderRobustness, ProcessRecoversFromInjectedErrors) {
  const auto& [adpm, seed] = GetParam();
  SimulationOptions o = opts(adpm, static_cast<std::uint64_t>(seed));
  o.blunderRate = 0.15;  // roughly one in seven bindings is garbage
  SimulationEngine engine(gen::scenarioByName("sensing"), o);
  const SimulationResult r = engine.run();
  EXPECT_TRUE(r.completed) << "adpm=" << adpm << " seed=" << seed;
  // The final design is still sound.
  auto& net = engine.manager().network();
  for (const auto cid : net.constraintIds()) {
    EXPECT_NE(net.evaluate(cid), constraint::Status::Violated)
        << net.constraint(cid).name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BlunderRobustness,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 2, 3, 4)));

TEST(BlunderRobustness, ErrorsCostOperations) {
  // Injected blunders create conflicts that must be repaired: on average the
  // ADPM runs get longer, never shorter, across a small sweep.
  SimulationOptions clean = opts(true, 1);
  SimulationOptions sloppy = clean;
  sloppy.blunderRate = 0.25;
  const CellStats a =
      runSeedSweep(gen::scenarioByName("sensing"), clean, 10);
  const CellStats b =
      runSeedSweep(gen::scenarioByName("sensing"), sloppy, 10);
  EXPECT_EQ(a.completed, a.runs);
  EXPECT_EQ(b.completed, b.runs);
  EXPECT_GT(b.operations.mean(), a.operations.mean());
}

}  // namespace
}  // namespace adpm::teamsim
