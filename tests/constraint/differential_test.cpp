// Differential equivalence: the shipped hot path vs. the reference oracles.
//
// "Verification of Concurrent Engineering Software Using CSM Models"
// (Mieścicki et al.) motivates keeping an optimized implementation provably
// equivalent to the specification-level one.  Here the specification is the
// pre-optimization code, kept in tests/oracle: the reference propagator
// (per-revise allocations, two sweeps per revise) and the reference miner
// (tree-walk help directions, its own precedence rules, the reference
// propagator for what-ifs).  The oracles share no propagation or mining
// code with the shipped library.  These tests hold the zero-allocation
// propagator and the compiled-AD miner to *bit-identical* results — same
// PropagationResult, same GuidanceReport, and, the paper's reproduced cost
// metric, the same charged evaluation counts — across all four scenarios
// and a range of design states (initial, partially bound, violated), and on
// the generated nonlinear networks that dominate the benchmark's hot path
// (zoo-small's three states, and zoo-small and zoo-medium after each
// operation of a TeamSim session, where revise traces replay).
#include <gtest/gtest.h>

#include "constraint/miner.hpp"
#include "constraint/propagate.hpp"
#include "dpm/manager.hpp"
#include "dpm/scenario.hpp"
#include "gen/registry.hpp"
#include "oracle/miner.hpp"
#include "oracle/propagate.hpp"
#include "teamsim/client.hpp"
#include "teamsim/options.hpp"

namespace adpm::constraint {
namespace {

std::vector<std::pair<std::string, dpm::ScenarioSpec>> allScenarios() {
  return {{"walkthrough", gen::scenarioByName("walkthrough")},
          {"receiver", gen::scenarioByName("receiver")},
          {"sensing", gen::scenarioByName("sensing")},
          {"accelerometer", gen::scenarioByName("accelerometer")}};
}

void expectSamePropagation(const PropagationResult& a,
                           const PropagationResult& b) {
  ASSERT_EQ(a.hulls.size(), b.hulls.size());
  for (std::size_t i = 0; i < a.hulls.size(); ++i) {
    EXPECT_EQ(a.hulls[i], b.hulls[i]) << "hull " << i;
  }
  ASSERT_EQ(a.feasible.size(), b.feasible.size());
  for (std::size_t i = 0; i < a.feasible.size(); ++i) {
    EXPECT_EQ(a.feasible[i], b.feasible[i]) << "feasible " << i;
  }
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.violated, b.violated);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.passes, b.passes);
}

void expectSameGuidance(const GuidanceReport& a, const GuidanceReport& b) {
  EXPECT_EQ(a.violated, b.violated);
  EXPECT_EQ(a.extraEvaluations, b.extraEvaluations);
  ASSERT_EQ(a.properties.size(), b.properties.size());
  for (std::size_t i = 0; i < a.properties.size(); ++i) {
    const PropertyGuidance& ga = a.properties[i];
    const PropertyGuidance& gb = b.properties[i];
    EXPECT_EQ(ga.id, gb.id);
    EXPECT_EQ(ga.feasible, gb.feasible) << "feasible subspace, property " << i;
    EXPECT_EQ(ga.relativeFeasibleSize, gb.relativeFeasibleSize)
        << "relative size, property " << i;
    EXPECT_EQ(ga.beta, gb.beta) << "beta, property " << i;
    EXPECT_EQ(ga.alpha, gb.alpha) << "alpha, property " << i;
    EXPECT_EQ(ga.increasing, gb.increasing) << "increasing, property " << i;
    EXPECT_EQ(ga.decreasing, gb.decreasing) << "decreasing, property " << i;
    EXPECT_EQ(ga.repairVotesUp, gb.repairVotesUp);
    EXPECT_EQ(ga.repairVotesDown, gb.repairVotesDown);
  }
}

/// One managed instance per code path; scenario instantiation is
/// deterministic, so the two networks start out identical.
struct Pair {
  dpm::DesignProcessManager fast;
  dpm::DesignProcessManager reference;

  explicit Pair(const dpm::ScenarioSpec& spec,
                const dpm::DesignProcessManager::Options& options = {})
      : fast(options), reference(options) {
    dpm::instantiate(spec, fast);
    dpm::instantiate(spec, reference);
  }

  Network& fastNet() { return fast.network(); }
  Network& refNet() { return reference.network(); }

  void bindBoth(std::size_t propertyIndex, double v) {
    fastNet().bind(PropertyId{static_cast<std::uint32_t>(propertyIndex)}, v);
    refNet().bind(PropertyId{static_cast<std::uint32_t>(propertyIndex)}, v);
  }

  /// Runs propagation + mining through the shipped code and the oracles on
  /// the current state and asserts identical results and identical charged
  /// evaluations.  Mines twice so the shipped miner's generation-keyed
  /// cache (hit on the second mine) is held to the same equivalence.
  /// Returns the shipped side's revises served from revise traces (the
  /// oracles never replay), so callers can show the replay path was taken.
  std::size_t check(const std::string& label) {
    SCOPED_TRACE(label);
    Propagator fastProp;
    oracle::ReferencePropagator refProp;
    HeuristicMiner fastMiner;
    oracle::ReferenceMiner refMiner;

    fastNet().resetEvaluationCount();
    refNet().resetEvaluationCount();

    const PropagationResult pf = fastProp.run(fastNet());
    const PropagationResult pr = refProp.run(refNet());
    expectSamePropagation(pf, pr);
    EXPECT_EQ(fastNet().evaluationCount(), refNet().evaluationCount());

    const GuidanceReport gf = fastMiner.mine(fastNet(), pf);
    const GuidanceReport gr = refMiner.mine(refNet(), pr);
    expectSameGuidance(gf, gr);
    EXPECT_EQ(fastNet().evaluationCount(), refNet().evaluationCount())
        << "charged evaluations diverged during mining";

    // Second mine over the unchanged box: the shipped miner answers from
    // its cache; the report and the charges must not change shape.
    const std::size_t chargedBefore = fastNet().evaluationCount();
    const std::size_t refChargedBefore = refNet().evaluationCount();
    const GuidanceReport gf2 = fastMiner.mine(fastNet(), pf);
    const GuidanceReport gr2 = refMiner.mine(refNet(), pr);
    expectSameGuidance(gf2, gr2);
    expectSameGuidance(gf2, gf);
    EXPECT_EQ(fastNet().evaluationCount() - chargedBefore,
              refNet().evaluationCount() - refChargedBefore);
    return pf.replayed + gf.extraReplayed + gf2.extraReplayed;
  }
};

/// Binds every third unbound property to its hull midpoint — a plausible
/// partially-designed state with plenty of mixed statuses.
void bindMidRange(Pair& pair) {
  Network& net = pair.fastNet();
  for (std::size_t i = 0; i < net.propertyCount(); i += 3) {
    const Property& p = net.property(PropertyId{static_cast<std::uint32_t>(i)});
    if (p.bound()) continue;
    pair.bindBoth(i, p.initial.hull().mid());
  }
}

/// Drives properties toward their extremes to manufacture violations (the
/// conventional-mode designer does exactly this kind of damage); the
/// miner's what-if re-propagation for bound violated properties is the
/// expensive path this exercises.
void bindExtremes(Pair& pair) {
  Network& net = pair.fastNet();
  std::size_t boundCount = 0;
  for (std::size_t i = 0; i < net.propertyCount() && boundCount < 6; ++i) {
    const Property& p = net.property(PropertyId{static_cast<std::uint32_t>(i)});
    if (p.bound()) continue;
    const interval::Interval hull = p.initial.hull();
    pair.bindBoth(i, boundCount % 2 == 0 ? hull.hi() : hull.lo());
    ++boundCount;
  }
}

TEST(Differential, InitialStateAllScenarios) {
  for (auto& [name, spec] : allScenarios()) {
    Pair pair(spec);
    pair.check(name + "/initial");
  }
}

TEST(Differential, MidRangeBindingsAllScenarios) {
  for (auto& [name, spec] : allScenarios()) {
    Pair pair(spec);
    bindMidRange(pair);
    pair.check(name + "/mid-range");
  }
}

TEST(Differential, ViolatedStateAllScenarios) {
  for (auto& [name, spec] : allScenarios()) {
    Pair pair(spec);
    bindExtremes(pair);
    pair.check(name + "/extremes");
  }
}

TEST(Differential, ZooSmallAllStates) {
  // The generated networks are nonlinear, cyclic and far larger than the
  // paper's cases: the benchmark's hot path, held to the same equivalence
  // in the same three states.
  const dpm::ScenarioSpec spec = gen::scenarioByName("zoo-small");
  {
    Pair pair(spec);
    pair.check("zoo-small/initial");
  }
  {
    Pair pair(spec);
    bindMidRange(pair);
    pair.check("zoo-small/mid-range");
  }
  {
    Pair pair(spec);
    bindExtremes(pair);
    pair.check("zoo-small/extremes");
  }
}

/// Drives `ops` TeamSim operations (bindings, repairs, decompositions that
/// activate staged constraints), proposed on the shipped side and executed
/// on both, and checks the pair after every one.  The shipped side's revise
/// traces carry over from operation to operation (the manager's own runs
/// and what-ifs fill them), so the checks hold the replay path to the
/// oracles on the states a real session reaches.
void checkAfterTeamSimOps(const std::string& scenario, std::size_t ops) {
  teamsim::SimulationOptions options;
  options.adpm = true;
  options.seed = 1;
  Pair pair(gen::scenarioByName(scenario), options.managerOptions());
  pair.fast.bootstrap();
  pair.reference.bootstrap();
  teamsim::TeamClient client(pair.fast, options);
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    std::optional<dpm::Operation> op = client.propose(pair.fast);
    ASSERT_TRUE(op.has_value()) << "no operation " << i;
    (void)pair.reference.execute(*op);
    client.observe(pair.fast, pair.fast.execute(std::move(*op)).record);
    ASSERT_EQ(pair.fastNet().currentBox(), pair.refNet().currentBox());
    replayed += pair.check(scenario + "/after-op-" + std::to_string(i + 1));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(replayed, 0u) << "no checked run replayed a revise";
}

TEST(Differential, ZooMediumAfterTeamSimOps) {
  checkAfterTeamSimOps("zoo-medium", 10);
}

TEST(Differential, ZooSmallAfterTeamSimOps) {
  checkAfterTeamSimOps("zoo-small", 25);
}

TEST(Differential, SinglePassAndNoShavingModes) {
  // The ablation configurations ride the same hot path; hold them to the
  // same equivalence on the scenario with discrete properties.
  for (auto& [name, spec] : allScenarios()) {
    Pair pair(spec);
    Propagator fastProp{
        Propagator::Options{.fixpoint = false, .filterDiscrete = false}};
    oracle::ReferencePropagator refProp{
        Propagator::Options{.fixpoint = false, .filterDiscrete = false}};
    pair.fastNet().resetEvaluationCount();
    pair.refNet().resetEvaluationCount();
    const PropagationResult pf = fastProp.run(pair.fastNet());
    const PropagationResult pr = refProp.run(pair.refNet());
    SCOPED_TRACE(name);
    expectSamePropagation(pf, pr);
    EXPECT_EQ(pair.fastNet().evaluationCount(),
              pair.refNet().evaluationCount());
  }
}

}  // namespace
}  // namespace adpm::constraint
