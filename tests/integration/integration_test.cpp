// End-to-end integration tests: the paper's evaluation claims as assertions,
// run at reduced seed counts so they stay fast in CI (bench/ runs the full
// 60-seed protocol).
#include <gtest/gtest.h>

#include <sstream>

#include "dddl/parser.hpp"
#include "dddl/writer.hpp"
#include "gen/registry.hpp"
#include "teamsim/experiment.hpp"
#include "teamsim/export.hpp"

namespace adpm {
namespace {

constexpr std::size_t kSeeds = 12;

TEST(Integration, Fig9OperationShapes) {
  const teamsim::SimulationOptions base;
  const teamsim::Comparison sensing = teamsim::compareApproaches(
      gen::scenarioByName("sensing"), base, kSeeds);
  const teamsim::Comparison receiver = teamsim::compareApproaches(
      gen::scenarioByName("receiver"), base, kSeeds);

  // Everything completes.
  EXPECT_EQ(sensing.adpm.completed, sensing.adpm.runs);
  EXPECT_EQ(sensing.conventional.completed, sensing.conventional.runs);
  EXPECT_EQ(receiver.adpm.completed, receiver.adpm.runs);
  EXPECT_EQ(receiver.conventional.completed, receiver.conventional.runs);

  // "At least twice as many operations ... using the conventional approach."
  EXPECT_GE(sensing.operationRatio(), 2.0);
  EXPECT_GE(receiver.operationRatio(), 2.0);

  // "ADPM's results were at least 3 times less variable."
  EXPECT_GE(sensing.variabilityRatio(), 3.0);
  EXPECT_GE(receiver.variabilityRatio(), 3.0);

  // ADPM spins are a small fraction of conventional's (paper: ~7% blended).
  const double blended =
      (sensing.adpm.spins.mean() + receiver.adpm.spins.mean()) /
      (sensing.conventional.spins.mean() +
       receiver.conventional.spins.mean());
  EXPECT_LT(blended, 0.25);
}

TEST(Integration, Fig9EvaluationShapes) {
  const teamsim::SimulationOptions base;
  const teamsim::Comparison sensing = teamsim::compareApproaches(
      gen::scenarioByName("sensing"), base, kSeeds);
  const teamsim::Comparison receiver = teamsim::compareApproaches(
      gen::scenarioByName("receiver"), base, kSeeds);

  // ADPM consumes more evaluations in total...
  EXPECT_GT(sensing.evaluationRatio(), 1.0);
  EXPECT_GT(receiver.evaluationRatio(), 1.0);
  // ...and the per-operation penalty exceeds the total penalty.
  const double sPerOp = sensing.adpm.evaluationsPerOperation.mean() /
                        sensing.conventional.evaluationsPerOperation.mean();
  const double rPerOp = receiver.adpm.evaluationsPerOperation.mean() /
                        receiver.conventional.evaluationsPerOperation.mean();
  EXPECT_GT(sPerOp, sensing.evaluationRatio());
  EXPECT_GT(rPerOp, receiver.evaluationRatio());
}

TEST(Integration, Fig10TightnessRobustness) {
  std::vector<double> convMeans;
  std::vector<double> adpmMeans;
  dpm::ScenarioSpec spec = gen::scenarioByName("receiver");
  const std::size_t gainMin = spec.propertyIndex("Gain-min").value();
  for (const double gain : {22.0, 27.0, 31.0}) {
    for (dpm::ScenarioSpec::Requirement& r : spec.requirements) {
      if (r.property == gainMin) r.value = gain;
    }
    const teamsim::Comparison cmp = teamsim::compareApproaches(
        spec, teamsim::SimulationOptions{}, kSeeds);
    convMeans.push_back(cmp.conventional.operations.mean());
    adpmMeans.push_back(cmp.adpm.operations.mean());
  }
  // The conventional curve varies much more across the sweep.
  const double convRange =
      *std::max_element(convMeans.begin(), convMeans.end()) -
      *std::min_element(convMeans.begin(), convMeans.end());
  const double adpmRange =
      *std::max_element(adpmMeans.begin(), adpmMeans.end()) -
      *std::min_element(adpmMeans.begin(), adpmMeans.end());
  EXPECT_LT(adpmRange, convRange);
}

TEST(Integration, LargeTeamScenarioScalesTheStory) {
  const dpm::ScenarioSpec spec = gen::scenarioByName("receiver4");
  EXPECT_TRUE(spec.validate().empty());
  EXPECT_EQ(spec.problems.size(), 4u);
  EXPECT_EQ(spec.objects.size(), 4u);
  // Same network, more owners.
  EXPECT_EQ(spec.properties.size(), 35u);
  EXPECT_EQ(spec.constraints.size(), 30u);

  const teamsim::Comparison cmp = teamsim::compareApproaches(
      spec, teamsim::SimulationOptions{}, kSeeds);
  EXPECT_EQ(cmp.adpm.completed, cmp.adpm.runs);
  EXPECT_EQ(cmp.conventional.completed, cmp.conventional.runs);
  // Splitting the team multiplies cross-subsystem couplings: the
  // conventional flow suffers at least as much as with three designers.
  EXPECT_GE(cmp.operationRatio(), 2.0);
  EXPECT_LT(cmp.spinRatio(), 0.25);
}

TEST(Integration, LargeTeamRoundTripsThroughDddl) {
  const dpm::ScenarioSpec spec = gen::scenarioByName("receiver4");
  const dpm::ScenarioSpec reparsed = dddl::parse(dddl::write(spec));
  EXPECT_EQ(reparsed.problems.size(), spec.problems.size());
  EXPECT_EQ(reparsed.constraints.size(), spec.constraints.size());
}

TEST(Integration, CompletedDesignsSatisfyEveryConstraintPointwise) {
  // Soundness of the whole stack: when the engine reports completion, a
  // point evaluation of every constraint at the bound values must hold
  // (within the verification tolerance).  Checked across scenarios, modes
  // and seeds.
  for (const bool adpm : {false, true}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      for (const char* name :
           {"sensing", "receiver", "receiver4", "accelerometer"}) {
        const dpm::ScenarioSpec spec = gen::scenarioByName(name);
        teamsim::SimulationOptions options;
        options.adpm = adpm;
        options.seed = seed;
        teamsim::SimulationEngine engine(spec, options);
        const teamsim::SimulationResult r = engine.run();
        ASSERT_TRUE(r.completed)
            << spec.name << " adpm=" << adpm << " seed=" << seed;
        auto& net = engine.manager().network();
        for (const auto cid : net.constraintIds()) {
          EXPECT_NE(net.evaluate(cid), constraint::Status::Violated)
              << spec.name << " adpm=" << adpm << " seed=" << seed << " "
              << net.constraint(cid).name();
        }
      }
    }
  }
}

TEST(Integration, HistoryReplayMatchesFinalState) {
  // Replaying the journaled assignment deltas must reconstruct exactly the
  // final bound values of the network — the journal misses nothing.
  for (const bool adpm : {false, true}) {
    teamsim::SimulationOptions options;
    options.adpm = adpm;
    options.seed = 6;
    teamsim::SimulationEngine engine(gen::scenarioByName("receiver"), options);
    const auto r = engine.run();
    ASSERT_TRUE(r.completed);
    const auto& mgr = engine.manager();
    const auto& h = mgr.designHistory();
    for (const auto pid : mgr.network().propertyIds()) {
      const auto& p = mgr.network().property(pid);
      const auto replayed = h.valueAt(pid, h.stages());
      if (p.bound()) {
        ASSERT_TRUE(replayed.has_value()) << p.name;
        EXPECT_DOUBLE_EQ(*replayed, *p.value) << p.name;
      } else {
        EXPECT_FALSE(replayed.has_value()) << p.name;
      }
    }
  }
}

TEST(Integration, ExportedArtifactsAreConsistent) {
  teamsim::SimulationOptions options;
  options.adpm = true;
  options.seed = 5;
  teamsim::SimulationEngine adpmEngine(gen::scenarioByName("walkthrough"),
                                       options);
  adpmEngine.run();
  options.adpm = false;
  teamsim::SimulationEngine convEngine(gen::scenarioByName("walkthrough"),
                                       options);
  convEngine.run();

  std::ostringstream profile;
  teamsim::writeProfileCsv(profile, convEngine.trace(), adpmEngine.trace());
  // One data row per op of the longer (conventional) run.
  std::size_t newlines = 0;
  for (char c : profile.str()) newlines += (c == '\n');
  EXPECT_EQ(newlines, std::max(convEngine.trace().size(),
                               adpmEngine.trace().size()) + 1);

  const std::string script = teamsim::gnuplotProfileScript("profile.csv");
  EXPECT_NE(script.find("profile.csv"), std::string::npos);
}

}  // namespace
}  // namespace adpm
