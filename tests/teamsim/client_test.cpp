#include "gen/registry.hpp"
#include "teamsim/client.hpp"

#include <gtest/gtest.h>

#include "dpm/manager.hpp"
#include "dpm/scenario.hpp"
#include "teamsim/engine.hpp"

namespace adpm::teamsim {
namespace {

TEST(TeamClient, HostedRunMatchesInProcessEngine) {
  SimulationOptions options;
  options.adpm = true;
  options.seed = 5;
  const dpm::ScenarioSpec spec = gen::scenarioByName("sensing");

  // In-process reference: the engine drives its own DPM to completion.
  SimulationEngine engine(spec, options);
  const SimulationResult reference = engine.run();
  ASSERT_TRUE(reference.completed);

  // Hosted run: same seed derivation, one propose/apply/observe round trip
  // per operation, the host owning the manager.
  dpm::DesignProcessManager dpm(options.managerOptions());
  dpm::instantiate(spec, dpm);
  dpm.bootstrap();
  TeamClient client(dpm, options);
  EXPECT_EQ(client.designerCount(), 3u);

  std::size_t ops = 0;
  while (ops < options.maxOperations) {
    std::optional<dpm::Operation> op = client.propose(dpm);
    if (!op) break;
    const auto result = dpm.execute(std::move(*op));
    client.observe(dpm, result.record);
    ++ops;
  }

  EXPECT_TRUE(dpm.designComplete());
  EXPECT_EQ(ops, reference.operations);
  EXPECT_EQ(client.operationsProposed(), reference.operations);
  EXPECT_EQ(dpm.network().evaluationCount(), reference.evaluations);
}

TEST(TeamClient, ProposeIsIdleOnCompletedDesign) {
  SimulationOptions options;
  options.seed = 2;
  const dpm::ScenarioSpec spec = gen::scenarioByName("sensing");
  dpm::DesignProcessManager dpm(options.managerOptions());
  dpm::instantiate(spec, dpm);
  dpm.bootstrap();
  TeamClient client(dpm, options);
  while (auto op = client.propose(dpm)) {
    client.observe(dpm, dpm.execute(std::move(*op)).record);
  }
  EXPECT_TRUE(dpm.designComplete());
  // Once everyone is idle the client stays idle.
  EXPECT_EQ(client.propose(dpm), std::nullopt);
}

}  // namespace
}  // namespace adpm::teamsim
