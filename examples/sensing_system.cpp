// The MEMS pressure-sensing design case (paper, Section 3.2, case 1), run
// under both process flows with live statistics, plus the Fig. 8-style
// statistics window and history strips.
//
//   $ ./sensing_system [seed]
#include <cstdio>
#include <cstdlib>

#include "gen/registry.hpp"
#include "teamsim/engine.hpp"
#include "teamsim/statwindow.hpp"

using namespace adpm;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  const dpm::ScenarioSpec scenario = gen::scenarioByName("sensing");
  std::printf("Scenario '%s': %zu properties, %zu constraints, %zu problems\n",
              scenario.name.c_str(), scenario.properties.size(),
              scenario.constraints.size(), scenario.problems.size());

  for (const bool adpm : {false, true}) {
    teamsim::SimulationOptions options;
    options.adpm = adpm;
    options.seed = seed;

    teamsim::SimulationEngine engine(scenario, options);
    const teamsim::SimulationResult result = engine.run();

    std::printf("\n%s\n", teamsim::renderStatisticsWindow(engine).c_str());
    std::printf("%s",
                teamsim::renderHistoryStrip(engine.trace(), "violationsFound")
                    .c_str());
    std::printf("%s",
                teamsim::renderHistoryStrip(engine.trace(), "evaluations")
                    .c_str());
    std::printf("%s",
                teamsim::renderHistoryStrip(engine.trace(), "spins").c_str());

    // Final design values for the completed run.
    if (result.completed) {
      std::printf("\nFinal design (%s):\n",
                  adpm ? "ADPM" : "conventional");
      const auto& net = engine.manager().network();
      for (const auto pid : net.propertyIds()) {
        const auto& p = net.property(pid);
        if (p.bound()) {
          std::printf("  %-14s = %-12g %s\n", p.name.c_str(), *p.value,
                      p.unit.c_str());
        }
      }
    }
  }
  return 0;
}
