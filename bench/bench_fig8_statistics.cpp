// Fig. 8: TeamSim's design process statistics window.
//
// "Key statistics are dynamically displayed, including the number of
// constraints, the number of violations, the number of constraint
// evaluations, and the cumulative number of design spins."
//
// The bench replays a receiver-case simulation and prints the statistics
// window at regular checkpoints (the paper's window updates live during the
// run), then the final panel plus history strips of each displayed series.
#include <cstdio>

#include "gen/registry.hpp"
#include "teamsim/engine.hpp"
#include "teamsim/statwindow.hpp"

using namespace adpm;

int main() {
  teamsim::SimulationOptions options;
  options.adpm = true;
  options.seed = 11;

  teamsim::SimulationEngine engine(gen::scenarioByName("receiver"), options);

  std::size_t nextCheckpoint = 10;
  while (!engine.complete() && engine.operations() < options.maxOperations) {
    if (!engine.step()) break;
    if (engine.operations() == nextCheckpoint) {
      std::printf("---- checkpoint: after %zu operations ----\n",
                  engine.operations());
      std::printf("%s\n", teamsim::renderStatisticsWindow(engine).c_str());
      nextCheckpoint += 10;
    }
  }

  std::printf("---- final ----\n");
  std::printf("%s\n", teamsim::renderStatisticsWindow(engine).c_str());

  std::printf("history (per-operation series downsampled, # = peak):\n");
  std::printf("%s", teamsim::renderHistoryStrip(engine.trace(),
                                                "violationsKnown").c_str());
  std::printf("%s", teamsim::renderHistoryStrip(engine.trace(),
                                                "evaluations").c_str());
  std::printf("%s", teamsim::renderHistoryStrip(engine.trace(),
                                                "spins").c_str());

  // The same run in the conventional flow, for the side-by-side the paper's
  // screenshots implied.
  teamsim::SimulationOptions conv = options;
  conv.adpm = false;
  teamsim::SimulationEngine convEngine(gen::scenarioByName("receiver"), conv);
  convEngine.run();
  std::printf("\n---- same scenario, conventional flow ----\n");
  std::printf("%s\n", teamsim::renderStatisticsWindow(convEngine).c_str());
  std::printf("%s", teamsim::renderHistoryStrip(convEngine.trace(),
                                                "violationsKnown").c_str());
  std::printf("%s", teamsim::renderHistoryStrip(convEngine.trace(),
                                                "spins").c_str());
  return engine.complete() && convEngine.complete() ? 0 : 1;
}
