// Design-history mining: replay a finished TeamSim run through the journaled
// H_n (paper §2.1) and print a post-mortem report — who did what, which
// properties churned, when violations appeared and how long they lived, and
// where the design spins happened.
//
//   $ ./history_report [adpm|conventional] [seed]
#include <cstdio>
#include <cstring>
#include <string>

#include "gen/registry.hpp"
#include "teamsim/engine.hpp"
#include "util/table.hpp"

using namespace adpm;

int main(int argc, char** argv) {
  teamsim::SimulationOptions options;
  options.adpm = !(argc > 1 && std::strcmp(argv[1], "conventional") == 0);
  options.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4;

  const dpm::ScenarioSpec spec = gen::scenarioByName("receiver");
  teamsim::SimulationEngine engine(spec, options);
  const teamsim::SimulationResult result = engine.run();
  const dpm::DesignProcessManager& mgr = engine.manager();
  const dpm::DesignHistory& h = mgr.designHistory();

  std::printf("Run: %s, seed %llu — %s in %zu operations\n\n",
              options.adpm ? "ADPM" : "conventional",
              static_cast<unsigned long long>(options.seed),
              result.completed ? "completed" : "DID NOT COMPLETE",
              result.operations);

  // Per-designer effort.
  util::TextTable effort;
  effort.header({"Designer", "Operations", "First op", "Last op"});
  for (const std::string& designer : mgr.designers()) {
    const auto stages = h.stagesBy(designer);
    effort.row({designer, std::to_string(stages.size()),
                stages.empty() ? "-" : std::to_string(stages.front()),
                stages.empty() ? "-" : std::to_string(stages.back())});
  }
  std::printf("Per-designer effort:\n%s\n", effort.render().c_str());

  // Property churn: the most reassigned properties.
  util::TextTable churn;
  churn.header({"Property", "Assignments", "Stages", "Final value"});
  struct Row {
    std::string name;
    std::size_t count;
    std::string stages;
    std::string finalValue;
  };
  std::vector<Row> rows;
  for (const auto pid : mgr.network().propertyIds()) {
    const std::size_t count = h.assignmentCount(pid);
    if (count == 0) continue;
    const auto stages = h.assignmentStages(pid);
    std::string stageText;
    for (std::size_t i = 0; i < stages.size() && i < 6; ++i) {
      if (i) stageText += ",";
      stageText += std::to_string(stages[i]);
    }
    if (stages.size() > 6) stageText += ",...";
    const auto final = h.valueAt(pid, h.stages());
    rows.push_back({mgr.network().property(pid).name, count, stageText,
                    final ? util::formatNumber(*final) : "-"});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.count > b.count; });
  for (const Row& r : rows) {
    churn.row({r.name, std::to_string(r.count), r.stages, r.finalValue});
  }
  std::printf("Property churn (most reassigned first):\n%s\n",
              churn.render().c_str());

  // Violation lifetimes.
  util::TextTable viols;
  viols.header({"Constraint", "First violated at op", "Cross-subsystem"});
  for (const auto cid : mgr.network().constraintIds()) {
    const auto first = h.firstViolation(cid);
    if (!first) continue;
    viols.row({mgr.network().constraint(cid).name(), std::to_string(*first),
               mgr.crossSubsystem(cid) ? "yes" : ""});
  }
  std::printf("Violations:\n%s\n", viols.render().c_str());

  // Spins.
  const auto spins = h.spinStages();
  std::printf("Design spins (%zu): ", spins.size());
  for (std::size_t i = 0; i < spins.size(); ++i) {
    std::printf("%s%zu", i ? ", " : "", spins[i]);
  }
  std::printf("\n");
  return result.completed ? 0 : 1;
}
