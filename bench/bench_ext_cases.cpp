// Extension: the Fig. 9 protocol across *all* design cases, including the
// two beyond the paper (the 4-designer receiver and the accelerometer) —
// the paper's future work asks to "evaluate other types of problems".
//
// The interesting read is whether the paper's headline shape (conventional
// needs ≥2x the designer operations; ADPM trades them for tool runs; spins
// nearly vanish) generalises beyond the two cases it was demonstrated on.
#include <cstdio>

#include "gen/registry.hpp"
#include "teamsim/experiment.hpp"
#include "util/table.hpp"

using namespace adpm;

namespace {
constexpr std::size_t kSeeds = 30;
}

int main() {
  struct Case {
    const char* label;
    dpm::ScenarioSpec spec;
  };
  const Case cases[] = {
      {"sensing (paper case 1)", gen::scenarioByName("sensing")},
      {"receiver (paper case 2)", gen::scenarioByName("receiver")},
      {"receiver, 4 designers (ext)", gen::scenarioByName("receiver4")},
      {"accelerometer (ext)", gen::scenarioByName("accelerometer")},
  };

  std::printf("# Fig. 9 protocol across all cases (%zu seeds/cell)\n\n",
              kSeeds);
  util::TextTable t;
  t.header({"Case", "Conv ops", "ADPM ops", "Ops ratio", "Evals ratio",
            "Spin ratio", "Completed"});
  bool allShapesHold = true;
  for (const Case& c : cases) {
    const teamsim::Comparison cmp =
        teamsim::compareApproaches(c.spec, teamsim::SimulationOptions{},
                                   kSeeds);
    t.row({c.label,
           util::formatNumber(cmp.conventional.operations.mean(), 4),
           util::formatNumber(cmp.adpm.operations.mean(), 4),
           util::formatNumber(cmp.operationRatio(), 3),
           util::formatNumber(cmp.evaluationRatio(), 3),
           util::formatNumber(cmp.spinRatio(), 3),
           std::to_string(cmp.conventional.completed) + "+" +
               std::to_string(cmp.adpm.completed) + "/" +
               std::to_string(2 * kSeeds)});
    allShapesHold = allShapesHold && cmp.operationRatio() >= 2.0 &&
                    cmp.evaluationRatio() > 1.0 && cmp.spinRatio() < 0.5 &&
                    cmp.conventional.completed == cmp.conventional.runs &&
                    cmp.adpm.completed >= cmp.adpm.runs - 1;
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("shape-check: paper-shape-generalises=%s\n",
              allShapesHold ? "yes" : "NO");
  return allShapesHold ? 0 : 1;
}
