// Ablation: which of ADPM's §2.3 heuristics carries the Fig. 9 improvement?
//
// The paper's conclusions attribute the speed-up to constraint-based
// heuristic support as a whole; DESIGN.md calls out per-heuristic ablation
// as a design question.  Each row disables exactly one ingredient of the
// ADPM designer and re-runs the receiver and sensing sweeps:
//   * subspace ordering   (§2.3.1: smallest feasible subspace first)
//   * feasible values     (§2.3.1/f_v: bind inside v_F)
//   * alpha repair        (§2.3.3/f_a: most-connected-violations first)
//   * direction voting    (f_a/f_v: monotone direction votes)
// plus a repair-delta sweep (the paper: "delta values around 100 times
// smaller than the size of E_i worked well").
#include <cstdio>
#include <functional>

#include "gen/registry.hpp"
#include "teamsim/experiment.hpp"
#include "util/table.hpp"

using namespace adpm;

namespace {
constexpr std::size_t kSeeds = 20;

teamsim::CellStats sweep(const dpm::ScenarioSpec& spec,
                         const teamsim::SimulationOptions& options) {
  return teamsim::runSeedSweep(spec, options, kSeeds);
}

void report(util::TextTable& t, const char* label,
            const teamsim::CellStats& sensing,
            const teamsim::CellStats& receiver) {
  t.row({label,
         util::formatNumber(sensing.operations.mean(), 4),
         std::to_string(sensing.completed) + "/" + std::to_string(sensing.runs),
         util::formatNumber(receiver.operations.mean(), 4),
         std::to_string(receiver.completed) + "/" +
             std::to_string(receiver.runs)});
}

}  // namespace

int main() {
  const dpm::ScenarioSpec sensing = gen::scenarioByName("sensing");
  const dpm::ScenarioSpec receiver = gen::scenarioByName("receiver");

  util::TextTable t;
  t.header({"Configuration", "Sensing ops", "done", "Receiver ops", "done"});

  struct Variant {
    const char* label;
    std::function<void(teamsim::SimulationOptions&)> tweak;
  };
  const Variant variants[] = {
      {"ADPM (all heuristics)", [](teamsim::SimulationOptions&) {}},
      {"  - subspace ordering",
       [](teamsim::SimulationOptions& o) { o.useSubspaceOrdering = false; }},
      {"  - feasible values",
       [](teamsim::SimulationOptions& o) { o.useFeasibleValues = false; }},
      {"  - alpha repair",
       [](teamsim::SimulationOptions& o) { o.useAlphaRepair = false; }},
      {"  - direction voting",
       [](teamsim::SimulationOptions& o) { o.useDirectionVoting = false; }},
      {"Conventional (no ADPM)",
       [](teamsim::SimulationOptions& o) { o.adpm = false; }},
      {"Conventional, no boundary solve",
       [](teamsim::SimulationOptions& o) {
         o.adpm = false;
         o.useBoundarySolve = false;
         o.maxOperations = 40000;  // pure delta stepping crawls
       }},
  };

  for (const Variant& v : variants) {
    teamsim::SimulationOptions options;
    options.adpm = true;
    v.tweak(options);
    const auto s = sweep(sensing, options);
    const auto r = sweep(receiver, options);
    report(t, v.label, s, r);
  }
  std::printf("# ADPM heuristic ablation (%zu seeds per cell)\n\n%s\n",
              kSeeds, t.render().c_str());

  // Repair-delta sweep (paper §3.1.1 footnote).
  util::TextTable d;
  d.header({"deltaDivisor (|E|/delta)", "Sensing ops", "Receiver ops"});
  for (const double divisor : {25.0, 50.0, 100.0, 200.0, 400.0}) {
    teamsim::SimulationOptions options;
    options.adpm = true;
    options.deltaDivisor = divisor;
    const auto s = sweep(sensing, options);
    const auto r = sweep(receiver, options);
    d.row({util::formatNumber(divisor, 4),
           util::formatNumber(s.operations.mean(), 4),
           util::formatNumber(r.operations.mean(), 4)});
  }
  std::printf("# Repair delta sweep (ADPM)\n\n%s", d.render().c_str());
  return 0;
}
