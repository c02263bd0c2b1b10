// Fig. 9(a): number of design operations required to complete each design
// case, conventional vs ADPM, plus the spin comparison from the text.
//
// "Over 60 simulations were executed varying the value of the random seed.
// As Fig. 9 (a) shows, at least twice as many operations on average were
// required to complete the designs using the conventional approach compared
// to ADPM. ... The reduction in the number of operations is more
// significant for the receiver problem. ... the average number of spins
// performed using ADPM was 7% of the number of spins performed using the
// conventional approach. ... ADPM's results were at least 3 times less
// variable."
#include <cstdio>
#include <fstream>

#include "gen/registry.hpp"
#include "teamsim/experiment.hpp"
#include "teamsim/export.hpp"
#include "util/table.hpp"

using namespace adpm;

namespace {
constexpr std::size_t kSeeds = 60;  // the paper's "over 60 simulations"
}

int main() {
  const teamsim::SimulationOptions base;
  const teamsim::Comparison sensing = teamsim::compareApproaches(
      gen::scenarioByName("sensing"), base, kSeeds);
  const teamsim::Comparison receiver = teamsim::compareApproaches(
      gen::scenarioByName("receiver"), base, kSeeds);

  std::printf("# Fig. 9(a): design operations to complete (%zu seeds/cell)\n\n",
              kSeeds);
  util::TextTable t;
  t.header({"Case", "Approach", "Ops (mean)", "Ops (stddev)", "Spins (mean)",
            "Completed"});
  auto row = [&](const char* name, const teamsim::CellStats& c,
                 const char* mode) {
    t.row({name, mode, util::formatNumber(c.operations.mean(), 4),
           util::formatNumber(c.operations.stddev(), 4),
           util::formatNumber(c.spins.mean(), 4),
           std::to_string(c.completed) + "/" + std::to_string(c.runs)});
  };
  row("sensing-system", sensing.conventional, "Conventional");
  row("sensing-system", sensing.adpm, "ADPM");
  t.rule();
  row("wireless-receiver", receiver.conventional, "Conventional");
  row("wireless-receiver", receiver.adpm, "ADPM");
  std::printf("%s\n", t.render().c_str());

  util::TextTable d;
  d.header({"Derived metric", "sensing", "receiver", "paper's claim"});
  d.row({"ops ratio (conv/ADPM)",
         util::formatNumber(sensing.operationRatio(), 3),
         util::formatNumber(receiver.operationRatio(), 3),
         ">= 2, larger for receiver"});
  d.row({"stddev ratio (conv/ADPM)",
         util::formatNumber(sensing.variabilityRatio(), 3),
         util::formatNumber(receiver.variabilityRatio(), 3),
         ">= 3 (ADPM more predictable)"});
  d.row({"spin ratio (ADPM/conv)",
         util::formatNumber(sensing.spinRatio(), 3),
         util::formatNumber(receiver.spinRatio(), 3),
         "~0.07 on average"});
  const double blendedSpin =
      (sensing.adpm.spins.mean() + receiver.adpm.spins.mean()) /
      (sensing.conventional.spins.mean() +
       receiver.conventional.spins.mean());
  d.row({"blended spin ratio", util::formatNumber(blendedSpin, 3), "",
         "~0.07"});
  std::printf("%s", d.render().c_str());

  const bool opsOk = sensing.operationRatio() >= 2.0 &&
                     receiver.operationRatio() >= 2.0;
  const bool orderOk = receiver.operationRatio() > sensing.operationRatio();
  const bool varOk = sensing.variabilityRatio() >= 3.0 &&
                     receiver.variabilityRatio() >= 3.0;
  const bool spinOk = blendedSpin < 0.2;
  {
    std::vector<teamsim::CellStats> cells{
        sensing.conventional, sensing.adpm, receiver.conventional,
        receiver.adpm};
    cells[0].label = "sensing/conventional";
    cells[1].label = "sensing/ADPM";
    cells[2].label = "receiver/conventional";
    cells[3].label = "receiver/ADPM";
    std::ofstream csv("fig9a_operations.csv");
    teamsim::writeCellsCsv(csv, cells);
  }
  std::printf("\nshape-check: ops>=2x=%s receiver-larger=%s stddev>=3x=%s "
              "spins-small=%s\n",
              opsOk ? "yes" : "NO", orderOk ? "yes" : "NO",
              varOk ? "yes" : "NO", spinOk ? "yes" : "NO");
  return (opsOk && orderOk && varOk && spinOk) ? 0 : 1;
}
