// Fig. 9(b): number of constraint evaluations, conventional vs ADPM.
//
// "The average number of evaluations required by ADPM in our simulations
// was much higher than those required by the conventional approach. ... The
// computational penalty is smaller for the wireless receiver problem. ...
// the average number of evaluations per executed operation reflects a
// larger penalty than the penalty given by the total number of
// evaluations."
#include <cstdio>
#include <fstream>

#include "gen/registry.hpp"
#include "teamsim/experiment.hpp"
#include "teamsim/export.hpp"
#include "util/table.hpp"

using namespace adpm;

namespace {
constexpr std::size_t kSeeds = 60;
}

int main() {
  const teamsim::SimulationOptions base;
  const teamsim::Comparison sensing = teamsim::compareApproaches(
      gen::scenarioByName("sensing"), base, kSeeds);
  const teamsim::Comparison receiver = teamsim::compareApproaches(
      gen::scenarioByName("receiver"), base, kSeeds);

  std::printf("# Fig. 9(b): constraint evaluations (%zu seeds/cell)\n\n",
              kSeeds);
  util::TextTable t;
  t.header({"Case", "Approach", "Total evals (mean)", "Evals/op (mean)"});
  auto row = [&](const char* name, const teamsim::CellStats& c,
                 const char* mode) {
    t.row({name, mode, util::formatNumber(c.evaluations.mean(), 5),
           util::formatNumber(c.evaluationsPerOperation.mean(), 4)});
  };
  row("sensing-system", sensing.conventional, "Conventional");
  row("sensing-system", sensing.adpm, "ADPM");
  t.rule();
  row("wireless-receiver", receiver.conventional, "Conventional");
  row("wireless-receiver", receiver.adpm, "ADPM");
  std::printf("%s\n", t.render().c_str());

  const double sTotal = sensing.evaluationRatio();
  const double rTotal = receiver.evaluationRatio();
  const double sPerOp = sensing.adpm.evaluationsPerOperation.mean() /
                        sensing.conventional.evaluationsPerOperation.mean();
  const double rPerOp = receiver.adpm.evaluationsPerOperation.mean() /
                        receiver.conventional.evaluationsPerOperation.mean();

  util::TextTable d;
  d.header({"Derived metric", "sensing", "receiver", "paper's claim"});
  d.row({"total-evals ratio (ADPM/conv)", util::formatNumber(sTotal, 3),
         util::formatNumber(rTotal, 3),
         "much higher; smaller for receiver"});
  d.row({"evals-per-op ratio (ADPM/conv)", util::formatNumber(sPerOp, 3),
         util::formatNumber(rPerOp, 3), "larger than the total ratio"});
  std::printf("%s", d.render().c_str());

  const bool muchHigher = sTotal > 1.5 && rTotal > 1.5;
  const bool receiverSmaller = rTotal < sTotal;
  const bool perOpLarger = sPerOp > sTotal && rPerOp > rTotal;
  {
    std::vector<teamsim::CellStats> cells{
        sensing.conventional, sensing.adpm, receiver.conventional,
        receiver.adpm};
    cells[0].label = "sensing/conventional";
    cells[1].label = "sensing/ADPM";
    cells[2].label = "receiver/conventional";
    cells[3].label = "receiver/ADPM";
    std::ofstream csv("fig9b_evaluations.csv");
    teamsim::writeCellsCsv(csv, cells);
  }
  std::printf("\nshape-check: adpm-much-higher=%s receiver-penalty-smaller=%s "
              "per-op-larger-than-total=%s\n",
              muchHigher ? "yes" : "NO", receiverSmaller ? "yes" : "NO",
              perOpLarger ? "yes" : "NO");
  return (muchHigher && receiverSmaller && perOpLarger) ? 0 : 1;
}
