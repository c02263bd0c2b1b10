// Fig. 10: variation of design operations with specification tightness.
//
// "To examine ADPM's robustness with respect to problem hardness, we swept
// the tightness of top-level requirements.  Fig. 10 shows the variation in
// the number of executed operations with the tightness of the gain
// requirement in the receiver problem.  This variation appears to be larger
// when using the conventional approach, which suggests that the new ADPM
// approach is more robust."
#include <cstdio>
#include <fstream>
#include <vector>

#include "gen/registry.hpp"
#include "teamsim/experiment.hpp"
#include "teamsim/export.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace adpm;

namespace {
constexpr std::size_t kSeeds = 20;
const double kGainSweep[] = {21.0, 23.0, 25.0, 27.0, 29.0, 31.0};
}  // namespace

int main() {
  std::printf("# Fig. 10: operations vs tightness of the gain requirement\n");
  std::printf("# receiver case, %zu seeds per point\n\n", kSeeds);

  util::TextTable t;
  t.header({"Gain-min (dB)", "Conv ops", "Conv stddev", "ADPM ops",
            "ADPM stddev", "Completed (conv/adpm)"});

  std::vector<double> convMeans;
  std::vector<double> adpmMeans;
  std::vector<teamsim::SweepPoint> points;
  dpm::ScenarioSpec spec = gen::scenarioByName("receiver");
  const std::size_t gainMin = spec.propertyIndex("Gain-min").value();
  for (const double gain : kGainSweep) {
    for (dpm::ScenarioSpec::Requirement& r : spec.requirements) {
      if (r.property == gainMin) r.value = gain;
    }
    const teamsim::SimulationOptions base;
    const teamsim::Comparison cmp =
        teamsim::compareApproaches(spec, base, kSeeds);
    convMeans.push_back(cmp.conventional.operations.mean());
    adpmMeans.push_back(cmp.adpm.operations.mean());
    points.push_back({gain, cmp.conventional, cmp.adpm});
    t.row({util::formatNumber(gain, 3),
           util::formatNumber(cmp.conventional.operations.mean(), 4),
           util::formatNumber(cmp.conventional.operations.stddev(), 4),
           util::formatNumber(cmp.adpm.operations.mean(), 4),
           util::formatNumber(cmp.adpm.operations.stddev(), 4),
           std::to_string(cmp.conventional.completed) + "/" +
               std::to_string(cmp.adpm.completed)});
  }
  std::printf("%s\n", t.render().c_str());

  // "Variation appears to be larger when using the conventional approach":
  // compare the spread of the per-tightness means across the sweep.
  const double convSpread = util::stddev(convMeans);
  const double adpmSpread = util::stddev(adpmMeans);
  const double convRange =
      *std::max_element(convMeans.begin(), convMeans.end()) -
      *std::min_element(convMeans.begin(), convMeans.end());
  const double adpmRange =
      *std::max_element(adpmMeans.begin(), adpmMeans.end()) -
      *std::min_element(adpmMeans.begin(), adpmMeans.end());

  std::printf("variation across the sweep (stddev of means): conventional "
              "%.1f, ADPM %.1f\n", convSpread, adpmSpread);
  std::printf("variation across the sweep (range of means):  conventional "
              "%.1f, ADPM %.1f\n", convRange, adpmRange);
  const bool robust = adpmSpread < convSpread && adpmRange < convRange;
  {
    std::ofstream csv("fig10_tightness.csv");
    teamsim::writeSweepCsv(csv, "gain_min_db", points);
    std::ofstream plot("fig10_tightness.gnuplot");
    plot << teamsim::gnuplotSweepScript("fig10_tightness.csv",
                                        "minimum gain requirement (dB)");
  }
  std::printf("shape-check: adpm-more-robust=%s\n", robust ? "yes" : "NO");
  std::printf("wrote fig10_tightness.csv and fig10_tightness.gnuplot\n");
  return robust ? 0 : 1;
}
