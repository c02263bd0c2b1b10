#include "gen/registry.hpp"
#include "teamsim/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

#include "teamsim/statwindow.hpp"

namespace adpm::teamsim {
namespace {

TEST(Experiment, SeedSweepAggregates) {
  SimulationOptions base;
  base.adpm = true;
  const CellStats cell = runSeedSweep(gen::scenarioByName("walkthrough"), base,
                                      8, 1, "walkthrough/ADPM");
  EXPECT_EQ(cell.runs, 8u);
  EXPECT_EQ(cell.completed, 8u);
  EXPECT_DOUBLE_EQ(cell.completionRate(), 1.0);
  EXPECT_GT(cell.operations.mean(), 0.0);
  EXPECT_GT(cell.evaluations.mean(), 0.0);
  EXPECT_EQ(cell.operations.count(), 8u);
  EXPECT_EQ(cell.label, "walkthrough/ADPM");
}

TEST(Experiment, ComparisonShapesMatchThePaper) {
  // A reduced version of the Fig. 9 protocol on the sensing case: the full
  // 60-seed sweep lives in bench/, this sanity-checks the directional claims
  // with a smaller sample.
  SimulationOptions base;
  const Comparison cmp =
      compareApproaches(gen::scenarioByName("sensing"), base, 10);

  EXPECT_EQ(cmp.adpm.completed, cmp.adpm.runs);
  EXPECT_EQ(cmp.conventional.completed, cmp.conventional.runs);

  // Conventional needs more designer operations...
  EXPECT_GT(cmp.operationRatio(), 1.3);
  // ...while ADPM consumes more constraint evaluations (tool runs).
  EXPECT_GT(cmp.evaluationRatio(), 1.5);
  // ADPM spins are a small fraction of conventional's.
  EXPECT_LT(cmp.spinRatio(), 0.7);
}

void expectSameCell(const CellStats& parallel, const CellStats& serial) {
  EXPECT_EQ(parallel.runs, serial.runs);
  EXPECT_EQ(parallel.completed, serial.completed);
  EXPECT_EQ(parallel.operations.count(), serial.operations.count());
  // Welford merges associate differently across shards, so aggregates match
  // to floating-point association, not bit-exactly.
  EXPECT_NEAR(parallel.operations.mean(), serial.operations.mean(), 1e-9);
  EXPECT_NEAR(parallel.operations.stddev(), serial.operations.stddev(), 1e-9);
  EXPECT_NEAR(parallel.evaluations.mean(), serial.evaluations.mean(), 1e-9);
  EXPECT_NEAR(parallel.evaluations.stddev(), serial.evaluations.stddev(),
              1e-9);
  EXPECT_NEAR(parallel.evaluationsPerOperation.mean(),
              serial.evaluationsPerOperation.mean(), 1e-9);
  EXPECT_NEAR(parallel.spins.mean(), serial.spins.mean(), 1e-9);
  EXPECT_NEAR(parallel.spins.stddev(), serial.spins.stddev(), 1e-9);
  EXPECT_NEAR(parallel.violationsFound.mean(), serial.violationsFound.mean(),
              1e-9);
}

TEST(Experiment, ParallelSweepMatchesSerialOnReceiver) {
  // Per-run seeds are identical under the static shard partition, so the
  // merged parallel aggregates must equal the serial sweep's on the paper's
  // main (receiver) case — for both flows, since the parallel driver is how
  // the large sweeps run.
  SimulationOptions base;
  base.adpm = true;
  const auto spec = gen::scenarioByName("receiver");
  expectSameCell(runSeedSweepParallel(spec, base, 6, 1, "p", 3),
                 runSeedSweep(spec, base, 6, 1, "s"));

  base.adpm = false;  // conventional has real run-to-run variance
  expectSameCell(runSeedSweepParallel(spec, base, 6, 1, "p", 3),
                 runSeedSweep(spec, base, 6, 1, "s"));

  // Degenerate thread counts collapse to the serial path unchanged.
  base.adpm = true;
  expectSameCell(runSeedSweepParallel(spec, base, 1, 1, "p", 8),
                 runSeedSweep(spec, base, 1, 1, "s"));
}

TEST(Experiment, ParallelSweepAutoThreadCountMatchesSerial) {
  // threads=0 means "use hardware_concurrency()" — which the standard
  // allows to report 0 ("not computable", e.g. restrictive cgroups).  The
  // sweep must clamp that to one worker and still produce the serial
  // result, never divide by zero or spawn nothing.
  SimulationOptions base;
  base.adpm = true;
  const auto spec = gen::scenarioByName("walkthrough");
  expectSameCell(runSeedSweepParallel(spec, base, 4, 1, "auto", 0),
                 runSeedSweep(spec, base, 4, 1, "serial"));
}

TEST(Comparison, RatioGuards) {
  Comparison cmp;
  // Empty cells: every ratio degrades gracefully.
  EXPECT_EQ(cmp.operationRatio(), 0.0);
  EXPECT_EQ(cmp.evaluationRatio(), 0.0);
  EXPECT_EQ(cmp.spinRatio(), 0.0);
  EXPECT_EQ(cmp.variabilityRatio(), 1.0);  // 0/0 variability: neutral

  // Perfectly repeatable ADPM vs varying conventional: infinite ratio.
  cmp.adpm.operations.add(10);
  cmp.adpm.operations.add(10);
  cmp.conventional.operations.add(10);
  cmp.conventional.operations.add(30);
  EXPECT_TRUE(std::isinf(cmp.variabilityRatio()));
  EXPECT_NEAR(cmp.operationRatio(), 2.0, 1e-12);
}

TEST(StatWindow, RendersPanel) {
  SimulationOptions base;
  base.adpm = true;
  base.seed = 5;
  SimulationEngine engine(gen::scenarioByName("walkthrough"), base);
  engine.run();
  const std::string panel = renderStatisticsWindow(engine);
  EXPECT_NE(panel.find("Design Process Statistics"), std::string::npos);
  EXPECT_NE(panel.find("Executed operations"), std::string::npos);
  EXPECT_NE(panel.find("Cumulative design spins"), std::string::npos);
  EXPECT_NE(panel.find("ADPM"), std::string::npos);
  EXPECT_NE(panel.find("Design complete"), std::string::npos);
}

TEST(StatWindow, HistoryStripHandlesMetrics) {
  SimulationOptions base;
  base.adpm = false;
  SimulationEngine engine(gen::scenarioByName("walkthrough"), base);
  engine.run();
  for (const char* metric :
       {"violationsFound", "violationsKnown", "evaluations", "spins"}) {
    const std::string strip = renderHistoryStrip(engine.trace(), metric);
    EXPECT_NE(strip.find(metric), std::string::npos);
  }
  EXPECT_THROW(renderHistoryStrip(engine.trace(), "bogus"),
               adpm::InvalidArgumentError);
  EXPECT_EQ(renderHistoryStrip({}, "spins"), "(no operations)\n");
}

}  // namespace
}  // namespace adpm::teamsim
