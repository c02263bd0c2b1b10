#include "gen/registry.hpp"
#include "teamsim/export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "teamsim/graphviz.hpp"
#include "util/strings.hpp"

namespace adpm::teamsim {
namespace {

SimulationEngine runEngine(bool adpm) {
  SimulationOptions options;
  options.adpm = adpm;
  options.seed = 3;
  SimulationEngine engine(gen::scenarioByName("walkthrough"), options);
  engine.run();
  return engine;
}

TEST(ExportTrace, CsvHasHeaderAndOneRowPerOperation) {
  const SimulationEngine engine = runEngine(true);
  std::ostringstream out;
  writeTraceCsv(out, engine.trace());
  const auto lines = util::split(out.str(), '\n');
  // header + N rows + trailing empty field from final newline
  EXPECT_EQ(lines.size(), engine.trace().size() + 2);
  EXPECT_TRUE(util::startsWith(lines[0], "op,designer,kind"));
  EXPECT_TRUE(util::startsWith(lines[1], "1,"));
}

TEST(ExportProfile, PadsShorterRunWithZeros) {
  const SimulationEngine conv = runEngine(false);
  const SimulationEngine adpm = runEngine(true);
  ASSERT_GT(conv.trace().size(), adpm.trace().size());

  std::ostringstream out;
  writeProfileCsv(out, conv.trace(), adpm.trace());
  const auto lines = util::split(out.str(), '\n');
  EXPECT_EQ(lines.size(), conv.trace().size() + 2);
  // A row beyond the ADPM run's end has zeros in the ADPM columns.
  const auto lateRow = util::split(lines[adpm.trace().size() + 2], ',');
  ASSERT_EQ(lateRow.size(), 5u);
  EXPECT_EQ(lateRow[2], "0");
  EXPECT_EQ(lateRow[4], "0");
}

TEST(ExportCells, WritesAggregates) {
  SimulationOptions base;
  base.adpm = true;
  const CellStats cell = runSeedSweep(gen::scenarioByName("walkthrough"), base,
                                      4, 1, "walkthrough/ADPM");
  std::ostringstream out;
  writeCellsCsv(out, {cell});
  const std::string text = out.str();
  EXPECT_NE(text.find("walkthrough/ADPM"), std::string::npos);
  EXPECT_NE(text.find("ops_mean"), std::string::npos);
  const auto lines = util::split(text, '\n');
  EXPECT_EQ(lines.size(), 3u);  // header + row + trailing
}

TEST(ExportSweep, WritesSweepPoints) {
  SweepPoint p;
  p.x = 24.0;
  p.conventional.operations.add(100);
  p.conventional.operations.add(140);
  p.adpm.operations.add(30);
  p.adpm.operations.add(32);
  std::ostringstream out;
  writeSweepCsv(out, "gain_min_db", {p});
  const std::string text = out.str();
  EXPECT_NE(text.find("gain_min_db"), std::string::npos);
  EXPECT_NE(text.find("120"), std::string::npos);  // conventional mean
  EXPECT_NE(text.find("31"), std::string::npos);   // adpm mean
}

TEST(ExportGnuplot, ScriptsReferenceDataFiles) {
  const std::string profile = gnuplotProfileScript("fig7.csv");
  EXPECT_NE(profile.find("fig7.csv"), std::string::npos);
  EXPECT_NE(profile.find("multiplot"), std::string::npos);
  EXPECT_NE(profile.find("Fig. 7(a)"), std::string::npos);

  const std::string sweep = gnuplotSweepScript("fig10.csv", "gain (dB)");
  EXPECT_NE(sweep.find("fig10.csv"), std::string::npos);
  EXPECT_NE(sweep.find("gain (dB)"), std::string::npos);
  EXPECT_NE(sweep.find("yerrorlines"), std::string::npos);
}

TEST(Graphviz, ExportsNetworkWithStatusesAndClusters) {
  SimulationOptions options;
  options.adpm = true;
  options.seed = 3;
  SimulationEngine engine(gen::scenarioByName("walkthrough"), options);
  engine.run();
  const std::string dot = toGraphviz(engine.manager());
  EXPECT_NE(dot.find("graph constraint_network {"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_"), std::string::npos);
  EXPECT_NE(dot.find("label=\"LNA+Mixer\""), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find(" -- "), std::string::npos);
  // Everything ended satisfied: at least one green node, no red.
  EXPECT_NE(dot.find("palegreen"), std::string::npos);
  EXPECT_EQ(dot.find("salmon"), std::string::npos);
}

TEST(ParallelSweep, MatchesSerialAggregates) {
  SimulationOptions base;
  base.adpm = false;  // conventional has real variance to compare
  const CellStats serial =
      runSeedSweep(gen::scenarioByName("walkthrough"), base, 12, 1, "s");
  const CellStats parallel = runSeedSweepParallel(
      gen::scenarioByName("walkthrough"), base, 12, 1, "p", 4);
  EXPECT_EQ(parallel.runs, serial.runs);
  EXPECT_EQ(parallel.completed, serial.completed);
  EXPECT_NEAR(parallel.operations.mean(), serial.operations.mean(), 1e-9);
  EXPECT_NEAR(parallel.operations.stddev(), serial.operations.stddev(), 1e-9);
  EXPECT_NEAR(parallel.evaluations.mean(), serial.evaluations.mean(), 1e-9);
  EXPECT_NEAR(parallel.spins.mean(), serial.spins.mean(), 1e-9);
}

}  // namespace
}  // namespace adpm::teamsim
