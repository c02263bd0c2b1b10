// Fig. 7: violations found and constraint evaluations per executed design
// operation, conventional vs ADPM, on a simplified design case.
//
// "Fig. 7 (a) shows the number of violations found upon each executed
// operation.  The solid line corresponds to a simulation run with the new
// ADPM features turned off.  The dotted curve corresponds to a run with all
// features turned on.  Observe that using ADPM a smaller number of
// violations is found, violations start later, and violations stop
// happening earlier. ... as Fig. 7 (b) shows, ADPM requires more constraint
// evaluations per executed operation ... In terms of the total number of
// constraint evaluations, though, ADPM presents a smaller penalty."
//
// Output: one CSV-like series per sub-figure plus the summary the paper
// derives from the curves.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "gen/registry.hpp"
#include "teamsim/engine.hpp"
#include "teamsim/export.hpp"

using namespace adpm;

namespace {

teamsim::SimulationResult run(bool adpm, std::uint64_t seed) {
  teamsim::SimulationOptions options;
  options.adpm = adpm;
  options.seed = seed;
  teamsim::SimulationEngine engine(gen::scenarioByName("sensing"), options);
  return engine.run();
}

struct Profile {
  std::vector<std::size_t> violations;   // per op
  std::vector<std::size_t> evaluations;  // per op
  std::size_t firstViolationOp = 0;      // 0 = none
  std::size_t lastViolationOp = 0;
  std::size_t totalViolations = 0;
  std::size_t totalEvaluations = 0;
};

Profile profileOf(const teamsim::SimulationResult& r) {
  Profile p;
  for (const auto& s : r.trace) {
    p.violations.push_back(s.violationsFound);
    p.evaluations.push_back(s.evaluations);
    p.totalViolations += s.violationsFound;
    p.totalEvaluations += s.evaluations;
    if (s.violationsFound > 0) {
      if (p.firstViolationOp == 0) p.firstViolationOp = s.opIndex;
      p.lastViolationOp = s.opIndex;
    }
  }
  return p;
}

}  // namespace

int main() {
  // The paper plots one representative seeded run per flow on "a simplified
  // design case"; we use the sensing system.  Any completing seed shows the
  // same qualitative shape; this one is representative of the medians.
  const std::uint64_t seed = 2;
  const teamsim::SimulationResult conventional = run(false, seed);
  const teamsim::SimulationResult adpm = run(true, seed);

  // Plot-ready artifacts (the paper piped these into Gnuplot).
  {
    std::ofstream csv("fig7_profile.csv");
    teamsim::writeProfileCsv(csv, conventional.trace, adpm.trace);
    std::ofstream plot("fig7_profile.gnuplot");
    plot << teamsim::gnuplotProfileScript("fig7_profile.csv");
  }
  const Profile pc = profileOf(conventional);
  const Profile pa = profileOf(adpm);

  std::printf("# Fig. 7(a): number of violations found upon each operation\n");
  std::printf("op,conventional,adpm\n");
  const std::size_t n = std::max(pc.violations.size(), pa.violations.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%zu,%zu,%zu\n", i + 1,
                i < pc.violations.size() ? pc.violations[i] : 0,
                i < pa.violations.size() ? pa.violations[i] : 0);
  }

  std::printf("\n# Fig. 7(b): constraint evaluations per executed operation\n");
  std::printf("op,conventional,adpm\n");
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%zu,%zu,%zu\n", i + 1,
                i < pc.evaluations.size() ? pc.evaluations[i] : 0,
                i < pa.evaluations.size() ? pa.evaluations[i] : 0);
  }

  std::printf("\n# Shape summary (the paper's reading of the curves)\n");
  std::printf("metric,conventional,adpm\n");
  std::printf("operations-to-complete,%zu,%zu\n", conventional.operations,
              adpm.operations);
  std::printf("violations-found-total,%zu,%zu\n", pc.totalViolations,
              pa.totalViolations);
  std::printf("first-violation-op,%zu,%zu\n", pc.firstViolationOp,
              pa.firstViolationOp);
  std::printf("last-violation-op,%zu,%zu\n", pc.lastViolationOp,
              pa.lastViolationOp);
  std::printf("evaluations-total,%zu,%zu\n", pc.totalEvaluations,
              pa.totalEvaluations);
  std::printf("evaluations-per-op,%.2f,%.2f\n",
              conventional.evaluationsPerOperation(),
              adpm.evaluationsPerOperation());

  std::printf("\n# Expected shape: ADPM finds fewer violations, stops\n");
  std::printf("# violating earlier, completes in fewer operations, and pays\n");
  std::printf("# a higher per-operation evaluation count.  (The paper also\n");
  std::printf("# reads 'violations start later' off its curves; in this\n");
  std::printf("# reproduction ADPM detects conflicts the moment they arise\n");
  std::printf("# while the conventional flow cannot see any violation before\n");
  std::printf("# its first verification run, so the absolute start order\n");
  std::printf("# inverts — see EXPERIMENTS.md.)\n");
  const bool fewerViolations = pa.totalViolations <= pc.totalViolations;
  const bool stopsEarlier = pa.lastViolationOp <= pc.lastViolationOp;
  const bool fewerOps = adpm.operations < conventional.operations;
  const bool higherPerOp = adpm.evaluationsPerOperation() >
                           conventional.evaluationsPerOperation();
  std::printf("shape-check: fewer-violations=%s stops-earlier=%s "
              "fewer-operations=%s higher-evals-per-op=%s\n",
              fewerViolations ? "yes" : "NO", stopsEarlier ? "yes" : "NO",
              fewerOps ? "yes" : "NO", higherPerOp ? "yes" : "NO");
  std::printf("wrote fig7_profile.csv and fig7_profile.gnuplot\n");
  return (fewerViolations && stopsEarlier && fewerOps && higherPerOp) ? 0 : 1;
}
