// The paper's Section 2.4 walkthrough, scripted end to end, printing the
// Minerva III browser views of Figs. 2, 3 and 4 from live state.
//
// Cast: a team leader, a device engineer (MEMS filter) and an analog circuit
// designer (LNA + mixer).  Story beats:
//   1. the device engineer adjusts the beam length to ~13 um to hit the
//      channel frequency and completes an initial filter,
//   2. the circuit designer inspects the object browser (Fig. 2): the load
//      inductor has the smallest feasible window, so it is designed first,
//   3. the constraint & property browser (Fig. 3) shows Diff-pair-W in 3
//      constraints (beta = 3); the designer sizes it to the smallest
//      potentially feasible value, 2.5 um, to save power,
//   4. the total-gain requirement is violated; the team leader then tightens
//      the input impedance requirement to 40 Ohm, adding a second violation
//      (Fig. 4: Diff-pair-W has 2 connected violations, alpha = 2),
//   5. widening the differential pair to 3.5 um fixes both violations in a
//      single operation.
#include <cstdio>

#include "dpm/browser.hpp"
#include "dpm/scenario.hpp"
#include "gen/registry.hpp"

using namespace adpm;

namespace {

void banner(const char* text) {
  std::printf("\n==== %s ====\n", text);
}

dpm::Operation synthesis(dpm::ProblemId problem, const char* designer,
                         std::size_t property, double value) {
  dpm::Operation op;
  op.kind = dpm::OperatorKind::Synthesis;
  op.problem = problem;
  op.designer = designer;
  op.assignments.emplace_back(
      constraint::PropertyId{static_cast<std::uint32_t>(property)}, value);
  return op;
}

void reportViolations(const dpm::DesignProcessManager& mgr) {
  const auto violations = mgr.knownViolations();
  if (violations.empty()) {
    std::printf("  (no violations)\n");
    return;
  }
  for (const auto cid : violations) {
    std::printf("  VIOLATED: %s  [%s]\n",
                mgr.network().constraint(cid).name().c_str(),
                mgr.network().constraint(cid).str().c_str());
  }
}

}  // namespace

int main() {
  const dpm::ScenarioSpec spec = gen::scenarioByName("walkthrough");
  const auto prop = [&](const char* name) {
    return spec.propertyIndex(name).value();
  };
  const auto problem = [&](const char* name) {
    return dpm::ProblemId{
        static_cast<std::uint32_t>(spec.problemIndex(name).value())};
  };
  const std::size_t maxZin = prop("Max-Zin");
  const std::size_t diffPairW = prop("Diff-pair-W");
  const std::size_t freqInd = prop("Freq-ind");
  const std::size_t lnaGain = prop("LNA-gain");
  const std::size_t lnaPower = prop("LNA-power");
  const std::size_t lnaZin = prop("LNA-Zin");
  const std::size_t beamLength = prop("Beam-length");
  const std::size_t centerFreq = prop("Center-freq");
  const std::size_t insertionLoss = prop("Insertion-loss");
  const dpm::ProblemId topProblem = problem("Transceiver");
  const dpm::ProblemId lnaProblem = problem("LNA+Mixer-design");
  const dpm::ProblemId filterProblem = problem("Filter-design");

  dpm::DesignProcessManager mgr(dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(spec, mgr);
  mgr.bootstrap();

  banner("1. Device engineer sets the resonator beam length to 13 um");
  mgr.execute(synthesis(filterProblem, "device-engineer", beamLength, 13.0));
  mgr.execute(synthesis(filterProblem, "device-engineer", centerFreq,
                        20600.0 / (13.0 * 13.0)));
  mgr.execute(synthesis(filterProblem, "device-engineer", insertionLoss,
                        248.6 / 13.0));
  reportViolations(mgr);

  banner("2. Object browser: subspaces not found infeasible (Fig. 2)");
  std::printf("%s", dpm::renderObjectBrowser(mgr, "LNA+Mixer").c_str());

  banner("3. Constraint & property browser (Fig. 3)");
  std::printf("%s", dpm::renderConstraintBrowser(mgr, "circuit-designer").c_str());

  banner("4. Circuit designer picks the inductor (0.2 uH), then sizes the "
         "pair at 2.5 um");
  mgr.execute(synthesis(lnaProblem, "circuit-designer", freqInd, 0.2));
  mgr.execute(synthesis(lnaProblem, "circuit-designer", diffPairW, 2.5));
  mgr.execute(synthesis(lnaProblem, "circuit-designer", lnaGain,
                        104.0 * 2.5 * 0.2));
  mgr.execute(synthesis(lnaProblem, "circuit-designer", lnaPower,
                        54.08 * 2.5));
  mgr.execute(synthesis(lnaProblem, "circuit-designer", lnaZin,
                        125.0 / 2.5));
  std::printf("The chosen values lead to a violation of the global gain "
              "requirement:\n");
  reportViolations(mgr);

  banner("5. Team leader tightens the input impedance requirement to 40 Ohm");
  mgr.execute(synthesis(topProblem, "team-leader", maxZin, 40.0));
  reportViolations(mgr);

  banner("6. Conflict-resolution view (Fig. 4): alpha(Diff-pair-W) = 2");
  std::printf("%s", dpm::renderConstraintBrowser(mgr, "circuit-designer").c_str());

  banner("7. Widening the differential pair to 3.5 um fixes both violations");
  dpm::Operation repair =
      synthesis(lnaProblem, "circuit-designer", diffPairW, 3.5);
  repair.triggeredBy = *mgr.network().findConstraint("TotalGain-C13");
  mgr.execute(repair);
  // The derived LNA figures follow their models (tool re-runs).
  mgr.execute(synthesis(lnaProblem, "circuit-designer", lnaGain,
                        104.0 * 3.5 * 0.2));
  mgr.execute(synthesis(lnaProblem, "circuit-designer", lnaPower,
                        54.08 * 3.5));
  mgr.execute(synthesis(lnaProblem, "circuit-designer", lnaZin,
                        125.0 / 3.5));
  reportViolations(mgr);
  std::printf("Both violations have been fixed with a single sizing "
              "iteration, as in the paper's Section 2.4.3.\n");

  banner("Final state");
  std::printf("%s", dpm::renderObjectBrowser(mgr, "LNA+Mixer").c_str());
  std::printf("design complete: %s\n", mgr.designComplete() ? "yes" : "no");
  return 0;
}
