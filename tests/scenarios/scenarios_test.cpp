#include <gtest/gtest.h>

#include "constraint/propagate.hpp"
#include "dddl/parser.hpp"
#include "dddl/writer.hpp"
#include "dpm/scenario.hpp"
#include "gen/registry.hpp"

namespace adpm {
namespace {

using gen::scenarioByName;

TEST(SensingScenario, MatchesPaperScale) {
  const dpm::ScenarioSpec s = scenarioByName("sensing");
  EXPECT_TRUE(s.validate().empty());
  // "up to 26 properties and 21 constraints"
  EXPECT_EQ(s.properties.size(), 26u);
  EXPECT_EQ(s.constraints.size(), 21u);
  EXPECT_EQ(s.problems.size(), 3u);
  EXPECT_EQ(s.requirements.size(), 4u);
}

TEST(ReceiverScenario, MatchesPaperScale) {
  const dpm::ScenarioSpec s = scenarioByName("receiver");
  EXPECT_TRUE(s.validate().empty());
  // "up to 35 properties and 30 constraints"
  EXPECT_EQ(s.properties.size(), 35u);
  EXPECT_EQ(s.constraints.size(), 30u);
  EXPECT_EQ(s.problems.size(), 3u);
  EXPECT_EQ(s.requirements.size(), 7u);
}

TEST(ReceiverScenario, MostConstraintsNonlinear) {
  // The paper calls the receiver case "harder": most constraints nonlinear.
  const dpm::ScenarioSpec s = scenarioByName("receiver");
  std::size_t nonlinear = 0;
  for (const auto& c : s.constraints) {
    // A constraint is nonlinear if its residual mentions mul/div/sqrt/
    // sqr/log/abs of variables.
    std::function<bool(const expr::Expr&)> hasNonlinearity =
        [&](const expr::Expr& e) -> bool {
      const expr::Node& n = e.node();
      switch (n.kind) {
        case expr::OpKind::Div:
        case expr::OpKind::Sqrt:
        case expr::OpKind::Sqr:
        case expr::OpKind::Pow:
        case expr::OpKind::Exp:
        case expr::OpKind::Log:
        case expr::OpKind::Abs:
          return !expr::variablesOf(e).empty();
        case expr::OpKind::Mul: {
          // Variable * variable is nonlinear; constant * variable is not.
          const bool leftVar = !expr::variablesOf(n.children[0]).empty();
          const bool rightVar = !expr::variablesOf(n.children[1]).empty();
          if (leftVar && rightVar) return true;
          break;
        }
        default:
          break;
      }
      for (const auto& ch : n.children) {
        if (hasNonlinearity(ch)) return true;
      }
      return false;
    };
    if (hasNonlinearity(c.lhs - c.rhs)) ++nonlinear;
  }
  EXPECT_GT(nonlinear * 2, s.constraints.size());  // more than half
}

class ScenarioFeasibility
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioFeasibility, InitialRequirementsAdmitSolutions) {
  const dpm::ScenarioSpec spec = scenarioByName(GetParam());
  dpm::DesignProcessManager mgr(
      dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(spec, mgr);

  constraint::Propagator prop;
  const auto r = prop.run(mgr.network());
  EXPECT_FALSE(r.anyViolation())
      << "scenario '" << spec.name << "' is infeasible out of the box";
  // Every unbound property keeps a non-empty feasible subspace.
  for (std::uint32_t i = 0; i < mgr.network().propertyCount(); ++i) {
    EXPECT_FALSE(r.feasible[i].empty())
        << spec.name << ": empty feasible subspace for "
        << mgr.network().property(constraint::PropertyId{i}).name;
  }
}

TEST_P(ScenarioFeasibility, RoundTripsThroughDddl) {
  const dpm::ScenarioSpec spec = scenarioByName(GetParam());
  const std::string text = dddl::write(spec);
  const dpm::ScenarioSpec reparsed = dddl::parse(text);
  EXPECT_EQ(reparsed.properties.size(), spec.properties.size());
  EXPECT_EQ(reparsed.constraints.size(), spec.constraints.size());
  EXPECT_EQ(reparsed.problems.size(), spec.problems.size());
  EXPECT_EQ(reparsed.requirements.size(), spec.requirements.size());
  for (std::size_t i = 0; i < spec.constraints.size(); ++i) {
    EXPECT_TRUE(reparsed.constraints[i].lhs.sameAs(spec.constraints[i].lhs))
        << spec.constraints[i].name;
    EXPECT_EQ(reparsed.constraints[i].rel, spec.constraints[i].rel)
        << spec.constraints[i].name;
    EXPECT_TRUE(reparsed.constraints[i].rhs.sameAs(spec.constraints[i].rhs))
        << spec.constraints[i].name;
    EXPECT_EQ(reparsed.constraints[i].monotone, spec.constraints[i].monotone);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, ScenarioFeasibility,
                         ::testing::Values("sensing", "receiver", "receiver4",
                                           "accelerometer", "walkthrough"));

TEST(AccelerometerScenario, Scale) {
  const dpm::ScenarioSpec s = scenarioByName("accelerometer");
  EXPECT_TRUE(s.validate().empty());
  EXPECT_EQ(s.properties.size(), 20u);
  EXPECT_EQ(s.constraints.size(), 14u);
  EXPECT_EQ(s.problems.size(), 3u);
  EXPECT_EQ(s.requirements.size(), 5u);
}

TEST(WalkthroughScenario, StoryBeatsReproduce) {
  const dpm::ScenarioSpec spec = scenarioByName("walkthrough");
  dpm::DesignProcessManager mgr(
      dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(spec, mgr);

  // Beam length must sit near 13 um to hit the channel (Fc within 122±3).
  constraint::Propagator prop;
  auto r = prop.run(mgr.network());
  const auto hull = [&](const char* name) {
    return r.hulls[static_cast<std::uint32_t>(
        spec.propertyIndex(name).value())];
  };
  const auto beamHull = hull("Beam-length");
  EXPECT_NEAR(beamHull.lo(), 12.83, 0.05);
  EXPECT_NEAR(beamHull.hi(), 13.16, 0.05);

  // Fig. 2: the inductor's feasible window is relatively the smallest.
  const auto wHull = hull("Diff-pair-W");
  EXPECT_NEAR(wHull.lo(), 2.5, 0.01);
  EXPECT_NEAR(wHull.hi(), 3.698, 0.01);
  const auto lHull = hull("Freq-ind");
  EXPECT_NEAR(lHull.hi(), 0.5, 1e-5);
  EXPECT_GT(lHull.lo(), 0.15);
  EXPECT_LT(lHull.lo(), 0.21);
}

TEST(ReceiverScenario, GainTightnessShrinksFeasibility) {
  // Fig. 10's x axis: tightening the gain requirement shrinks the feasible
  // region but keeps the scenario solvable across the sweep.
  dpm::ScenarioSpec spec = scenarioByName("receiver");
  const std::size_t gainMin = spec.propertyIndex("Gain-min").value();
  for (double gain : {20.0, 24.0, 28.0, 32.0}) {
    for (dpm::ScenarioSpec::Requirement& r : spec.requirements) {
      if (r.property == gainMin) r.value = gain;
    }
    dpm::DesignProcessManager mgr(
        dpm::DesignProcessManager::Options{.adpm = true});
    dpm::instantiate(spec, mgr);
    constraint::Propagator prop;
    const auto r = prop.run(mgr.network());
    EXPECT_FALSE(r.anyViolation()) << "gainMin=" << gain;
  }
}

}  // namespace
}  // namespace adpm
