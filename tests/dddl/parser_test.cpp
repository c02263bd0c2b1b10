#include "dddl/parser.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dddl/writer.hpp"
#include "dpm/manager.hpp"
#include "expr/eval.hpp"
#include "util/error.hpp"

namespace adpm::dddl {
namespace {

// The DDDL fragment the paper alludes to (filter-loss monotonicity) embedded
// in a complete mini scenario.
constexpr const char* kFilterScenario = R"dddl(
scenario "mems-filter" {
  object system;
  object filter parent system;

  property "Resonator-L" : filter range [8, 20] unit "um"
    levels { Device, Geometry };
  property "Beam-W" : filter range [1, 4] unit "um";
  property "Insertion-loss" : filter range [0, 30] unit "dB";
  property "Max-loss" : system range [1, 25] unit "dB";

  constraint "FilterLoss-C4" :
      "Insertion-loss" == 40 * "Beam-W" / "Resonator-L" {
    monotone decreasing in "Resonator-L";   // longer resonator -> less loss
    monotone increasing in "Beam-W";
  }
  constraint "LossSpec-C5" : "Insertion-loss" <= "Max-loss";

  problem Filter : filter owner "device-engineer" {
    outputs { "Resonator-L", "Beam-W", "Insertion-loss" }
    constraints { "FilterLoss-C4", "LossSpec-C5" }
  }

  require "Max-loss" = 12;
}
)dddl";

TEST(Parser, ParsesCompleteScenario) {
  const dpm::ScenarioSpec s = parse(kFilterScenario);
  EXPECT_EQ(s.name, "mems-filter");
  EXPECT_EQ(s.objects.size(), 2u);
  EXPECT_EQ(s.objects[1].parent, "system");
  ASSERT_EQ(s.properties.size(), 4u);
  EXPECT_EQ(s.properties[0].name, "Resonator-L");
  EXPECT_EQ(s.properties[0].unit, "um");
  EXPECT_EQ(s.properties[0].levels,
            (std::vector<std::string>{"Device", "Geometry"}));
  EXPECT_EQ(s.properties[0].initial.hull().lo(), 8.0);
  ASSERT_EQ(s.constraints.size(), 2u);
  EXPECT_EQ(s.constraints[0].rel, constraint::Relation::Eq);
  ASSERT_EQ(s.constraints[0].monotone.size(), 2u);
  EXPECT_EQ(s.constraints[0].monotone[0],
            (std::pair<std::size_t, bool>{0, false}));
  EXPECT_EQ(s.constraints[0].monotone[1],
            (std::pair<std::size_t, bool>{1, true}));
  ASSERT_EQ(s.problems.size(), 1u);
  EXPECT_EQ(s.problems[0].owner, "device-engineer");
  EXPECT_EQ(s.problems[0].outputs.size(), 3u);
  ASSERT_EQ(s.requirements.size(), 1u);
  EXPECT_EQ(s.requirements[0].value, 12.0);
}

TEST(Parser, ParsedExpressionEvaluates) {
  const dpm::ScenarioSpec s = parse(kFilterScenario);
  // Insertion-loss == 40 * Beam-W / Resonator-L: residual at (L=10, W=2,
  // loss=8, max=12) must be 8 - 40*2/10 = 0.
  const expr::Expr residual = s.constraints[0].lhs - s.constraints[0].rhs;
  const double v = expr::evalPoint(residual, {{10.0, 2.0, 8.0, 12.0}});
  EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Parser, DiscreteSetsAndExpressionsWithFunctions) {
  const dpm::ScenarioSpec s = parse(R"dddl(
scenario fns {
  object o;
  property n : o set { 1, 2, 4, 8 };
  property x : o range [0.5, 4];
  property y : o range [-10, 10];
  constraint c1 : sqrt(x) + sqr(y) <= 20;
  constraint c2 : min(x, n) >= 0.5;
  constraint c3 : abs(y) * exp(x / 4) <= 30;
  constraint c4 : log(x) + x^2 - x^-1 <= 16;
  problem p : o { outputs { n, x, y } constraints { c1, c2, c3, c4 } }
}
)dddl");
  ASSERT_TRUE(s.properties[0].initial.isDiscrete());
  EXPECT_EQ(s.properties[0].initial.count(), 4u);
  EXPECT_EQ(s.constraints.size(), 4u);
  // c4 exercises pow with negative exponent: residual at x = 2, others 0.
  const expr::Expr r4 = s.constraints[3].lhs - s.constraints[3].rhs;
  EXPECT_NEAR(expr::evalPoint(r4, {{0.0, 2.0, 0.0}}),
              std::log(2.0) + 4.0 - 0.5 - 16.0, 1e-12);
}

TEST(Parser, ProblemOrderingAndDeferred) {
  const dpm::ScenarioSpec s = parse(R"dddl(
scenario ord {
  object o;
  property x : o range [0, 1];
  property y : o range [0, 1];
  problem first : o owner d { outputs { x } constraints { } }
  problem second : o owner d parent first after first {
    outputs { y }
    constraints { }
    deferred;
  }
}
)dddl");
  ASSERT_EQ(s.problems.size(), 2u);
  EXPECT_EQ(s.problems[1].parent, std::optional<std::size_t>{0});
  EXPECT_EQ(s.problems[1].predecessors, (std::vector<std::size_t>{0}));
  EXPECT_FALSE(s.problems[1].startReady);
  EXPECT_TRUE(s.problems[0].startReady);
}

TEST(Parser, ErrorsCarryPosition) {
  try {
    parse("scenario x {\n  object o\n}");  // missing ';'
    FAIL() << "expected ParseError";
  } catch (const adpm::ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Parser, UnknownReferencesAreRejected) {
  EXPECT_THROW(parse(R"(scenario s { object o;
    property x : ghost range [0,1]; })"),
               adpm::ParseError);
  EXPECT_THROW(parse(R"(scenario s { object o;
    constraint c : y <= 1; })"),
               adpm::ParseError);
  EXPECT_THROW(parse(R"(scenario s { object o;
    property x : o range [0,1];
    problem p : o { outputs { nope } constraints { } } })"),
               adpm::ParseError);
  EXPECT_THROW(parse(R"(scenario s { object o;
    property x : o range [0,1];
    constraint c : x <= 1 { monotone increasing in ghost; } })"),
               adpm::ParseError);
}

TEST(Parser, SyntaxErrorsAreRejected) {
  EXPECT_THROW(parse("nonsense"), adpm::ParseError);
  EXPECT_THROW(parse("scenario s { unknown_decl x; }"), adpm::ParseError);
  EXPECT_THROW(parse(R"(scenario s { object o;
    property x : o range [5, 1]; })"),  // inverted range
               adpm::ParseError);
  EXPECT_THROW(parse(R"(scenario s { object o;
    property x : o range [0,1];
    constraint c : x ^ 1.5 <= 1; })"),  // fractional exponent
               adpm::ParseError);
  EXPECT_THROW(parse(R"(scenario s { object o;
    property x : o range [0,1];
    constraint c : sqrt(x, x) <= 1; })"),  // wrong arity
               adpm::ParseError);
  EXPECT_THROW(parse(R"(scenario s { object o;
    property x : o range [0,1];
    constraint c : frob(x) <= 1; })"),  // unknown function
               adpm::ParseError);
}

TEST(Parser, OperatorPrecedence) {
  const dpm::ScenarioSpec s = parse(R"dddl(
scenario prec {
  object o;
  property a : o range [0, 10];
  property b : o range [0, 10];
  property c : o range [0, 10];
  constraint k : a + b * c - -a / 2 <= 100;
  problem p : o { outputs { a, b, c } constraints { k } }
}
)dddl");
  const expr::Expr lhs = s.constraints[0].lhs;
  // a=2, b=3, c=4: 2 + 12 - (-2/2) = 15.
  EXPECT_NEAR(expr::evalPoint(lhs, {{2.0, 3.0, 4.0}}), 15.0, 1e-12);
}

TEST(Writer, RoundTripsEquivalentSpec) {
  const dpm::ScenarioSpec original = parse(kFilterScenario);
  const std::string text = write(original);
  const dpm::ScenarioSpec reparsed = parse(text);

  EXPECT_EQ(reparsed.name, original.name);
  ASSERT_EQ(reparsed.objects.size(), original.objects.size());
  ASSERT_EQ(reparsed.properties.size(), original.properties.size());
  for (std::size_t i = 0; i < original.properties.size(); ++i) {
    EXPECT_EQ(reparsed.properties[i].name, original.properties[i].name);
    EXPECT_EQ(reparsed.properties[i].initial, original.properties[i].initial);
    EXPECT_EQ(reparsed.properties[i].unit, original.properties[i].unit);
    EXPECT_EQ(reparsed.properties[i].levels, original.properties[i].levels);
  }
  ASSERT_EQ(reparsed.constraints.size(), original.constraints.size());
  for (std::size_t i = 0; i < original.constraints.size(); ++i) {
    EXPECT_TRUE(reparsed.constraints[i].lhs.sameAs(original.constraints[i].lhs))
        << reparsed.constraints[i].lhs.str() << " vs "
        << original.constraints[i].lhs.str();
    EXPECT_EQ(reparsed.constraints[i].rel, original.constraints[i].rel);
    EXPECT_EQ(reparsed.constraints[i].monotone,
              original.constraints[i].monotone);
  }
  ASSERT_EQ(reparsed.problems.size(), original.problems.size());
  EXPECT_EQ(reparsed.problems[0].outputs, original.problems[0].outputs);
  ASSERT_EQ(reparsed.requirements.size(), original.requirements.size());
  EXPECT_EQ(reparsed.requirements[0].value, original.requirements[0].value);
}

TEST(Writer, QuotesNamesThatNeedIt) {
  dpm::ScenarioSpec s;
  s.name = "q";
  s.addObject("o");
  s.addProperty("Diff-pair-W", "o", interval::Domain::continuous(0, 1));
  s.addProperty("min", "o", interval::Domain::continuous(0, 1));  // keyword
  s.addProblem({"p", "o", "", {}, {0, 1}, {}, std::nullopt, {}, true});
  const std::string text = write(s);
  EXPECT_NE(text.find("\"Diff-pair-W\""), std::string::npos);
  EXPECT_NE(text.find("\"min\""), std::string::npos);
  // Round-trip still works.
  const auto reparsed = parse(text);
  EXPECT_EQ(reparsed.properties[1].name, "min");
}

TEST(Parser, PreferClauseSetsPropertyPreference) {
  const dpm::ScenarioSpec s = parse(R"dddl(
scenario pref {
  object o;
  property p1 : o range [0, 1] prefer low;
  property p2 : o range [0, 1] unit "mW" prefer high;
  property p3 : o range [0, 1];
  problem p : o { outputs { p1, p2, p3 } constraints { } }
}
)dddl");
  EXPECT_EQ(s.properties[0].preference, -1);
  EXPECT_EQ(s.properties[1].preference, 1);
  EXPECT_EQ(s.properties[2].preference, 0);
  // Round-trips.
  const dpm::ScenarioSpec r = parse(write(s));
  EXPECT_EQ(r.properties[0].preference, -1);
  EXPECT_EQ(r.properties[1].preference, 1);
  EXPECT_EQ(r.properties[2].preference, 0);
  // Bad direction is rejected.
  EXPECT_THROW(parse(R"(scenario s { object o;
    property x : o range [0,1] prefer sideways; })"),
               adpm::ParseError);
}

TEST(Parser, GeneratesClauseMarksStagedConstraints) {
  const dpm::ScenarioSpec s = parse(R"dddl(
scenario gen {
  object sys;
  object part parent sys;
  property cap : sys range [0, 100];
  property x : part range [0, 50];
  constraint spec : x <= cap;
  constraint model : x >= 1;
  problem Top : sys owner lead { outputs { cap } constraints { spec } }
  problem Part : part owner dev parent Top {
    outputs { x }
    constraints { model }
    generates { model }
    deferred;
  }
}
)dddl");
  ASSERT_EQ(s.constraints.size(), 2u);
  EXPECT_FALSE(s.constraints[0].generatedBy.has_value());
  EXPECT_EQ(s.constraints[1].generatedBy, std::optional<std::size_t>(1));
  EXPECT_FALSE(s.problems[1].startReady);

  // Round-trips through the writer.
  const dpm::ScenarioSpec reparsed = parse(write(s));
  EXPECT_EQ(reparsed.constraints[1].generatedBy,
            std::optional<std::size_t>(1));
  EXPECT_FALSE(reparsed.problems[1].startReady);
}

TEST(Parser, GeneratesRejectsUnknownConstraint) {
  EXPECT_THROW(parse(R"dddl(
scenario gen {
  object o;
  property x : o range [0, 1];
  problem p : o { outputs { x } constraints { } generates { ghost } }
}
)dddl"),
               adpm::ParseError);
}

TEST(Parser, DuplicateRequirementIsRejected) {
  // A second requirement on one property would record two initial bindings
  // in the design history; validation refuses it and names the property.
  try {
    parse(R"dddl(
scenario dup {
  object o;
  property X : o range [0, 5];
  require X = 1;
  require X = 2;
}
)dddl");
    FAIL() << "expected ParseError";
  } catch (const adpm::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate requirement on property "
                                         "'X'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParsedScenario, InstantiatesIntoManager) {
  const dpm::ScenarioSpec s = parse(kFilterScenario);
  dpm::DesignProcessManager mgr(dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(s, mgr);
  EXPECT_EQ(mgr.network().propertyCount(), 4u);
  EXPECT_EQ(mgr.network().constraintCount(), 2u);
  // Declared monotonicity is live on the instantiated constraint.
  const auto& c =
      mgr.network().constraint(constraint::ConstraintId{0});
  EXPECT_EQ(c.declaredHelpDirection(constraint::PropertyId{0}), -1);
  EXPECT_EQ(c.declaredHelpDirection(constraint::PropertyId{1}), 1);
}

}  // namespace
}  // namespace adpm::dddl
