#include "expr/compiled.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "constraint/constraint.hpp"
#include "dpm/manager.hpp"
#include "dpm/scenario.hpp"
#include "expr/eval.hpp"
#include "gen/registry.hpp"
#include "oracle/expr.hpp"
#include "util/rng.hpp"

namespace adpm::expr {
namespace {

using interval::Interval;
using oracle::evalInterval;

TEST(CompiledExpr, EvaluateMatchesEvalInterval) {
  const Expr x = Expr::variable(0);
  const Expr y = Expr::variable(1);
  const Expr e = sqr(x) + 2.0 * y - 1.0;
  CompiledExpr ce(e);
  std::vector<Interval> box{Interval(1, 2), Interval(0, 3)};
  EXPECT_EQ(ce.evaluate(box), evalInterval(e, box));
  EXPECT_EQ(ce.variables(), (std::vector<VarId>{0, 1}));
  EXPECT_EQ(ce.variableSpan(), 2u);
}

TEST(CompiledExpr, ReviseNarrowsLinearConstraint) {
  // x + y <= 5 with x in [0,10], y in [2,4]  =>  x in [0,3].
  const Expr e = Expr::variable(0) + Expr::variable(1);
  CompiledExpr ce(e);
  std::vector<Interval> box{Interval(0, 10), Interval(2, 4)};
  const auto r = ce.revise(Interval::nonPositive() + Interval(5.0), box);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.narrowed);
  EXPECT_NEAR(box[0].lo(), 0.0, 1e-8);
  EXPECT_NEAR(box[0].hi(), 3.0, 1e-8);
  EXPECT_EQ(box[1], Interval(2, 4));  // already consistent
}

TEST(CompiledExpr, ReviseEqualityPinsBothSides) {
  // x - y = 0 with x in [0,2], y in [1,5]  =>  both in [1,2].
  const Expr e = Expr::variable(0) - Expr::variable(1);
  CompiledExpr ce(e);
  std::vector<Interval> box{Interval(0, 2), Interval(1, 5)};
  const auto r = ce.revise(Interval(0.0), box);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(box[0].lo(), 1.0, 1e-8);
  EXPECT_NEAR(box[0].hi(), 2.0, 1e-8);
  EXPECT_NEAR(box[1].lo(), 1.0, 1e-8);
  EXPECT_NEAR(box[1].hi(), 2.0, 1e-8);
}

TEST(CompiledExpr, ReviseDetectsInfeasibility) {
  // x + y = 100 with x in [0,1], y in [0,1] is impossible.
  const Expr e = Expr::variable(0) + Expr::variable(1);
  CompiledExpr ce(e);
  std::vector<Interval> box{Interval(0, 1), Interval(0, 1)};
  const std::vector<Interval> before = box;
  const auto r = ce.revise(Interval(100.0), box);
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.narrowed);
  EXPECT_EQ(box, before);  // untouched on failure
}

TEST(CompiledExpr, ReviseNonlinearGainShape) {
  // gain = k * w / (1 + w) >= 0.6 with k = 1: w/(1+w) >= 0.6  =>  w >= 1.5.
  // The variable repeats, so one revise is loose (the classic dependency
  // problem); iterating revise to its fixpoint converges to the exact bound,
  // which is what the propagation engine's AC-3 loop does.
  const Expr w = Expr::variable(0);
  const Expr e = w / (1.0 + w);
  CompiledExpr ce(e);
  std::vector<Interval> box{Interval(0, 10)};
  const Interval target(0.6, 1e6);
  auto first = ce.revise(target, box);
  EXPECT_TRUE(first.feasible);
  EXPECT_GE(box[0].lo(), 0.6 - 1e-8);  // one revise already prunes
  for (int i = 0; i < 200; ++i) {
    if (!ce.revise(target, box).narrowed) break;
  }
  EXPECT_NEAR(box[0].lo(), 1.5, 1e-4);
  EXPECT_NEAR(box[0].hi(), 10.0, 1e-8);
}

TEST(CompiledExpr, ReviseThroughSquare) {
  // x^2 <= 4, x in [-10, 10]  =>  x in [-2, 2].
  CompiledExpr ce(sqr(Expr::variable(0)));
  std::vector<Interval> box{Interval(-10, 10)};
  const auto r = ce.revise(Interval(-1e9, 4.0), box);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(box[0].lo(), -2.0, 1e-8);
  EXPECT_NEAR(box[0].hi(), 2.0, 1e-8);
}

TEST(CompiledExpr, ReviseThroughSqrt) {
  // sqrt(x) >= 3  =>  x >= 9.
  CompiledExpr ce(sqrt(Expr::variable(0)));
  std::vector<Interval> box{Interval(0, 100)};
  const auto r = ce.revise(Interval(3.0, 1e9), box);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(box[0].lo(), 9.0, 1e-9);
}

TEST(CompiledExpr, ReviseThroughDivNarowsDenominator) {
  // 10 / y in [1, 2]  =>  y in [5, 10].
  CompiledExpr ce(Expr::constant(10.0) / Expr::variable(0));
  std::vector<Interval> box{Interval(0.1, 100)};
  const auto r = ce.revise(Interval(1.0, 2.0), box);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(box[0].lo(), 5.0, 1e-7);
  EXPECT_NEAR(box[0].hi(), 10.0, 1e-7);
}

TEST(CompiledExpr, RepeatedVariableIntersectsOccurrences) {
  // x + x = 4  =>  x = 2 (HC4 handles repeated vars soundly, possibly
  // loosely; here the projection is exact).
  const Expr x = Expr::variable(0);
  CompiledExpr ce(x + x);
  std::vector<Interval> box{Interval(0, 10)};
  const auto r = ce.revise(Interval(4.0), box);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(box[0].contains(2.0));
  EXPECT_LE(box[0].width(), 10.0);
}

TEST(CompiledExpr, ReviseIsIdempotentOnFixpoint) {
  const Expr e = Expr::variable(0) + Expr::variable(1);
  CompiledExpr ce(e);
  std::vector<Interval> box{Interval(0, 10), Interval(2, 4)};
  const Interval target(-1e9, 5.0);
  auto r1 = ce.revise(target, box);
  EXPECT_TRUE(r1.narrowed);
  auto r2 = ce.revise(target, box);
  EXPECT_FALSE(r2.narrowed);  // already at fixpoint
}

bool sameBits(const Interval& a, const Interval& b) {
  return std::bit_cast<std::uint64_t>(a.lo()) ==
             std::bit_cast<std::uint64_t>(b.lo()) &&
         std::bit_cast<std::uint64_t>(a.hi()) ==
             std::bit_cast<std::uint64_t>(b.hi());
}

/// A random domain drawn around `hull`: a sub-interval, a point, a
/// half-unbounded ray, or an interval wholly outside the hull (a box with
/// no overlap with the states the constraint was written for).
Interval randomDomain(util::Rng& rng, const Interval& hull) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Interval base = hull.isBounded() ? hull : Interval(-1e3, 1e3);
  const double w = std::max(base.width(), 1e-3);
  const double a = rng.uniform(base.lo(), base.hi());
  const double b = rng.uniform(base.lo(), base.hi());
  switch (rng.index(5)) {
    case 0: return Interval(std::min(a, b), std::max(a, b));
    case 1: return Interval(a);
    case 2: return Interval(a, kInf);
    case 3: return Interval(-kInf, a);
    default:
      return rng.chance(0.5) ? Interval(base.hi() + w, base.hi() + 2 * w)
                             : Interval(base.lo() - 2 * w, base.lo() - w);
  }
}

// The fused revise (one forward sweep sizes the tolerance pad and feeds the
// backward sweep) against the evaluate → tolerancedTarget → revise sequence
// it replaces in propagation: every output bit-identical on every zoo-small
// constraint over seeded random boxes.
TEST(CompiledExpr, RevisePaddedMatchesEvaluateThenRevise) {
  dpm::DesignProcessManager mgr;
  dpm::instantiate(gen::scenarioByName("zoo-small"), mgr);
  const constraint::Network& net = mgr.network();
  const std::vector<Interval> initial = net.currentBox();
  util::Rng rng(16);
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  std::size_t narrowed = 0;
  for (const constraint::ConstraintId id : net.constraintIds()) {
    const constraint::Constraint& c = net.constraint(id);
    CompiledExpr fused(c.residual());
    CompiledExpr twoSweep(c.residual());
    for (int trial = 0; trial < 64; ++trial) {
      std::vector<Interval> box = initial;
      for (const VarId v : fused.variables()) {
        box[v] = randomDomain(rng, initial[v]);
      }
      std::vector<Interval> expected = box;
      const Interval target =
          tolerancedTarget(c.target(), twoSweep.evaluate(expected));
      const ReviseResult want = twoSweep.revise(target, expected);
      const ReviseResult got = fused.revisePadded(c.target(), box);

      SCOPED_TRACE(c.name() + " trial " + std::to_string(trial));
      EXPECT_TRUE(sameBits(got.value, want.value));
      EXPECT_TRUE(sameBits(got.target, target));
      EXPECT_EQ(got.feasible, want.feasible);
      EXPECT_EQ(got.narrowed, want.narrowed);
      for (std::size_t v = 0; v < box.size(); ++v) {
        EXPECT_TRUE(sameBits(box[v], expected[v])) << "domain " << v;
      }
      (want.feasible ? feasible : infeasible) += 1;
      narrowed += want.narrowed ? 1 : 0;
    }
  }
  // The random boxes reach every outcome the propagator distinguishes.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
  EXPECT_GT(narrowed, 0u);
}

// Property: HC4-revise never prunes a witness point satisfying the
// constraint.  This is the key soundness requirement for the DCM — pruning a
// feasible design would send simulated designers into dead ends that the
// paper's system would not.
class Hc4Soundness : public ::testing::TestWithParam<int> {};

TEST_P(Hc4Soundness, WitnessPointsSurviveRevise) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7001);
  const Expr x = Expr::variable(0);
  const Expr y = Expr::variable(1);
  const Expr z = Expr::variable(2);
  const std::vector<Expr> exprs{
      x + y - z,
      x * y + z,
      sqr(x) - y * z,
      sqrt(abs(x) + 1.0) * y - z,
      x / (abs(y) + 1.0) + z,
      min(x, y) - max(y, z),
      pow(x, 3) + 2.0 * y,
  };

  for (int iter = 0; iter < 400; ++iter) {
    std::vector<Interval> box;
    std::vector<double> pt;
    for (int i = 0; i < 3; ++i) {
      const double a = rng.uniform(-4, 4);
      const double b = rng.uniform(-4, 4);
      box.emplace_back(std::min(a, b), std::max(a, b));
      pt.push_back(rng.uniform(box.back().lo(), box.back().hi()));
    }
    for (const Expr& e : exprs) {
      const double v = evalPoint(e, pt);
      if (!std::isfinite(v)) continue;
      // Build a target that the witness point satisfies.
      const Interval target(v - 0.25, v + 0.25);
      CompiledExpr ce(e);
      auto working = box;
      const auto r = ce.revise(target, working);
      ASSERT_TRUE(r.feasible) << e.str();
      for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(working[static_cast<std::size_t>(i)]
                        .inflate(1e-9, 1e-9)
                        .contains(pt[static_cast<std::size_t>(i)]))
            << e.str() << " pruned witness var " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Hc4Soundness, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace adpm::expr
