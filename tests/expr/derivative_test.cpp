#include "expr/derivative.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "expr/compiled.hpp"
#include "expr/eval.hpp"
#include "expr/sweep.hpp"
#include "oracle/expr.hpp"
#include "util/rng.hpp"

namespace adpm::expr {
namespace {

using interval::Interval;
using oracle::evalDerivative;
using oracle::evalInterval;
using oracle::monotonicity;
using oracle::ValueDerivative;

TEST(Monotonicity, LinearTerms) {
  const Expr x = Expr::variable(0);
  const Expr y = Expr::variable(1);
  const std::vector<Interval> box{Interval(0, 10), Interval(0, 10)};

  EXPECT_EQ(monotonicity(x + y, box, 0), Direction::Increasing);
  EXPECT_EQ(monotonicity(x - y, box, 1), Direction::Decreasing);
  EXPECT_EQ(monotonicity(3.0 * x, box, 0), Direction::Increasing);
  EXPECT_EQ(monotonicity(-2.0 * x, box, 0), Direction::Decreasing);
  EXPECT_EQ(monotonicity(x + y, box, 5), Direction::None);
  EXPECT_EQ(monotonicity(Expr::constant(2.0) + 0.0 * x, box, 0),
            Direction::Constant);
}

TEST(Monotonicity, ProductDependsOnSigns) {
  const Expr x = Expr::variable(0);
  const Expr y = Expr::variable(1);
  // y >= 0: x*y increasing in x.
  std::vector<Interval> boxPos{Interval(-5, 5), Interval(1, 3)};
  EXPECT_EQ(monotonicity(x * y, boxPos, 0), Direction::Increasing);
  // y <= 0: decreasing in x.
  std::vector<Interval> boxNeg{Interval(-5, 5), Interval(-3, -1)};
  EXPECT_EQ(monotonicity(x * y, boxNeg, 0), Direction::Decreasing);
  // y straddles 0: unknown.
  std::vector<Interval> boxMix{Interval(-5, 5), Interval(-1, 1)};
  EXPECT_EQ(monotonicity(x * y, boxMix, 0), Direction::Unknown);
}

TEST(Monotonicity, NonlinearShapes) {
  const Expr x = Expr::variable(0);
  // x^2 on positive range is increasing, straddling zero is unknown.
  EXPECT_EQ(monotonicity(sqr(x), {{Interval(1, 5)}}, 0),
            Direction::Increasing);
  EXPECT_EQ(monotonicity(sqr(x), {{Interval(-5, 5)}}, 0), Direction::Unknown);
  EXPECT_EQ(monotonicity(sqrt(x), {{Interval(1, 9)}}, 0),
            Direction::Increasing);
  EXPECT_EQ(monotonicity(1.0 / x, {{Interval(1, 5)}}, 0),
            Direction::Decreasing);
  EXPECT_EQ(monotonicity(exp(x), {{Interval(-3, 3)}}, 0),
            Direction::Increasing);
  EXPECT_EQ(monotonicity(log(x), {{Interval(0.5, 4)}}, 0),
            Direction::Increasing);
}

TEST(Monotonicity, ResonatorFrequencyShape) {
  // Clamped-beam frequency f ∝ t / L^2: increasing in thickness t,
  // decreasing in length L (the DDDL example in the paper declares filter
  // loss monotone decreasing in resonator length, increasing in beam width).
  const Expr t = Expr::variable(0);
  const Expr L = Expr::variable(1);
  const Expr f = 1.03e3 * t / sqr(L);
  const std::vector<Interval> box{Interval(1, 3), Interval(10, 20)};
  EXPECT_EQ(monotonicity(f, box, 0), Direction::Increasing);
  EXPECT_EQ(monotonicity(f, box, 1), Direction::Decreasing);
}

TEST(Monotonicity, MinMaxAndAbs) {
  const Expr x = Expr::variable(0);
  const Expr y = Expr::variable(1);
  // min(x, 100): over [0,10] the min is always x -> increasing.
  EXPECT_EQ(
      monotonicity(min(x, Expr::constant(100.0)), {{Interval(0, 10)}}, 0),
      Direction::Increasing);
  // abs over positive box: increasing; straddling: unknown.
  EXPECT_EQ(monotonicity(abs(x), {{Interval(2, 5)}}, 0),
            Direction::Increasing);
  EXPECT_EQ(monotonicity(abs(x), {{Interval(-2, 5)}}, 0), Direction::Unknown);
  // max(x, y) w.r.t. x when x dominates.
  const std::vector<Interval> box{Interval(10, 20), Interval(0, 5)};
  EXPECT_EQ(monotonicity(max(x, y), box, 0), Direction::Increasing);
}

TEST(DirectionName, AllNamesPrintable) {
  EXPECT_STREQ(directionName(Direction::None), "none");
  EXPECT_STREQ(directionName(Direction::Constant), "constant");
  EXPECT_STREQ(directionName(Direction::Increasing), "increasing");
  EXPECT_STREQ(directionName(Direction::Decreasing), "decreasing");
  EXPECT_STREQ(directionName(Direction::Unknown), "unknown");
}

// Property: the AD derivative enclosure must contain the finite-difference
// slope between random sample points of the box.
class DerivativeContainment : public ::testing::TestWithParam<int> {};

TEST_P(DerivativeContainment, EncloseFiniteDifferences) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 5557);
  const Expr x = Expr::variable(0);
  const Expr y = Expr::variable(1);
  const std::vector<Expr> exprs{
      x * y + sqr(x),
      x / (y + 5.0),
      sqrt(x + 5.0) * y,
      exp(0.3 * x) - y,
      pow(x, 3) - 2.0 * x * y,
  };

  for (int iter = 0; iter < 300; ++iter) {
    const double xa = rng.uniform(-3, 3);
    const double xb = rng.uniform(-3, 3);
    const double yv = rng.uniform(-3, 3);
    const Interval X(std::min(xa, xb), std::max(xa, xb));
    if (X.width() < 1e-6) continue;
    const std::vector<Interval> box{X, Interval(yv)};

    for (const Expr& e : exprs) {
      const double fa = evalPoint(e, {{xa, yv}});
      const double fb = evalPoint(e, {{xb, yv}});
      if (!std::isfinite(fa) || !std::isfinite(fb)) continue;
      const double slope = (fb - fa) / (xb - xa);
      const Interval d = evalDerivative(e, box, 0).derivative;
      // Mean value theorem: slope equals the derivative somewhere inside.
      EXPECT_TRUE(d.inflate(1e-9, 1e-9).contains(slope))
          << e.str() << " slope " << slope << " not in " << d.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DerivativeContainment,
                         ::testing::Values(1, 2, 3));

TEST(EvalDerivative, ValueEnclosureMatchesEval) {
  const Expr x = Expr::variable(0);
  const Expr e = sqr(x) + 1.0 / x;
  const std::vector<Interval> box{Interval(1, 2)};
  const auto vd = evalDerivative(e, box, 0);
  EXPECT_TRUE(vd.value.contains(evalInterval(e, box).mid()));
}

// The compiled fused sweep must reproduce the recursive tree walk
// *bit-exactly* — same value enclosure, same derivative enclosure per
// variable — because the miner's fast engine derives directions from it and
// the differential tests demand identical GuidanceReports.
TEST(CompiledDerivatives, BitIdenticalToTreeWalkAD) {
  util::Rng rng(99991);
  const Expr x = Expr::variable(0);
  const Expr y = Expr::variable(1);
  const Expr z = Expr::variable(2);
  const std::vector<Expr> exprs{
      x * y + sqr(x) - z,
      x / (y + 5.0) + sqrt(abs(z) + 1.0),
      exp(0.3 * x) - log(y + 6.0) * z,
      pow(x, 3) - 2.0 * x * y + min(x, z),
      max(x * y, z) + abs(y),
      -(x + y) / (sqr(z) + 1.0),
  };

  for (int iter = 0; iter < 200; ++iter) {
    std::vector<Interval> box;
    for (int v = 0; v < 3; ++v) {
      const double a = rng.uniform(-4, 4);
      const double b = rng.uniform(-4, 4);
      // Mix point and wide domains, as real boxes do (bound vs unbound).
      box.push_back(iter % 3 == 0 ? Interval(a)
                                  : Interval(std::min(a, b), std::max(a, b)));
    }
    for (const Expr& e : exprs) {
      CompiledExpr compiled(e);
      const DerivativeSweep sweep = compiled.derivatives(box);
      ASSERT_EQ(sweep.derivatives.size(), compiled.variables().size());
      for (std::size_t k = 0; k < compiled.variables().size(); ++k) {
        const VarId var = compiled.variables()[k];
        const ValueDerivative vd = evalDerivative(e, box, var);
        EXPECT_EQ(sweep.value, vd.value) << e.str();
        EXPECT_EQ(sweep.derivatives[k], vd.derivative)
            << e.str() << " d/dvar" << var;
        EXPECT_EQ(directionOf(sweep.derivatives[k]),
                  monotonicity(e, box, var))
            << e.str() << " direction w.r.t. var" << var;
      }
    }
  }
}

TEST(SweepCounter, CountsEachSweepKindOnce) {
  const Expr x = Expr::variable(0);
  const Expr y = Expr::variable(1);
  const Expr e = x * y + sqr(x);
  const std::vector<Interval> box{Interval(1, 2), Interval(3, 4)};
  CompiledExpr compiled(e);

  resetSweepCount();
  (void)compiled.evaluate(box);
  EXPECT_EQ(sweepCount(), 1u);
  (void)compiled.derivatives(box);  // fused: one sweep for all variables
  EXPECT_EQ(sweepCount(), 2u);
  (void)monotonicity(e, box, 0);  // tree walk: one sweep per variable
  (void)monotonicity(e, box, 1);
  EXPECT_EQ(sweepCount(), 4u);
  std::vector<Interval> working = box;
  (void)compiled.revise(Interval(0.0, 100.0),
                        {working.data(), working.size()});
  EXPECT_EQ(sweepCount(), 5u);
  resetSweepCount();
  EXPECT_EQ(sweepCount(), 0u);
}

}  // namespace
}  // namespace adpm::expr
