#include "expr/eval.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "oracle/expr.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace adpm::expr {
namespace {

using interval::Interval;
using oracle::evalInterval;

TEST(EvalPoint, AllOperators) {
  const Expr x = Expr::variable(0);
  const Expr y = Expr::variable(1);
  const std::vector<double> v{2.0, 3.0};

  EXPECT_EQ(evalPoint(x + y, v), 5.0);
  EXPECT_EQ(evalPoint(x - y, v), -1.0);
  EXPECT_EQ(evalPoint(x * y, v), 6.0);
  EXPECT_NEAR(evalPoint(x / y, v), 2.0 / 3.0, 1e-15);
  EXPECT_EQ(evalPoint(-x, v), -2.0);
  EXPECT_EQ(evalPoint(sqr(x), v), 4.0);
  EXPECT_NEAR(evalPoint(sqrt(x), v), std::sqrt(2.0), 1e-15);
  EXPECT_EQ(evalPoint(pow(x, 3), v), 8.0);
  EXPECT_NEAR(evalPoint(exp(x), v), std::exp(2.0), 1e-12);
  EXPECT_NEAR(evalPoint(log(x), v), std::log(2.0), 1e-15);
  EXPECT_EQ(evalPoint(abs(-x), v), 2.0);
  EXPECT_EQ(evalPoint(min(x, y), v), 2.0);
  EXPECT_EQ(evalPoint(max(x, y), v), 3.0);
  EXPECT_EQ(evalPoint(Expr::constant(7.5), v), 7.5);
}

TEST(EvalPoint, OutOfRangeVariableThrows) {
  const Expr e = Expr::variable(5);
  const std::vector<double> v{1.0};
  EXPECT_THROW(evalPoint(e, v), adpm::InvalidArgumentError);
}

TEST(EvalInterval, MatchesIntervalAlgebra) {
  const Expr x = Expr::variable(0);
  const Expr y = Expr::variable(1);
  const std::vector<Interval> box{Interval(1, 2), Interval(3, 4)};

  EXPECT_EQ(evalInterval(x + y, box), Interval(4, 6));
  EXPECT_EQ(evalInterval(x * y, box), Interval(3, 8));
  EXPECT_EQ(evalInterval(sqr(x - y), box), Interval(1, 9));
}

TEST(EvalInterval, ConstantExprIgnoresBox) {
  EXPECT_EQ(evalInterval(Expr::constant(2.0) * Expr::constant(3.0), {}),
            Interval(6.0));
}

// Containment property: point evaluation at box corners/samples must lie
// inside the interval evaluation.
class EvalContainment : public ::testing::TestWithParam<int> {};

TEST_P(EvalContainment, RandomExpressionsRandomBoxes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);

  const Expr x = Expr::variable(0);
  const Expr y = Expr::variable(1);
  const Expr z = Expr::variable(2);
  // A grab-bag of realistic constraint shapes (power sums, gain products,
  // resonator-style ratios).
  const std::vector<Expr> exprs{
      x + y + z,
      x * y - z,
      (x + 1.5) * (y - 0.5),
      sqr(x) + sqr(y) - z,
      sqrt(abs(x)) * y,
      min(x, y) + max(y, z),
      x / (y + 10.0),
      exp(x * 0.1) - log(abs(z) + 1.0),
      pow(x, 3) / (sqr(y) + 1.0),
  };

  for (int iter = 0; iter < 500; ++iter) {
    std::vector<Interval> box;
    std::vector<double> pt;
    for (int i = 0; i < 3; ++i) {
      const double a = rng.uniform(-5, 5);
      const double b = rng.uniform(-5, 5);
      box.emplace_back(std::min(a, b), std::max(a, b));
      pt.push_back(rng.uniform(box.back().lo(), box.back().hi()));
    }
    for (const Expr& e : exprs) {
      const double v = evalPoint(e, pt);
      if (!std::isfinite(v)) continue;
      const Interval iv = evalInterval(e, box);
      // Allow tiny numeric slack at the bounds.
      EXPECT_TRUE(iv.inflate(1e-12, 1e-12).contains(v))
          << e.str() << " at (" << pt[0] << "," << pt[1] << "," << pt[2]
          << ") -> " << v << " not in " << iv.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalContainment, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace adpm::expr
