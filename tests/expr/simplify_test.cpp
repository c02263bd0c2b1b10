#include "expr/simplify.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "expr/eval.hpp"
#include "oracle/expr.hpp"
#include "util/rng.hpp"

namespace adpm::expr {
namespace {

using interval::Interval;
using oracle::evalInterval;

std::size_t nodeCount(const Expr& e) {
  std::size_t n = 1;
  for (const auto& c : e.node().children) n += nodeCount(c);
  return n;
}

TEST(Simplify, ConstantFolding) {
  const Expr e = Expr::constant(2.0) * Expr::constant(3.0) +
                 Expr::constant(4.0);
  const Expr s = simplify(e);
  ASSERT_EQ(s.kind(), OpKind::Const);
  EXPECT_DOUBLE_EQ(s.node().value, 10.0);
}

TEST(Simplify, FoldsUnaryFunctions) {
  EXPECT_DOUBLE_EQ(simplify(sqrt(Expr::constant(9.0))).node().value, 3.0);
  EXPECT_DOUBLE_EQ(simplify(abs(Expr::constant(-2.0))).node().value, 2.0);
  EXPECT_DOUBLE_EQ(simplify(sqr(Expr::constant(4.0))).node().value, 16.0);
  EXPECT_DOUBLE_EQ(
      simplify(min(Expr::constant(1.0), Expr::constant(2.0))).node().value,
      1.0);
}

TEST(Simplify, NonFiniteFoldsStaySymbolic) {
  // 1/0 would fold to inf; it must stay symbolic so interval semantics
  // (extended division) are preserved.
  const Expr e = Expr::constant(1.0) / Expr::constant(0.0);
  EXPECT_EQ(simplify(e).kind(), OpKind::Div);
  const Expr l = log(Expr::constant(-1.0));
  EXPECT_EQ(simplify(l).kind(), OpKind::Log);
}

TEST(Simplify, AdditiveIdentities) {
  const Expr x = Expr::variable(0, "x");
  EXPECT_TRUE(simplify(x + 0.0).sameAs(x));
  EXPECT_TRUE(simplify(0.0 + x).sameAs(x));
  EXPECT_TRUE(simplify(x - 0.0).sameAs(x));
  // 0 - x -> -x
  EXPECT_EQ(simplify(0.0 - x).kind(), OpKind::Neg);
}

TEST(Simplify, MultiplicativeIdentities) {
  const Expr x = Expr::variable(0, "x");
  EXPECT_TRUE(simplify(x * 1.0).sameAs(x));
  EXPECT_TRUE(simplify(1.0 * x).sameAs(x));
  EXPECT_TRUE(simplify(x / 1.0).sameAs(x));
  const Expr z = simplify(x * 0.0);
  ASSERT_EQ(z.kind(), OpKind::Const);
  EXPECT_EQ(z.node().value, 0.0);
}

TEST(Simplify, ZeroOverSymbolicDenominatorPreserved) {
  // 0 / x must NOT fold to 0: x's interval may contain 0.
  const Expr x = Expr::variable(0, "x");
  const Expr e = Expr::constant(0.0) / x;
  EXPECT_EQ(simplify(e).kind(), OpKind::Div);
}

TEST(Simplify, DoubleNegationAndPow) {
  const Expr x = Expr::variable(0, "x");
  EXPECT_TRUE(simplify(-(-x)).sameAs(x));
  EXPECT_DOUBLE_EQ(simplify(pow(x, 0)).node().value, 1.0);
  EXPECT_TRUE(simplify(pow(x, 1)).sameAs(x));
  EXPECT_EQ(simplify(pow(x, 2)).kind(), OpKind::Sqr);
  EXPECT_EQ(simplify(pow(x, 3)).kind(), OpKind::Pow);
}

TEST(Simplify, ShrinksRealisticResiduals) {
  // The kind of residual scenario builders produce.
  const Expr g = Expr::variable(0, "gain");
  const Expr b = Expr::variable(1, "bw");
  const Expr e = (0.15 * g + 0.1 * b + 0.0) - (1.0 * Expr::constant(10.0));
  const Expr s = simplify(e);
  EXPECT_LT(nodeCount(s), nodeCount(e));
}

TEST(Simplify, IdempotentAndStable) {
  const Expr x = Expr::variable(0, "x");
  const Expr e = -(-(x * 1.0)) + 0.0;
  const Expr once = simplify(e);
  const Expr twice = simplify(once);
  EXPECT_TRUE(once.sameAs(twice));
  EXPECT_TRUE(once.sameAs(x));
}

// Property: simplification preserves point semantics exactly (where both
// sides are finite).
class SimplifySemantics : public ::testing::TestWithParam<int> {};

TEST_P(SimplifySemantics, PointValuesUnchanged) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 86243);
  const Expr x = Expr::variable(0, "x");
  const Expr y = Expr::variable(1, "y");
  const std::vector<Expr> exprs{
      (x + 0.0) * (1.0 * y) - 0.0,
      pow(x, 2) + pow(y, 1) - pow(x, 0),
      -(-x) / (y + 2.0 * 3.0),
      sqrt(abs(x * 1.0)) + Expr::constant(2.0) * Expr::constant(0.5) * y,
      min(x * 0.0 + y, max(x, 0.0 + y)),
      (0.15 * x + 0.1 * y + 0.0) - 1.0 * 10.0,
  };
  for (int iter = 0; iter < 300; ++iter) {
    const double xv = rng.uniform(-10, 10);
    const double yv = rng.uniform(-10, 10);
    for (const Expr& e : exprs) {
      const Expr s = simplify(e);
      const double before = evalPoint(e, {{xv, yv}});
      const double after = evalPoint(s, {{xv, yv}});
      if (!std::isfinite(before)) continue;
      EXPECT_NEAR(after, before, 1e-9 * (1.0 + std::fabs(before)))
          << e.str() << "  vs  " << s.str();
      // Never wider as an interval either.
      const std::vector<Interval> box{Interval(xv - 1, xv + 1),
                                      Interval(yv - 1, yv + 1)};
      const Interval ib = evalInterval(e, box);
      const Interval ia = evalInterval(s, box);
      EXPECT_TRUE(ib.inflate(1e-9, 1e-9).contains(ia))
          << e.str() << "  vs  " << s.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifySemantics, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace adpm::expr
