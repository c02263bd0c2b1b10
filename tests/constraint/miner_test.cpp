#include "constraint/miner.hpp"

#include <gtest/gtest.h>

#include "oracle/expr.hpp"
#include "oracle/miner.hpp"

namespace adpm::constraint {
namespace {

using expr::Expr;
using interval::Domain;

// Mirror of the paper's Fig. 3/Fig. 4 situation: Diff-pair-W appears in three
// constraints (power, impedance, gain), two of which get violated.
struct BrowserFixture {
  Network net;
  PropertyId w;       // Diff-pair-W: larger helps gain & impedance, hurts power
  PropertyId l;       // Freq-ind
  ConstraintId cGain, cZin, cPower;

  BrowserFixture() {
    w = net.addProperty({"Diff-pair-W", "LNA+Mixer",
                         Domain::continuous(1.0, 8.0), "um", {}});
    l = net.addProperty({"Freq-ind", "LNA+Mixer",
                         Domain::continuous(0.05, 0.5), "uH", {}});
    const Expr W = net.var(w);
    const Expr L = net.var(l);
    // gain = 30*W*L >= 48
    cGain = net.addConstraint("TotalGain-C13", 30.0 * W * L, Relation::Ge,
                              Expr::constant(48.0));
    // Zin matching: 120/W <= 40  (larger W lowers input impedance)
    cZin = net.addConstraint("LNA-Zin-C9", 120.0 / W, Relation::Le,
                             Expr::constant(40.0));
    // power: 25*W <= 200
    cPower = net.addConstraint("LNAPower-C7", 25.0 * W, Relation::Le,
                               Expr::constant(200.0));
  }
};

TEST(HeuristicMiner, BetaCountsConnectedConstraints) {
  BrowserFixture f;
  Propagator prop;
  const auto r = prop.run(f.net);
  HeuristicMiner miner;
  const auto g = miner.mine(f.net, r);
  // The paper's Fig. 3: Diff-pair-W appears in 3 constraints (beta = 3).
  EXPECT_EQ(g.of(f.w).beta, 3);
  EXPECT_EQ(g.of(f.l).beta, 1);
}

TEST(HeuristicMiner, AlphaCountsConnectedViolations) {
  BrowserFixture f;
  // Fig. 4's story: a small W violates both gain and impedance.
  f.net.bind(f.w, 2.5);
  f.net.bind(f.l, 0.2);
  Propagator prop;
  const auto r = prop.run(f.net);
  // gain = 30*2.5*0.2 = 15 < 48 (violated); Zin = 48 > 40 (violated);
  // power = 62.5 <= 200 (satisfied).
  EXPECT_TRUE(r.isViolated(f.cGain));
  EXPECT_TRUE(r.isViolated(f.cZin));
  EXPECT_FALSE(r.isViolated(f.cPower));

  HeuristicMiner miner;
  const auto g = miner.mine(f.net, r);
  EXPECT_EQ(g.of(f.w).alpha, 2);  // the paper's alpha_2 = 2
  EXPECT_EQ(g.of(f.l).alpha, 1);
  EXPECT_EQ(g.violated.size(), 2u);
}

TEST(HeuristicMiner, RepairVotesPointTowardFix) {
  BrowserFixture f;
  f.net.bind(f.w, 2.5);
  f.net.bind(f.l, 0.2);
  Propagator prop;
  const auto r = prop.run(f.net);
  HeuristicMiner miner;
  const auto g = miner.mine(f.net, r);
  // Both violations are fixed by increasing W (exactly the paper's Section
  // 2.4.3 resolution: widen the differential pair).
  EXPECT_EQ(g.of(f.w).repairVotesUp, 2);
  EXPECT_EQ(g.of(f.w).repairVotesDown, 0);
  EXPECT_EQ(g.of(f.w).preferredRepairDirection(), 1);
}

TEST(HeuristicMiner, MonotoneListsSplitByHelpDirection) {
  BrowserFixture f;
  Propagator prop;
  const auto r = prop.run(f.net);
  HeuristicMiner miner;
  const auto g = miner.mine(f.net, r);
  const auto& gw = g.of(f.w);
  // Increasing W helps gain (>=) and Zin (120/W <=), hurts power (<=).
  EXPECT_EQ(gw.increasing.size(), 2u);
  EXPECT_EQ(gw.decreasing.size(), 1u);
  EXPECT_EQ(gw.decreasing[0], f.cPower);
}

TEST(HeuristicMiner, FeasibleSubspaceShrinksWithTighterSpec) {
  BrowserFixture loose;
  Propagator prop;
  HeuristicMiner miner;
  const auto gLoose =
      miner.mine(loose.net, prop.run(loose.net)).of(loose.w);

  BrowserFixture tight;
  // Tighten the power budget: 25*W <= 80 forces W <= 3.2.
  tight.net.constraint(tight.cPower);  // (exists)
  // Rebuild a tighter network instead of mutating the constraint.
  Network net2;
  const auto w2 = net2.addProperty({"Diff-pair-W", "LNA+Mixer",
                                    Domain::continuous(1.0, 8.0), "um", {}});
  net2.addConstraint("power", 25.0 * net2.var(w2), Relation::Le,
                     Expr::constant(80.0));
  const auto g2 = miner.mine(net2, prop.run(net2)).of(w2);

  EXPECT_LT(g2.relativeFeasibleSize, gLoose.relativeFeasibleSize + 1e-12);
  EXPECT_NEAR(g2.feasible.maxValue(), 3.2, 1e-6);
}

TEST(HeuristicMiner, WhatIfRecoversRangeForBoundViolatedProperty) {
  BrowserFixture f;
  f.net.bind(f.w, 2.5);
  f.net.bind(f.l, 0.2);
  Propagator prop;
  const auto r = prop.run(f.net);
  HeuristicMiner withWhatIf;
  const auto g = withWhatIf.mine(f.net, r);
  // Bound at 2.5 with violations: the what-if range shows where W could be
  // rebound (Zin needs W >= 3, power allows W <= 8).
  const auto& gw = g.of(f.w);
  EXPECT_FALSE(gw.feasible.empty());
  EXPECT_GE(gw.feasible.minValue(), 3.0 - 1e-6);
  EXPECT_GT(g.extraEvaluations, 0u);

  HeuristicMiner without{
      HeuristicMiner::Options{.whatIfForViolated = false}};
  const auto g2 = without.mine(f.net, r);
  EXPECT_EQ(g2.extraEvaluations, 0u);
}

TEST(HeuristicMiner, RelativeFeasibleSizeRanksDifficulty) {
  // The Fig. 2 heuristic: Freq-ind's feasible window is relatively smaller
  // than Diff-pair-W's, so the designer focuses on the inductor first.
  Network net;
  const auto w = net.addProperty({"Diff-pair-W", "LNA+Mixer",
                                  Domain::continuous(1.0, 8.0), "um", {}});
  const auto l = net.addProperty({"Freq-ind", "LNA+Mixer",
                                  Domain::continuous(0.05, 0.5), "uH", {}});
  // W >= 2.5 (keeps ~79% of its range); L in [0.17, 0.2] (~7%).
  net.addConstraint("w-min", net.var(w), Relation::Ge, Expr::constant(2.5));
  net.addConstraint("l-lo", net.var(l), Relation::Ge, Expr::constant(0.17));
  net.addConstraint("l-hi", net.var(l), Relation::Le, Expr::constant(0.2));
  Propagator prop;
  HeuristicMiner miner;
  const auto g = miner.mine(net, prop.run(net));
  EXPECT_LT(g.of(l).relativeFeasibleSize, g.of(w).relativeFeasibleSize);
}

/// The shipped miner's guidance over the network's current state.
GuidanceReport mineShipped(Network& net) {
  Propagator prop;
  return HeuristicMiner{}.mine(net, prop.run(net));
}

/// Asserts the shipped miner's record for a property that touches only `c`:
/// `c` is in the increasing list for dir > 0, the decreasing list for
/// dir < 0, neither for 0, and it is a repair vote that way iff violated.
void expectMinedDirection(const PropertyGuidance& g, ConstraintId c, int dir,
                          bool violated) {
  const std::vector<ConstraintId> only{c};
  const std::vector<ConstraintId> none;
  EXPECT_EQ(g.increasing, dir > 0 ? only : none);
  EXPECT_EQ(g.decreasing, dir < 0 ? only : none);
  EXPECT_EQ(g.repairVotesUp, violated && dir > 0 ? 1 : 0);
  EXPECT_EQ(g.repairVotesDown, violated && dir < 0 ? 1 : 0);
}

// The HelpDirection tests pin the precedence rules twice: on the oracle's
// tree-walk helpDirection and on what the shipped miner reports.

TEST(HelpDirection, EqualityUsesViolationSide) {
  Network net;
  const auto x = net.addProperty({"x", "o", Domain::continuous(0, 10), "", {}});
  const auto y = net.addProperty({"y", "o", Domain::continuous(0, 10), "", {}});
  const auto cid = net.addConstraint("model", net.var(y), Relation::Eq,
                                     2.0 * net.var(x));
  // y = 2x violated with y too small: y=1, x=4 (residual y-2x = -7 < 0).
  net.bind(x, 4.0);
  net.bind(y, 1.0);
  const auto box = net.currentBox();
  // Residual must rise: increasing y helps (+1), increasing x hurts (-1).
  EXPECT_EQ(oracle::helpDirection(net.constraint(cid), y, box), 1);
  EXPECT_EQ(oracle::helpDirection(net.constraint(cid), x, box), -1);
  const GuidanceReport g = mineShipped(net);
  ASSERT_EQ(g.violated, std::vector<ConstraintId>{cid});
  expectMinedDirection(g.of(y), cid, 1, true);
  expectMinedDirection(g.of(x), cid, -1, true);
}

TEST(HelpDirection, FallsBackToDeclared) {
  Network net;
  const auto x = net.addProperty({"x", "o", Domain::continuous(-5, 5), "", {}});
  // residual x^2 - 4 <= 0; over [-5,5] the derivative sign is unprovable.
  const auto cid = net.addConstraint("sq", expr::sqr(net.var(x)), Relation::Le,
                                     expr::Expr::constant(4.0));
  const auto box = net.currentBox();
  EXPECT_EQ(oracle::helpDirection(net.constraint(cid), x, box), 0);
  expectMinedDirection(mineShipped(net).of(x), cid, 0, false);
  net.constraint(cid).declareHelpDirection(x, false);
  EXPECT_EQ(oracle::helpDirection(net.constraint(cid), x, box), -1);
  expectMinedDirection(mineShipped(net).of(x), cid, -1, false);

  // Violated: residual x^2 + y - 4 with y pinned at 10 is above its target
  // whatever x is, and x's slope is still unprovable, so the declaration
  // (here "increase helps") decides the direction and the repair vote.
  Network net2;
  const auto x2 =
      net2.addProperty({"x", "o", Domain::continuous(-5, 5), "", {}});
  const auto y2 =
      net2.addProperty({"y", "o", Domain::continuous(0, 10), "", {}});
  const auto cid2 = net2.addConstraint(
      "sq+y", expr::sqr(net2.var(x2)) + net2.var(y2), Relation::Le,
      expr::Expr::constant(4.0));
  net2.constraint(cid2).declareHelpDirection(x2, true);
  net2.bind(y2, 10.0);
  const auto box2 = net2.currentBox();
  EXPECT_EQ(oracle::helpDirection(net2.constraint(cid2), x2, box2), 1);
  EXPECT_EQ(oracle::helpDirection(net2.constraint(cid2), y2, box2), -1);
  const GuidanceReport g2 = mineShipped(net2);
  ASSERT_EQ(g2.violated, std::vector<ConstraintId>{cid2});
  expectMinedDirection(g2.of(x2), cid2, 1, true);
  expectMinedDirection(g2.of(y2), cid2, -1, true);
}

TEST(HelpDirection, ProvenConstantBeatsDeclaredDirection) {
  // Precedence fix: Direction::Constant (derivative identically zero over
  // the box — moving the property provably cannot change the residual) must
  // yield "no direction" WITHOUT falling back to the DDDL declaration; only
  // Unknown (sign unprovable) defers to the declared direction.
  Network net;
  const auto x = net.addProperty({"x", "o", Domain::continuous(0, 10), "", {}});
  const auto y = net.addProperty({"y", "o", Domain::continuous(0, 10), "", {}});
  // residual x*y - 50 <= 0; with y pinned at 0 the derivative w.r.t. x is
  // the enclosure of y = [0,0] — proven Constant.
  const auto cid = net.addConstraint("xy", net.var(x) * net.var(y),
                                     Relation::Le, expr::Expr::constant(50.0));
  net.constraint(cid).declareHelpDirection(x, false);
  net.bind(y, 0.0);
  const auto box = net.currentBox();
  EXPECT_EQ(oracle::monotonicity(net.constraint(cid).residual(), box, x.value),
            expr::Direction::Constant);
  // Despite the declared "decrease helps", the proven Constant wins.
  EXPECT_EQ(oracle::helpDirection(net.constraint(cid), x, box), 0);
  expectMinedDirection(mineShipped(net).of(x), cid, 0, false);

  // Unpinned, the derivative sign is provable again (y ∈ [0,10] ⇒
  // increasing residual, and Le wants it lower ⇒ decrease x helps): the
  // proven sign, not the declaration, now drives the answer.  The genuinely
  // Unknown → declared fallback is covered by FallsBackToDeclared above.
  net.unbind(y);
  const auto box2 = net.currentBox();
  EXPECT_EQ(oracle::helpDirection(net.constraint(cid), x, box2), -1);
  expectMinedDirection(mineShipped(net).of(x), cid, -1, false);

  // Violated: x*y + z - 4 <= 0 with y = 0 and z = 10 is violated whatever
  // x is.  The proven Constant casts no repair vote for x either.
  Network net2;
  const auto x2 =
      net2.addProperty({"x", "o", Domain::continuous(0, 10), "", {}});
  const auto y2 =
      net2.addProperty({"y", "o", Domain::continuous(0, 10), "", {}});
  const auto z2 =
      net2.addProperty({"z", "o", Domain::continuous(0, 10), "", {}});
  const auto cid2 = net2.addConstraint(
      "xy+z", net2.var(x2) * net2.var(y2) + net2.var(z2), Relation::Le,
      expr::Expr::constant(4.0));
  net2.constraint(cid2).declareHelpDirection(x2, false);
  net2.bind(y2, 0.0);
  net2.bind(z2, 10.0);
  EXPECT_EQ(oracle::helpDirection(net2.constraint(cid2), x2,
                                  net2.currentBox()),
            0);
  const GuidanceReport g2 = mineShipped(net2);
  ASSERT_EQ(g2.violated, std::vector<ConstraintId>{cid2});
  expectMinedDirection(g2.of(x2), cid2, 0, true);
  expectMinedDirection(g2.of(z2), cid2, -1, true);
}

TEST(HeuristicMiner, FastEngineMatchesReferenceOnFixture) {
  BrowserFixture f;
  f.net.bind(f.w, 2.5);
  f.net.bind(f.l, 0.2);
  Propagator prop;
  const auto r = prop.run(f.net);
  HeuristicMiner fast;
  oracle::ReferenceMiner ref;
  const auto gf = fast.mine(f.net, r);
  const auto gr = ref.mine(f.net, r);
  ASSERT_EQ(gf.properties.size(), gr.properties.size());
  for (std::size_t i = 0; i < gf.properties.size(); ++i) {
    EXPECT_EQ(gf.properties[i].beta, gr.properties[i].beta);
    EXPECT_EQ(gf.properties[i].alpha, gr.properties[i].alpha);
    EXPECT_EQ(gf.properties[i].increasing, gr.properties[i].increasing);
    EXPECT_EQ(gf.properties[i].decreasing, gr.properties[i].decreasing);
    EXPECT_EQ(gf.properties[i].repairVotesUp, gr.properties[i].repairVotesUp);
    EXPECT_EQ(gf.properties[i].repairVotesDown,
              gr.properties[i].repairVotesDown);
    EXPECT_EQ(gf.properties[i].feasible, gr.properties[i].feasible);
  }

  // A rebind moves the box generation, so the shipped miner's cache must
  // refresh rather than serve stale directions.
  f.net.bind(f.w, 7.5);
  const auto r2 = prop.run(f.net);
  const auto gf2 = fast.mine(f.net, r2);
  const auto gr2 = ref.mine(f.net, r2);
  for (std::size_t i = 0; i < gf2.properties.size(); ++i) {
    EXPECT_EQ(gf2.properties[i].increasing, gr2.properties[i].increasing);
    EXPECT_EQ(gf2.properties[i].decreasing, gr2.properties[i].decreasing);
  }
}

}  // namespace
}  // namespace adpm::constraint
