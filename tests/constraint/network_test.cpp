#include "constraint/network.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "util/error.hpp"

namespace adpm::constraint {
namespace {

using expr::Expr;
using interval::Domain;
using interval::Interval;

// bind/unbind are the only writers of a property, so every box change bumps
// Network::generation(), which the miner's mining cache is keyed on.  No
// mutable accessor may hand out a writable Property.
static_assert(
    std::is_same_v<decltype(std::declval<Network&>().property(PropertyId{})),
                   const Property&>);

Network makeReceiverToy() {
  // A miniature version of the paper's Section 2 receiver example:
  //   P_f + P_s <= P_M   (power budget)
  //   G_f * G_s >= G_min (gain product)
  Network net;
  net.addProperty({"P_f", "frontend", Domain::continuous(0, 200), "mW", {}});
  net.addProperty({"P_s", "deserializer", Domain::continuous(0, 200), "mW", {}});
  net.addProperty({"P_M", "system", Domain::continuous(100, 300), "mW", {}});
  net.addProperty({"G_f", "frontend", Domain::continuous(1, 20), "", {}});
  net.addProperty({"G_s", "deserializer", Domain::continuous(1, 20), "", {}});
  net.addProperty({"G_min", "system", Domain::continuous(10, 100), "", {}});

  const auto p = [&](std::uint32_t i) { return net.var(PropertyId{i}); };
  net.addConstraint("power", p(0) + p(1), Relation::Le, p(2));
  net.addConstraint("gain", p(3) * p(4), Relation::Ge, p(5));
  return net;
}

TEST(Network, AddAndLookup) {
  Network net = makeReceiverToy();
  EXPECT_EQ(net.propertyCount(), 6u);
  EXPECT_EQ(net.constraintCount(), 2u);

  const auto pf = net.findProperty("P_f");
  ASSERT_TRUE(pf.has_value());
  EXPECT_EQ(net.property(*pf).object, "frontend");
  EXPECT_EQ(net.property(*pf).unit, "mW");
  EXPECT_FALSE(net.findProperty("nope").has_value());

  const auto gain = net.findConstraint("gain");
  ASSERT_TRUE(gain.has_value());
  EXPECT_EQ(net.constraint(*gain).arguments().size(), 3u);
  EXPECT_FALSE(net.findConstraint("nope").has_value());
}

TEST(Network, DuplicateNamesRejected) {
  Network net = makeReceiverToy();
  EXPECT_THROW(
      net.addProperty({"P_f", "x", Domain::continuous(0, 1), "", {}}),
      adpm::InvalidArgumentError);
  EXPECT_THROW(net.addConstraint("power", net.var(PropertyId{0}), Relation::Le,
                                 net.var(PropertyId{1})),
               adpm::InvalidArgumentError);
}

TEST(Network, ConstraintOverUnknownPropertyRejected) {
  Network net;
  net.addProperty({"x", "o", Domain::continuous(0, 1), "", {}});
  EXPECT_THROW(net.addConstraint("bad", expr::Expr::variable(5), Relation::Le,
                                 expr::Expr::constant(0.0)),
               adpm::InvalidArgumentError);
}

TEST(Network, ConstraintsOfBuildsAdjacency) {
  Network net = makeReceiverToy();
  const auto& ofPf = net.constraintsOf(PropertyId{0});
  ASSERT_EQ(ofPf.size(), 1u);
  EXPECT_EQ(net.constraint(ofPf[0]).name(), "power");
  EXPECT_TRUE(net.constraintsOf(PropertyId{3}).size() == 1);
}

TEST(Network, BindingAffectsCurrentBox) {
  Network net = makeReceiverToy();
  auto box = net.currentBox();
  EXPECT_EQ(box[0], Interval(0, 200));

  net.bind(PropertyId{0}, 80.0);
  EXPECT_TRUE(net.property(PropertyId{0}).bound());
  box = net.currentBox();
  EXPECT_EQ(box[0], Interval(80.0));

  net.unbind(PropertyId{0});
  EXPECT_FALSE(net.property(PropertyId{0}).bound());
  EXPECT_EQ(net.currentBox()[0], Interval(0, 200));
}

TEST(Network, EvaluateClassifiesAndCounts) {
  Network net = makeReceiverToy();
  const ConstraintId power = *net.findConstraint("power");

  EXPECT_EQ(net.evaluationCount(), 0u);
  // Unbound: P_f + P_s in [0,400] vs P_M in [100,300]: consistent.
  EXPECT_EQ(net.evaluate(power), Status::Consistent);
  EXPECT_EQ(net.evaluationCount(), 1u);

  net.bind(PropertyId{0}, 50.0);
  net.bind(PropertyId{1}, 40.0);
  net.bind(PropertyId{2}, 100.0);
  EXPECT_EQ(net.evaluate(power), Status::Satisfied);

  net.bind(PropertyId{1}, 90.0);  // 50 + 90 > 100
  EXPECT_EQ(net.evaluate(power), Status::Violated);
  EXPECT_EQ(net.evaluationCount(), 3u);

  net.resetEvaluationCount();
  EXPECT_EQ(net.evaluationCount(), 0u);
}

TEST(Network, EvaluateBatch) {
  Network net = makeReceiverToy();
  const auto statuses = net.evaluate(net.constraintIds());
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(net.evaluationCount(), 2u);
}

TEST(Network, IdListsAreDense) {
  Network net = makeReceiverToy();
  const auto pids = net.propertyIds();
  ASSERT_EQ(pids.size(), 6u);
  for (std::uint32_t i = 0; i < pids.size(); ++i) EXPECT_EQ(pids[i].value, i);
  const auto cids = net.constraintIds();
  ASSERT_EQ(cids.size(), 2u);
}

TEST(Network, VarNamesExpressionAfterProperty) {
  Network net = makeReceiverToy();
  EXPECT_EQ(net.var(PropertyId{0}).str(), "P_f");
}

TEST(Network, AccessorsRejectBadIds) {
  Network net = makeReceiverToy();
  EXPECT_THROW(net.property(PropertyId{99}), adpm::InvalidArgumentError);
  EXPECT_THROW(net.constraint(ConstraintId{99}), adpm::InvalidArgumentError);
  EXPECT_THROW(net.constraintsOf(PropertyId{99}), adpm::InvalidArgumentError);
}

}  // namespace
}  // namespace adpm::constraint
