#include "service/bus.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace adpm::service {
namespace {

dpm::Notification note(const char* designer, std::size_t stage = 1) {
  dpm::Notification n;
  n.kind = dpm::NotificationKind::ViolationDetected;
  n.designer = designer;
  n.stage = stage;
  n.text = "ViolationDetected: budget";
  return n;
}

TEST(NotificationBus, RoutesByDesignerWithinSession) {
  NotificationBus bus;
  auto ana = bus.subscribe("s1", "ana");
  auto ben = bus.subscribe("s1", "ben");

  bus.publish("s1", {note("ana"), note("ben"), note("ana")});
  EXPECT_EQ(bus.published(), 3u);
  EXPECT_EQ(bus.delivered(), 3u);
  EXPECT_EQ(bus.unrouted(), 0u);
  EXPECT_EQ(ana->size(), 2u);
  EXPECT_EQ(ben->size(), 1u);
  EXPECT_EQ(ana->tryPop()->designer, "ana");
}

TEST(NotificationBus, SessionsAreIsolated) {
  NotificationBus bus;
  auto s1 = bus.subscribe("s1", "ana");
  auto s2 = bus.subscribe("s2", "ana");
  bus.publish("s1", {note("ana")});
  EXPECT_EQ(s1->size(), 1u);
  EXPECT_EQ(s2->size(), 0u);
}

TEST(NotificationBus, UnsubscribedDesignerCountsAsUnrouted) {
  NotificationBus bus;
  auto ana = bus.subscribe("s1", "ana");
  bus.publish("s1", {note("ana"), note("nobody")});
  EXPECT_EQ(bus.delivered(), 1u);
  EXPECT_EQ(bus.unrouted(), 1u);
  // No subscriber at all for the session: everything is unrouted.
  bus.publish("ghost", {note("ana")});
  EXPECT_EQ(bus.unrouted(), 2u);
}

TEST(NotificationBus, EverySubscriberOfASeatGetsEveryNotification) {
  NotificationBus bus;
  auto first = bus.subscribe("s1", "ana");
  auto second = bus.subscribe("s1", "ana");
  bus.publish("s1", {note("ana")});
  EXPECT_EQ(first->size(), 1u);
  EXPECT_EQ(second->size(), 1u);
  EXPECT_EQ(bus.delivered(), 2u);  // two queue acceptances of one event
}

TEST(NotificationBus, WakeFiresOncePerPublishForEachFedSubscriber) {
  NotificationBus bus;
  int anaWakes = 0;
  int benWakes = 0;
  auto ana = bus.subscribe("s1", "ana", [&] { ++anaWakes; });
  auto ben = bus.subscribe("s1", "ben", [&] { ++benWakes; });

  bus.publish("s1", {note("ana"), note("ana"), note("nobody")});
  EXPECT_EQ(anaWakes, 1);  // one wake covers the whole batch
  EXPECT_EQ(benWakes, 0);  // nothing enqueued for ben
  bus.publish("s1", {note("ben")});
  EXPECT_EQ(anaWakes, 1);
  EXPECT_EQ(benWakes, 1);

  // A closed queue accepts nothing, so there is nothing to wake for.
  ana->close();
  bus.publish("s1", {note("ana")});
  EXPECT_EQ(anaWakes, 1);
}

TEST(NotificationBus, DropOldestOverflowIsCounted) {
  NotificationBus bus;
  auto q = bus.subscribe("s1", "ana", 2, util::OverflowPolicy::DropOldest);
  for (std::size_t i = 0; i < 5; ++i) bus.publish("s1", {note("ana", i)});
  EXPECT_EQ(bus.dropped(), 3u);
  EXPECT_EQ(q->size(), 2u);
  EXPECT_EQ(q->tryPop()->stage, 3u);  // oldest survivors
  EXPECT_EQ(q->tryPop()->stage, 4u);

  // Closing the session retires the queue without losing the count.
  bus.closeSession("s1");
  EXPECT_EQ(bus.dropped(), 3u);
}

TEST(NotificationBus, BlockPolicyBackpressuresPublisher) {
  NotificationBus bus;
  auto q = bus.subscribe("s1", "ana", 1, util::OverflowPolicy::Block);
  bus.publish("s1", {note("ana", 1)});

  std::thread producer(
      [&bus] { bus.publish("s1", {note("ana", 2)}); });  // waits for space
  EXPECT_EQ(q->pop()->stage, 1u);
  producer.join();
  EXPECT_EQ(q->pop()->stage, 2u);
  EXPECT_EQ(bus.dropped(), 0u);
}

TEST(NotificationBus, CloseSessionUnblocksPublisherAndClosesQueues) {
  NotificationBus bus;
  auto q = bus.subscribe("s1", "ana", 1, util::OverflowPolicy::Block);
  bus.publish("s1", {note("ana", 1)});

  std::thread producer([&bus] {
    // Parked on the full Block queue until closeSession wakes it; the
    // refused push is neither delivered nor dropped.
    bus.publish("s1", {note("ana", 2)});
  });
  bus.closeSession("s1");
  producer.join();
  EXPECT_TRUE(q->closed());
  // The pre-close item stays poppable.
  EXPECT_EQ(q->pop()->stage, 1u);
  EXPECT_EQ(q->pop(), std::nullopt);
}

TEST(NotificationBus, CloseAllClosesEverySession) {
  NotificationBus bus;
  auto a = bus.subscribe("s1", "ana");
  auto b = bus.subscribe("s2", "ben");
  bus.closeAll();
  EXPECT_TRUE(a->closed());
  EXPECT_TRUE(b->closed());
}

TEST(NotificationBus, EmptyBatchIsFree) {
  NotificationBus bus;
  bus.publish("s1", {});
  EXPECT_EQ(bus.published(), 0u);
  EXPECT_EQ(bus.unrouted(), 0u);
}

TEST(NotificationBus, DegradesToResyncMarkerAtHighWater) {
  NotificationBus::Options options;
  options.queueCapacity = 8;
  options.degradeHighWater = 3;
  NotificationBus bus(options);
  auto q = bus.subscribe("s1", "ana");

  // Fill to just below the high-water mark: normal delivery.
  for (std::size_t i = 1; i <= 3; ++i) bus.publish("s1", {note("ana", i)});
  EXPECT_EQ(bus.downgrades(), 0u);
  EXPECT_EQ(q->size(), 3u);

  // Depth has reached the mark: the next publish downgrades the subscriber —
  // one ResyncRequired marker is enqueued instead of the event.
  bus.publish("s1", {note("ana", 4)});
  EXPECT_EQ(bus.downgrades(), 1u);
  EXPECT_EQ(bus.coalesced(), 1u);
  EXPECT_EQ(q->size(), 4u);

  // While degraded, further events coalesce into the pending marker.
  bus.publish("s1", {note("ana", 5), note("ana", 6)});
  EXPECT_EQ(bus.downgrades(), 1u);
  EXPECT_EQ(bus.coalesced(), 3u);
  EXPECT_EQ(q->size(), 4u);
  EXPECT_EQ(bus.dropped(), 0u);  // degraded != silent shedding

  // The consumer sees the per-event prefix, then the marker.
  EXPECT_EQ(q->pop()->stage, 1u);
  EXPECT_EQ(q->pop()->stage, 2u);
  EXPECT_EQ(q->pop()->stage, 3u);
  const auto marker = q->pop();
  ASSERT_TRUE(marker.has_value());
  EXPECT_EQ(marker->kind, dpm::NotificationKind::ResyncRequired);
  EXPECT_EQ(marker->stage, 4u);
}

TEST(NotificationBus, ResumesPerEventDeliveryAtLowWater) {
  NotificationBus::Options options;
  options.queueCapacity = 8;
  options.degradeHighWater = 2;
  options.resumeLowWater = 0;  // defaults to hwm/2 == 1
  NotificationBus bus(options);
  auto q = bus.subscribe("s1", "ana");

  bus.publish("s1", {note("ana", 1), note("ana", 2)});
  bus.publish("s1", {note("ana", 3)});  // queue at hwm: downgrade + marker
  EXPECT_EQ(bus.downgrades(), 1u);
  EXPECT_EQ(q->size(), 3u);

  // Drain past the low-water mark, then publish again: delivery resumes.
  EXPECT_EQ(q->pop()->stage, 1u);
  EXPECT_EQ(q->pop()->stage, 2u);
  EXPECT_EQ(q->pop()->kind, dpm::NotificationKind::ResyncRequired);
  bus.publish("s1", {note("ana", 4)});
  EXPECT_EQ(bus.downgrades(), 1u);  // no second downgrade
  const auto resumed = q->tryPop();
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->kind, dpm::NotificationKind::ViolationDetected);
  EXPECT_EQ(resumed->stage, 4u);
}

TEST(NotificationBus, DegradedModeNeverBlocksThePublisher) {
  // The whole point of degraded mode: a saturated Block queue would park the
  // producing strand; with a high-water mark it must not.
  NotificationBus::Options options;
  options.queueCapacity = 4;
  options.overflow = util::OverflowPolicy::Block;
  options.degradeHighWater = 3;
  NotificationBus bus(options);
  auto q = bus.subscribe("s1", "ana");

  // 10 publishes into a capacity-4 Block queue with nobody consuming: if any
  // push blocked, this loop would hang the test.
  for (std::size_t i = 1; i <= 10; ++i) bus.publish("s1", {note("ana", i)});
  EXPECT_EQ(bus.downgrades(), 1u);
  EXPECT_GE(bus.coalesced(), 6u);
  EXPECT_LE(q->size(), 4u);
}

TEST(NotificationBus, HighWaterMarkIsClampedBelowCapacity) {
  // hwm >= capacity would leave no room for the resync marker; the bus
  // clamps it so the marker always fits.
  NotificationBus::Options options;
  options.queueCapacity = 2;
  options.degradeHighWater = 99;
  NotificationBus bus(options);
  auto q = bus.subscribe("s1", "ana");

  bus.publish("s1", {note("ana", 1)});   // size 1 == capacity-1: downgrade
  bus.publish("s1", {note("ana", 2)});   // coalesced
  EXPECT_EQ(bus.downgrades(), 1u);
  EXPECT_EQ(q->size(), 2u);  // event + marker, nothing dropped
  EXPECT_EQ(bus.dropped(), 0u);
}

TEST(NotificationBus, DegradationIsPerSubscriber) {
  NotificationBus::Options options;
  options.queueCapacity = 8;
  options.degradeHighWater = 2;
  NotificationBus bus(options);
  auto slow = bus.subscribe("s1", "ana");
  auto fast = bus.subscribe("s1", "ben");

  for (std::size_t i = 1; i <= 5; ++i) {
    bus.publish("s1", {note("ana", i)});  // ana's queue fills, nobody drains
    bus.publish("s1", {note("ben", i)});
    while (fast->tryPop()) {  // ben consumes eagerly, stays healthy
    }
  }
  EXPECT_EQ(bus.downgrades(), 1u);  // only ana
}

}  // namespace
}  // namespace adpm::service
