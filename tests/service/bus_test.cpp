#include "service/bus.hpp"

#include <gtest/gtest.h>

#include <optional>
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
  // The bus itself never fills a queue, but the queue's capacity guard still
  // evicts the oldest item on overflow; the bus reports every such eviction.
  // Here a second producer pushes into the subscriber queue directly.
  constexpr std::size_t kCap = NotificationBus::kQueueCapacity;
  NotificationBus bus;
  auto q = bus.subscribe("s1", "ana");
  for (std::size_t i = 0; i < kCap + 3; ++i) q->push(note("ana", i));
  EXPECT_EQ(bus.dropped(), 3u);
  EXPECT_EQ(q->size(), kCap);
  EXPECT_EQ(q->tryPop()->stage, 3u);  // oldest survivors
  EXPECT_EQ(q->tryPop()->stage, 4u);

  // Closing the session retires the queue without losing the count.
  bus.closeSession("s1");
  EXPECT_EQ(bus.dropped(), 3u);
}

TEST(NotificationBus, CloseSessionUnblocksPublisherAndClosesQueues) {
  NotificationBus bus;
  auto q = bus.subscribe("s1", "ana");
  bus.publish("s1", {note("ana", 1)});

  // A publisher racing closeSession never waits on the queue: its pushes
  // either land before the close or are refused after it, neither delivered
  // twice nor counted as dropped.
  std::thread producer([&bus] {
    for (std::size_t i = 2; i <= 2 * NotificationBus::kQueueCapacity; ++i) {
      bus.publish("s1", {note("ana", i)});
    }
  });
  bus.closeSession("s1");
  producer.join();
  EXPECT_TRUE(q->closed());
  EXPECT_EQ(bus.dropped(), 0u);
  // The pre-close item stays poppable, first.
  EXPECT_EQ(q->tryPop()->stage, 1u);
  while (q->tryPop()) {
  }
  bus.publish("s1", {note("ana", 0)});  // session forgotten: unrouted
  EXPECT_EQ(q->tryPop(), std::nullopt);
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
  constexpr std::size_t kHigh = NotificationBus::kHighWater;
  NotificationBus bus;
  auto q = bus.subscribe("s1", "ana");

  // Fill to the high-water mark: normal delivery.
  for (std::size_t i = 1; i <= kHigh; ++i) bus.publish("s1", {note("ana", i)});
  EXPECT_EQ(bus.downgrades(), 0u);
  EXPECT_EQ(q->size(), kHigh);

  // Depth has reached the mark: the next publish downgrades the subscriber —
  // one ResyncRequired marker is enqueued instead of the event.
  bus.publish("s1", {note("ana", kHigh + 1)});
  EXPECT_EQ(bus.downgrades(), 1u);
  EXPECT_EQ(bus.coalesced(), 1u);
  EXPECT_EQ(q->size(), NotificationBus::kQueueCapacity);

  // While degraded, further events coalesce into the pending marker.
  bus.publish("s1", {note("ana", kHigh + 2), note("ana", kHigh + 3)});
  EXPECT_EQ(bus.downgrades(), 1u);
  EXPECT_EQ(bus.coalesced(), 3u);
  EXPECT_EQ(q->size(), NotificationBus::kQueueCapacity);
  EXPECT_EQ(bus.dropped(), 0u);  // degraded != silent shedding

  // The consumer sees the per-event prefix, then the marker.
  for (std::size_t i = 1; i <= kHigh; ++i) EXPECT_EQ(q->tryPop()->stage, i);
  const auto marker = q->tryPop();
  ASSERT_TRUE(marker.has_value());
  EXPECT_EQ(marker->kind, dpm::NotificationKind::ResyncRequired);
  EXPECT_EQ(marker->stage, kHigh + 1);
  EXPECT_EQ(q->tryPop(), std::nullopt);
}

TEST(NotificationBus, ResumesPerEventDeliveryAtLowWater) {
  constexpr std::size_t kHigh = NotificationBus::kHighWater;
  constexpr std::size_t kLow = NotificationBus::kLowWater;
  NotificationBus bus;
  auto q = bus.subscribe("s1", "ana");

  for (std::size_t i = 1; i <= kHigh + 1; ++i) {
    bus.publish("s1", {note("ana", i)});  // the last one downgrades
  }
  EXPECT_EQ(bus.downgrades(), 1u);
  EXPECT_EQ(q->size(), NotificationBus::kQueueCapacity);

  // Drained to one above the low-water mark: still coalescing.
  while (q->size() > kLow + 1) q->tryPop();
  bus.publish("s1", {note("ana", kHigh + 2)});
  EXPECT_EQ(bus.coalesced(), 2u);
  EXPECT_EQ(q->size(), kLow + 1);

  // At the low-water mark, the next publish resumes per-event delivery.
  q->tryPop();
  bus.publish("s1", {note("ana", kHigh + 3)});
  EXPECT_EQ(bus.downgrades(), 1u);  // no second downgrade
  EXPECT_EQ(bus.coalesced(), 2u);
  EXPECT_EQ(q->size(), kLow + 1);
  std::optional<dpm::Notification> resumed;
  while (auto n = q->tryPop()) resumed = std::move(n);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->kind, dpm::NotificationKind::ViolationDetected);
  EXPECT_EQ(resumed->stage, kHigh + 3);
}

TEST(NotificationBus, DegradedModeNeverBlocksThePublisher) {
  // One batch larger than the queue: degradation is decided per event, so
  // the marker lands mid-batch and the rest of the batch coalesces — the
  // publisher returns with nothing evicted.
  constexpr std::size_t kBatch = 2 * NotificationBus::kQueueCapacity + 1;
  NotificationBus bus;
  auto q = bus.subscribe("s1", "ana");

  std::vector<dpm::Notification> batch;
  for (std::size_t i = 1; i <= kBatch; ++i) batch.push_back(note("ana", i));
  bus.publish("s1", batch);
  EXPECT_EQ(bus.downgrades(), 1u);
  EXPECT_EQ(bus.coalesced(), kBatch - NotificationBus::kHighWater);
  EXPECT_EQ(bus.delivered(), NotificationBus::kQueueCapacity);
  EXPECT_EQ(q->size(), NotificationBus::kQueueCapacity);
  EXPECT_EQ(bus.dropped(), 0u);
}

TEST(NotificationBus, UndrainedSubscriberDegradesOnceAndNeverEvicts) {
  // A subscriber nobody drains: the bus downgrades it once, before its queue
  // is full, so the capacity guard never evicts and the stream ends in a
  // ResyncRequired marker instead of silently losing its head.
  constexpr std::size_t kEvents = 10 * NotificationBus::kQueueCapacity;
  NotificationBus bus;
  auto q = bus.subscribe("s1", "ana");
  for (std::size_t i = 1; i <= kEvents; ++i) {
    bus.publish("s1", {note("ana", i)});
  }
  EXPECT_LE(q->size(), q->capacity());
  EXPECT_EQ(q->capacity(), NotificationBus::kQueueCapacity);
  EXPECT_EQ(q->dropped(), 0u);
  EXPECT_EQ(bus.dropped(), 0u);
  EXPECT_EQ(bus.downgrades(), 1u);
  EXPECT_EQ(bus.coalesced(), kEvents - NotificationBus::kHighWater);

  std::optional<dpm::Notification> last;
  while (auto n = q->tryPop()) last = std::move(n);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->kind, dpm::NotificationKind::ResyncRequired);

  // Closing the session retires the queue without losing the count.
  bus.closeSession("s1");
  EXPECT_EQ(bus.dropped(), 0u);
}

TEST(NotificationBus, HighWaterMarkIsClampedBelowCapacity) {
  // A high-water mark at capacity would leave no room for the resync
  // marker; it sits one below, so the marker always fits.
  static_assert(NotificationBus::kHighWater < NotificationBus::kQueueCapacity);
  NotificationBus bus;
  auto q = bus.subscribe("s1", "ana");
  for (std::size_t i = 1; i <= NotificationBus::kHighWater; ++i) {
    bus.publish("s1", {note("ana", i)});
  }
  EXPECT_EQ(bus.downgrades(), 0u);

  bus.publish("s1", {note("ana", 0)});  // depth == capacity-1: downgrade
  bus.publish("s1", {note("ana", 0)});  // coalesced
  EXPECT_EQ(bus.downgrades(), 1u);
  EXPECT_EQ(q->size(), NotificationBus::kQueueCapacity);  // events + marker
  EXPECT_EQ(bus.dropped(), 0u);
}

TEST(NotificationBus, DegradationIsPerSubscriber) {
  NotificationBus bus;
  auto slow = bus.subscribe("s1", "ana");
  auto fast = bus.subscribe("s1", "ben");

  for (std::size_t i = 1; i <= NotificationBus::kQueueCapacity + 5; ++i) {
    bus.publish("s1", {note("ana", i)});  // ana's queue fills, nobody drains
    bus.publish("s1", {note("ben", i)});
    while (fast->tryPop()) {  // ben consumes eagerly, stays healthy
    }
  }
  EXPECT_EQ(bus.downgrades(), 1u);  // only ana
}

}  // namespace
}  // namespace adpm::service
