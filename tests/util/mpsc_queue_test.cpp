#include "util/mpsc_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace adpm::util {
namespace {

TEST(BoundedMpscQueue, FifoOrder) {
  BoundedMpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.tryPop(), i);
  EXPECT_EQ(q.tryPop(), std::nullopt);
}

TEST(BoundedMpscQueue, DropOldestEvictsFrontAndCounts) {
  BoundedMpscQueue<int> q(3);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.dropped(), 2u);  // 0 and 1 evicted
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.tryPop(), 2);
  EXPECT_EQ(q.tryPop(), 3);
  EXPECT_EQ(q.tryPop(), 4);
}

TEST(BoundedMpscQueue, ZeroCapacityClampsToOne) {
  BoundedMpscQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.dropped(), 1u);
}

TEST(BoundedMpscQueue, CloseRefusesPushAndKeepsQueuedItems) {
  BoundedMpscQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(2));  // refused, not counted as dropped
  EXPECT_EQ(q.dropped(), 0u);
  // Queued items stay poppable after close.
  EXPECT_EQ(q.tryPop(), 1);
  EXPECT_EQ(q.tryPop(), std::nullopt);
}

TEST(BoundedMpscQueue, ManyProducersOneConsumer) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  constexpr int kTotal = kProducers * kPerProducer;
  // Room for every item: the consumer polls concurrently, but nothing makes
  // producers wait for it, so a smaller queue could legitimately evict.
  BoundedMpscQueue<int> q(kTotal);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> seen;
  while (seen.size() < static_cast<std::size_t>(kTotal)) {
    if (const std::optional<int> item = q.tryPop()) {
      seen.push_back(*item);
    } else {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(q.tryPop(), std::nullopt);
  EXPECT_EQ(q.dropped(), 0u);
  // Per-producer subsequences stay in FIFO order.
  std::vector<int> last(kProducers, -1);
  for (const int item : seen) {
    const int p = item / kPerProducer;
    EXPECT_LT(last[p], item);
    last[p] = item;
  }
}

// Concurrent eviction accounting: with P producers pushing a known total
// into a small queue, every push succeeds (a push at capacity evicts, never
// refuses) and each evicted item is counted exactly once — so items drained
// by the consumer plus dropped() must equal the total, with no
// double-counting and no silent loss.  Runs under TSan in CI.
TEST(BoundedMpscQueue, DropOldestManyProducersExactDropAccounting) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  constexpr int kTotal = kProducers * kPerProducer;
  BoundedMpscQueue<int> q(8);

  std::atomic<int> started{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Rendezvous so the producers genuinely contend.
      started.fetch_add(1);
      while (started.load() < kProducers) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));  // never refused
      }
    });
  }
  for (std::thread& t : producers) t.join();

  // All producers done: drain what survived.
  std::vector<bool> seen(kTotal, false);
  std::size_t delivered = 0;
  while (std::optional<int> item = q.tryPop()) {
    ASSERT_GE(*item, 0);
    ASSERT_LT(*item, kTotal);
    ASSERT_FALSE(seen[*item]) << "item " << *item << " delivered twice";
    seen[*item] = true;
    ++delivered;
  }
  ASSERT_LE(delivered, q.capacity());
  // Exactness: delivered ∪ dropped partitions the pushes.
  EXPECT_EQ(delivered + q.dropped(), static_cast<std::size_t>(kTotal));
}

}  // namespace
}  // namespace adpm::util
