// Bounded, non-blocking multi-producer single-consumer queue.
//
// The notification bus delivers NotificationManager fan-out to per-designer
// subscribers through these queues.  Producers are the session strands (any
// pool thread); the consumer is whoever holds the subscription and polls it
// with tryPop() — the reactor, a load driver, a test.  Nothing ever waits
// on the queue: push and tryPop return immediately.
//
// The queue is bounded.  A push at capacity evicts the oldest item and
// counts it in dropped(), but that is a guard, not a delivery policy: the
// bus degrades a subscriber to a coalesced ResyncRequired marker before its
// queue can fill (service/bus.hpp), so dropped() stays 0 in normal
// operation and a non-zero value means the bus invariant broke.
//
// A plain mutex implementation: notification batches are tiny compared to
// the DCM work producing them, so contention is negligible, and the lock
// gives TSan-clean happens-before edges for free.  The annotated primitives
// (util/thread_annotations.hpp) make the "everything mutable is under the
// lock" rule compiler-checked under Clang.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "util/thread_annotations.hpp"

namespace adpm::util {

template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Enqueues one item.  Returns false only when the queue is closed (the
  /// item is discarded, not counted as dropped).  At capacity the front
  /// item is evicted and counted in dropped().
  bool push(T item) {
    LockGuard lock(mutex_);
    if (closed_) return false;
    if (items_.size() >= capacity_) {
      items_.pop_front();
      ++dropped_;
    }
    items_.push_back(std::move(item));
    return true;
  }

  /// The front item, or nullopt when the queue is empty.
  std::optional<T> tryPop() {
    LockGuard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Refuses further pushes; queued items remain poppable.
  void close() {
    LockGuard lock(mutex_);
    closed_ = true;
  }

  bool closed() const {
    LockGuard lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    LockGuard lock(mutex_);
    return items_.size();
  }

  /// Items evicted by a push at capacity since construction.
  std::size_t dropped() const {
    LockGuard lock(mutex_);
    return dropped_;
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  std::deque<T> items_ ADPM_GUARDED_BY(mutex_);
  std::size_t dropped_ ADPM_GUARDED_BY(mutex_) = 0;
  bool closed_ ADPM_GUARDED_BY(mutex_) = false;
};

}  // namespace adpm::util
