// Asynchronous notification bus.
//
// The NotificationManager computes, per applied operation, the fan-out of
// notifications each designer should receive (paper §2.2).  In the
// sequential TeamSim loop that fan-out is consumed synchronously; the
// service makes it truly asynchronous: each (session, designer) subscriber
// owns a bounded MPSC queue, session strands publish into it, and consumers
// drain at their own pace.  Overflow behaviour is the subscriber's choice
// (Block = backpressure the session, DropOldest = prefer fresh events) and
// every drop is counted — losing guidance silently is exactly the failure
// mode the paper's NM exists to prevent.
//
// Degraded mode: overload should not get to choose between blocking the
// producing strand (Block) and silently shedding events (DropOldest).  With
// `degradeHighWater` set, a subscriber whose queue depth reaches the
// high-water mark is switched to *coalesced* delivery: one ResyncRequired
// notification is enqueued and subsequent events are counted (coalesced())
// instead of pushed, so the strand never parks and the consumer learns its
// stream is incomplete.  When the consumer drains the queue back to the
// low-water mark, per-event delivery resumes — the downgrade/resume cycle is
// counted, never silent.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dpm/notification.hpp"
#include "util/mpsc_queue.hpp"
#include "util/thread_annotations.hpp"

namespace adpm::service {

class NotificationBus {
 public:
  using Queue = util::BoundedMpscQueue<dpm::Notification>;

  struct Options {
    std::size_t queueCapacity = 256;
    util::OverflowPolicy overflow = util::OverflowPolicy::DropOldest;
    /// Queue depth at which a subscriber is downgraded to coalesced
    /// ResyncRequired delivery (0 = degraded mode off).  Clamped to below
    /// the queue capacity so the resync marker itself always fits.
    std::size_t degradeHighWater = 0;
    /// Queue depth at or below which a degraded subscriber resumes
    /// per-event delivery (0 = degradeHighWater / 2).
    std::size_t resumeLowWater = 0;
  };

  NotificationBus() : NotificationBus(Options{}) {}
  explicit NotificationBus(Options options) : options_(options) {}

  /// Called by publish(), outside the bus lock, once the whole batch is
  /// routed, for each subscriber it enqueued at least one item for — lets a
  /// consumer that only tryPop()s sleep until there is something to pop.
  using Wake = std::function<void()>;

  /// Subscribes to one designer's notifications within one session.  The
  /// returned queue lives as long as the caller holds it; multiple
  /// subscribers per (session, designer) each get every notification.
  /// Per-subscription capacity/policy overrides fall back to the bus
  /// defaults when not given.
  std::shared_ptr<Queue> subscribe(const std::string& sessionId,
                                   const std::string& designer,
                                   Wake wake = {});
  std::shared_ptr<Queue> subscribe(const std::string& sessionId,
                                   const std::string& designer,
                                   std::size_t capacity,
                                   util::OverflowPolicy overflow,
                                   Wake wake = {});

  /// Publishes one operation's fan-out, routing each notification to the
  /// subscribers of (sessionId, notification.designer).  Notifications for
  /// designers with no subscriber are counted as unrouted, not an error —
  /// a service client may only care about one seat at the table.
  void publish(const std::string& sessionId,
               const std::vector<dpm::Notification>& batch);

  /// Closes every queue of a session (wakes blocked producers/consumers)
  /// and forgets its subscriptions.
  void closeSession(const std::string& sessionId);
  /// Closes everything.
  void closeAll();

  // -- counters (monotonic, service lifetime) --------------------------------
  std::size_t published() const;  ///< notifications entering the bus
  std::size_t delivered() const;  ///< accepted into some subscriber queue
  std::size_t unrouted() const;   ///< no subscriber for (session, designer)
  /// Total DropOldest evictions across all queues ever subscribed.
  std::size_t dropped() const;
  /// Subscriber downgrades into coalesced (degraded) delivery.
  std::size_t downgrades() const;
  /// Notifications absorbed into a pending resync instead of enqueued.
  std::size_t coalesced() const;
  /// Notifications/batches suppressed by armed bus.publish/bus.enqueue
  /// failpoints (fault-injection builds only).
  std::size_t injectedFailures() const;

  /// Point-in-time view of one live subscriber, for the wire Status frame
  /// and the bench recorder: queue pressure plus the per-subscriber
  /// degraded-delivery history (the bus-wide downgrades()/coalesced()
  /// counters, attributed).
  struct SubscriberStats {
    std::string sessionId;
    std::string designer;
    std::size_t queueDepth = 0;
    std::size_t queueCapacity = 0;
    std::size_t dropped = 0;     ///< DropOldest evictions on this queue
    bool degraded = false;       ///< currently in coalesced delivery
    std::size_t downgrades = 0;  ///< times this subscriber was downgraded
    std::size_t coalesced = 0;   ///< events absorbed into its resync markers
  };

  /// One entry per live subscription, in subscribe order within a session.
  std::vector<SubscriberStats> subscriberStats() const;

 private:
  /// Mutable per-subscriber state shared between publish() (which works on
  /// a snapshot of the subscription list, outside the bus lock) and the
  /// registry.  `degraded` is only flipped by publishers, which are
  /// serialized per session by the session's strand.
  struct SubscriberState {
    std::atomic<bool> degraded{false};
    /// Per-subscriber attribution of the bus-wide degraded-mode counters
    /// (relaxed: written by the per-session publisher strand, read by
    /// subscriberStats()).
    std::atomic<std::size_t> downgrades{0};
    std::atomic<std::size_t> coalesced{0};
  };

  struct Subscription {
    std::string designer;
    std::shared_ptr<Queue> queue;
    std::shared_ptr<SubscriberState> state;
    Wake wake;
  };

  Options options_;
  mutable util::Mutex mutex_;
  std::map<std::string, std::vector<Subscription>> bySession_
      ADPM_GUARDED_BY(mutex_);
  /// Drop counts of queues already closed/forgotten, so dropped() never
  /// goes backwards when a session closes.
  std::size_t retiredDropped_ ADPM_GUARDED_BY(mutex_) = 0;
  std::size_t published_ ADPM_GUARDED_BY(mutex_) = 0;
  std::size_t delivered_ ADPM_GUARDED_BY(mutex_) = 0;
  std::size_t unrouted_ ADPM_GUARDED_BY(mutex_) = 0;
  std::size_t downgrades_ ADPM_GUARDED_BY(mutex_) = 0;
  std::size_t coalesced_ ADPM_GUARDED_BY(mutex_) = 0;
  std::size_t injectedFailures_ ADPM_GUARDED_BY(mutex_) = 0;
};

}  // namespace adpm::service
