// Asynchronous notification bus.
//
// The NotificationManager computes, per applied operation, the fan-out of
// notifications each designer should receive (paper §2.2).  In the
// sequential TeamSim loop that fan-out is consumed synchronously; the
// service makes it truly asynchronous: each (session, designer) subscriber
// owns a bounded MPSC queue of kQueueCapacity items, session strands
// publish into it, and consumers drain at their own pace.
//
// Overload has one behaviour, degraded delivery.  A subscriber whose queue
// depth reaches kHighWater is switched to *coalesced* delivery: one
// ResyncRequired notification is enqueued and subsequent events are counted
// (coalesced()) instead of pushed, so the producing strand never waits and
// the consumer learns its stream is incomplete — losing guidance silently is
// exactly the failure mode the paper's NM exists to prevent.  When the
// consumer drains the queue back to kLowWater, per-event delivery resumes;
// the downgrade/resume cycle is counted, never silent.  Since each queue's
// publishes come from its session's strand alone and the consumer only
// shrinks the queue, the marker always fits and the queue never evicts
// (dropped() stays 0).
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

  /// Every subscriber queue's capacity.
  static constexpr std::size_t kQueueCapacity = 256;
  /// Queue depth at which a subscriber is downgraded to coalesced
  /// ResyncRequired delivery; one below capacity so the marker always fits.
  static constexpr std::size_t kHighWater = kQueueCapacity - 1;
  /// Queue depth at or below which a degraded subscriber resumes per-event
  /// delivery.
  static constexpr std::size_t kLowWater = kHighWater / 2;

  /// Called by publish(), outside the bus lock, once the whole batch is
  /// routed, for each subscriber it enqueued at least one item for — lets a
  /// consumer that only tryPop()s sleep until there is something to pop.
  using Wake = std::function<void()>;

  /// Subscribes to one designer's notifications within one session.  The
  /// returned queue lives as long as the caller holds it; multiple
  /// subscribers per (session, designer) each get every notification.
  std::shared_ptr<Queue> subscribe(const std::string& sessionId,
                                   const std::string& designer,
                                   Wake wake = {});

  /// Publishes one operation's fan-out, routing each notification to the
  /// subscribers of (sessionId, notification.designer).  Notifications for
  /// designers with no subscriber are counted as unrouted, not an error —
  /// a service client may only care about one seat at the table.
  void publish(const std::string& sessionId,
               const std::vector<dpm::Notification>& batch);

  /// Closes every queue of a session and forgets its subscriptions.
  void closeSession(const std::string& sessionId);
  /// Closes everything.
  void closeAll();

  // -- counters (monotonic, service lifetime) --------------------------------
  std::size_t published() const;  ///< notifications entering the bus
  std::size_t delivered() const;  ///< accepted into some subscriber queue
  std::size_t unrouted() const;   ///< no subscriber for (session, designer)
  /// Total capacity evictions across all queues ever subscribed; 0 unless
  /// the degraded-delivery invariant broke.
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
    std::size_t dropped = 0;     ///< capacity evictions on this queue
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
