#include "service/bus.hpp"

#include <utility>

#include "util/fault.hpp"

namespace adpm::service {

std::shared_ptr<NotificationBus::Queue> NotificationBus::subscribe(
    const std::string& sessionId, const std::string& designer, Wake wake) {
  auto queue = std::make_shared<Queue>(kQueueCapacity);
  util::LockGuard lock(mutex_);
  bySession_[sessionId].push_back(Subscription{
      designer, queue, std::make_shared<SubscriberState>(), std::move(wake)});
  return queue;
}

void NotificationBus::publish(const std::string& sessionId,
                              const std::vector<dpm::Notification>& batch) {
  if (batch.empty()) return;

  if (ADPM_FAULT_POINT("bus.publish") != util::FaultAction::None) {
    // A lossy bus, not a failed operation: the session applied and
    // journaled the op, only its fan-out evaporates (counted, not thrown —
    // throwing here would fail an apply whose state change already exists).
    util::LockGuard lock(mutex_);
    injectedFailures_ += batch.size();
    return;
  }

  // Snapshot the subscriptions, then push and wake outside the bus lock:
  // a wake takes its consumer's locks, and one session's publish must not
  // hold up subscribe()/closeSession() on other sessions.
  std::vector<Subscription> targets;
  {
    util::LockGuard lock(mutex_);
    published_ += batch.size();
    const auto it = bySession_.find(sessionId);
    if (it != bySession_.end()) targets = it->second;
  }

  std::size_t delivered = 0;
  std::size_t unrouted = 0;
  std::size_t downgrades = 0;
  std::size_t coalesced = 0;
  std::size_t injected = 0;
  std::vector<bool> enqueued(targets.size(), false);
  for (const dpm::Notification& n : batch) {
    bool routed = false;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const Subscription& sub = targets[i];
      if (sub.designer != n.designer) continue;
      if (sub.state->degraded.load(std::memory_order_relaxed)) {
        if (sub.queue->size() <= kLowWater) {
          // Consumer caught up: resume per-event delivery.
          sub.state->degraded.store(false, std::memory_order_relaxed);
        } else {
          // Still saturated: this event is covered by the pending
          // ResyncRequired marker already in the queue.
          routed = true;
          ++coalesced;
          sub.state->coalesced.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      } else if (sub.queue->size() >= kHighWater) {
        // Saturation: downgrade to coalesced delivery.  One resync marker
        // replaces the stream until the consumer drains; the producing
        // strand neither waits nor sheds silently.
        sub.state->degraded.store(true, std::memory_order_relaxed);
        ++downgrades;
        sub.state->downgrades.fetch_add(1, std::memory_order_relaxed);
        dpm::Notification resync;
        resync.kind = dpm::NotificationKind::ResyncRequired;
        resync.designer = n.designer;
        resync.stage = n.stage;
        resync.text = "subscriber queue saturated; refetch a session snapshot";
        if (sub.queue->push(std::move(resync))) {
          ++delivered;
          enqueued[i] = true;
        }
        routed = true;
        ++coalesced;
        sub.state->coalesced.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (ADPM_FAULT_POINT("bus.enqueue") != util::FaultAction::None) {
        ++injected;  // this subscriber misses this event; counted
        continue;
      }
      if (sub.queue->push(n)) {
        routed = true;
        ++delivered;
        enqueued[i] = true;
      }
    }
    if (!routed) ++unrouted;
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (enqueued[i] && targets[i].wake) targets[i].wake();
  }
  {
    util::LockGuard lock(mutex_);
    delivered_ += delivered;
    unrouted_ += unrouted;
    downgrades_ += downgrades;
    coalesced_ += coalesced;
    injectedFailures_ += injected;
  }
}

void NotificationBus::closeSession(const std::string& sessionId) {
  std::vector<Subscription> victims;
  {
    util::LockGuard lock(mutex_);
    const auto it = bySession_.find(sessionId);
    if (it == bySession_.end()) return;
    victims = std::move(it->second);
    bySession_.erase(it);
  }
  std::size_t dropped = 0;
  for (const Subscription& sub : victims) {
    sub.queue->close();
    dropped += sub.queue->dropped();
  }
  util::LockGuard lock(mutex_);
  retiredDropped_ += dropped;
}

void NotificationBus::closeAll() {
  std::vector<std::string> ids;
  {
    util::LockGuard lock(mutex_);
    for (const auto& [id, subs] : bySession_) ids.push_back(id);
  }
  for (const std::string& id : ids) closeSession(id);
}

std::size_t NotificationBus::published() const {
  util::LockGuard lock(mutex_);
  return published_;
}

std::size_t NotificationBus::delivered() const {
  util::LockGuard lock(mutex_);
  return delivered_;
}

std::size_t NotificationBus::unrouted() const {
  util::LockGuard lock(mutex_);
  return unrouted_;
}

std::size_t NotificationBus::dropped() const {
  util::LockGuard lock(mutex_);
  std::size_t total = retiredDropped_;
  for (const auto& [id, subs] : bySession_) {
    for (const Subscription& sub : subs) total += sub.queue->dropped();
  }
  return total;
}

std::size_t NotificationBus::downgrades() const {
  util::LockGuard lock(mutex_);
  return downgrades_;
}

std::size_t NotificationBus::coalesced() const {
  util::LockGuard lock(mutex_);
  return coalesced_;
}

std::size_t NotificationBus::injectedFailures() const {
  util::LockGuard lock(mutex_);
  return injectedFailures_;
}

std::vector<NotificationBus::SubscriberStats> NotificationBus::subscriberStats()
    const {
  std::vector<SubscriberStats> out;
  util::LockGuard lock(mutex_);
  for (const auto& [sessionId, subs] : bySession_) {
    for (const Subscription& sub : subs) {
      SubscriberStats s;
      s.sessionId = sessionId;
      s.designer = sub.designer;
      s.queueDepth = sub.queue->size();
      s.queueCapacity = sub.queue->capacity();
      s.dropped = sub.queue->dropped();
      s.degraded = sub.state->degraded.load(std::memory_order_relaxed);
      s.downgrades = sub.state->downgrades.load(std::memory_order_relaxed);
      s.coalesced = sub.state->coalesced.load(std::memory_order_relaxed);
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace adpm::service
