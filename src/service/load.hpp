// Load generator: TeamSim's simulated designers as concurrent clients of the
// session service.
//
// Mounts N copies of a scenario as live sessions and drives each one with a
// TeamClient (one SimulatedDesigner per seat, per-session seed stream).
// Each applied operation chains the next one onto the session's strand, so
// a session's process serializes while the fleet of sessions saturates the
// executor — the workload the service_bench measures (ops/sec, sessions/sec)
// and the TSan concurrency tests run for races.
#pragma once

#include <cstddef>
#include <string>

#include "dpm/scenario.hpp"
#include "service/store.hpp"
#include "teamsim/options.hpp"

namespace adpm::service {

struct LoadOptions {
  /// Concurrent sessions to mount.
  std::size_t sessions = 8;
  /// Per-designer simulation knobs; session i runs with seed sim.seed + i.
  teamsim::SimulationOptions sim{};
  /// Runaway guard per session.
  std::size_t maxOperationsPerSession = 20000;
  /// Attach a notification subscriber per (session, designer) seat.  The
  /// seats are never drained, so a long session degrades each of them to
  /// one ResyncRequired marker (NotificationBus::kHighWater).
  bool subscribe = true;
  /// Session id prefix ("<prefix><i>").
  std::string idPrefix = "load-";
};

struct LoadReport {
  std::size_t sessions = 0;
  std::size_t completedSessions = 0;  ///< designComplete at idle
  std::size_t operations = 0;
  std::size_t evaluations = 0;
  std::size_t notificationsPublished = 0;
  std::size_t notificationsDelivered = 0;
  std::size_t notificationsDropped = 0;
  double wallSeconds = 0.0;
  double opsPerSecond = 0.0;
  double sessionsPerSecond = 0.0;
};

/// Opens `options.sessions` sessions of `spec` in the store and drives them
/// all to completion (or the per-session cap).  Blocks until the fleet is
/// idle.  Session ids are "<prefix>0".."<prefix>N-1" and stay open after
/// the run (snapshot/replay them as needed); the caller owns the store.
LoadReport runLoad(SessionStore& store, const dpm::ScenarioSpec& spec,
                   const LoadOptions& options);

}  // namespace adpm::service
