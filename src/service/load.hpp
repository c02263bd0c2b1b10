// Load driver: TeamSim's simulated designers as clients of hosted design
// sessions, in-process or over the wire.
//
// Every session is driven the same way.  The driver builds a local *shadow*
// DesignProcessManager from the spec the host instantiated, proposes each
// operation with a TeamClient against the shadow, sends it through the
// session's LoadTarget, and executes it on the shadow only once the host
// acknowledged it; notifications are drained between applies.  Because δ
// is deterministic, shadow and host walk bit-identical state trajectories,
// and the final comparison of the shadow's snapshot digest with the host's
// proves it (digestMismatches counts any divergence).
//
// Two hosts exist: a SessionStore (runLoad(store, spec, options), through
// the store's typed command API) and a net::Server reached through
// net::Client (net::wireHost, whose apply and snapshot absorb a torn
// connection by reconnecting and resyncing on the snapshot stage).
//
// Each session gets its own thread, except against a deterministic (inline)
// store: there the calling thread opens every session and then drives them
// one after another in index order, so the run — WAL bytes, failpoint
// order — is byte-stable.  This is the workload bench_service measures and
// the TSan concurrency tests run for races.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dpm/notification.hpp"
#include "dpm/operation.hpp"
#include "dpm/scenario.hpp"
#include "service/session.hpp"
#include "teamsim/options.hpp"

namespace adpm::service {

class SessionStore;

struct LoadOptions {
  /// Sessions to drive.
  std::size_t sessions = 8;
  /// Per-designer simulation knobs; session i runs with seed sim.seed + i.
  teamsim::SimulationOptions sim{};
  /// Runaway guard per session.
  std::size_t maxOperationsPerSession = 20000;
  /// Session id prefix ("<prefix><i>"); unique per host.
  std::string idPrefix = "load-";
};

struct LoadReport {
  std::size_t sessions = 0;
  std::size_t completedSessions = 0;  ///< designComplete on the shadow
  std::size_t operations = 0;         ///< applies acknowledged by the host
  std::size_t notificationsReceived = 0;
  std::size_t resyncsRequired = 0;  ///< ResyncRequired pushes (degraded mode)
  std::size_t digestMismatches = 0;
  std::size_t reconnects = 0;
  std::size_t transientRetries = 0;
  std::size_t failedSessions = 0;  ///< gave up (host or connection errors)
  /// why the first failed session gave up — one sample beats a bare count
  /// when a fleet fails far from a debugger (CI drills, chaos runs)
  std::string firstFailure;
  double wallSeconds = 0.0;
  double opsPerSecond = 0.0;
  /// Mean time for the host to acknowledge one apply.
  double applyRttMeanMicros = 0.0;
};

/// One session on its host, as the driver sees it.  Used by one thread.
class LoadTarget {
 public:
  LoadTarget() = default;
  LoadTarget(const LoadTarget&) = delete;
  LoadTarget& operator=(const LoadTarget&) = delete;
  virtual ~LoadTarget() = default;

  /// Opens session `id`; returns the spec the host instantiated (valid for
  /// the target's lifetime).
  virtual const dpm::ScenarioSpec& open(const std::string& id, bool adpm) = 0;
  /// Attaches a notification seat for `designer`.
  virtual void subscribe(const std::string& designer) = 0;
  /// Applies `op` on the host.  `stageBefore` is the shadow's stage, which
  /// tells a target whose acknowledgement was lost whether the op
  /// committed.  Returns false, without applying, once the host is
  /// shutting down.
  virtual bool apply(const dpm::Operation& op, std::size_t stageBefore) = 0;
  /// Notifications pushed since the last drain.
  virtual std::vector<dpm::Notification> drain() = 0;
  virtual SessionSnapshot snapshot() = 0;

  /// Resilience counters, kept current by the target.
  std::size_t reconnects = 0;
  std::size_t transientRetries = 0;
};

/// Where the sessions live.
struct LoadHost {
  /// Makes one session's target; called once per session.
  std::function<std::unique_ptr<LoadTarget>()> target;
  /// Drive every session on the calling thread, in index order, instead of
  /// one thread each.
  bool inlineSessions = false;
};

/// Drives `options.sessions` sessions to completion (or the per-session
/// cap) and blocks until every one is done.  Sessions stay open on the host
/// (snapshot or recover them as needed).
LoadReport runLoad(const LoadHost& host, const LoadOptions& options);

/// In-process host: sessions of `spec` in `store` (inline when the store's
/// executor is deterministic).  The caller owns the store and reads its
/// bus and snapshots for anything the report does not carry.
LoadReport runLoad(SessionStore& store, const dpm::ScenarioSpec& spec,
                   const LoadOptions& options);

}  // namespace adpm::service
