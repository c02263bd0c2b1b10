// Load driver over the wire: TeamSim designers as remote clients.
//
// The in-process load generator (service/load.hpp) drives sessions on the
// store's own strands; this driver moves the clients to the far side of a
// TCP connection.  Each session gets its own connection and its own thread:
// the thread keeps a *local shadow* DesignProcessManager — built from the
// canonical DDDL the Open response returns — proposes operations with a
// TeamClient against the shadow, sends each operation as an Apply frame,
// and executes it locally only after the server acknowledged it.  Because δ
// is deterministic, the shadow and the server session walk bit-identical
// state trajectories, and the final snapshot-digest comparison *proves* it
// (digestMismatches counts any divergence — the cross-process determinism
// check).
//
// Failure handling exercises the full resilience surface: Transient errors
// are retried inside the Client (the store's RetryPolicy, client-side); a
// ConnectionError triggers reconnect-and-resync — the server's snapshot
// stage tells the driver whether the in-flight operation committed
// (stage == local+1 → catch the shadow up) or not (stage == local → resend)
// — and ResyncRequired pushes are counted as the degraded-delivery signal
// they are.
//
// Used by the `--connect` mode of the session-service CLI (one process per
// driver for the multi-process loopback workload) and by bench_service's
// clients-over-the-wire series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/client.hpp"
#include "teamsim/options.hpp"

namespace adpm::net {

struct WireLoadOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Sessions driven by this process (one connection + thread each).
  std::size_t sessions = 4;
  /// Per-designer simulation knobs; session i runs with seed sim.seed + i.
  teamsim::SimulationOptions sim{};
  std::size_t maxOperationsPerSession = 20000;
  /// Subscribe one seat per designer and pump pushes between applies.
  bool subscribe = true;
  /// Session id prefix ("<prefix><i>") — must be unique per driver process.
  std::string idPrefix = "wire-";
  /// Scenario source: DDDL text sent with Open ('dddl'), or a server-side
  /// scenario name ('scenario') when dddl is empty.
  std::string dddl;
  std::string scenario;
  Client::Options client{};
  /// Reconnect-and-resync attempts per session before giving up.
  unsigned maxReconnects = 3;
};

struct WireLoadReport {
  std::size_t sessions = 0;
  std::size_t completedSessions = 0;  ///< designComplete on the shadow
  std::size_t operations = 0;         ///< applies acknowledged by the server
  std::size_t notificationsReceived = 0;
  std::size_t resyncsRequired = 0;  ///< ResyncRequired pushes (degraded mode)
  std::size_t digestMismatches = 0;
  std::size_t reconnects = 0;
  std::size_t transientRetries = 0;
  std::size_t failedSessions = 0;  ///< gave up (connection/protocol errors)
  /// why the first failed session gave up — one sample beats a bare count
  /// when a fleet fails far from a debugger (CI drills, chaos runs)
  std::string firstFailure;
  double wallSeconds = 0.0;
  double opsPerSecond = 0.0;
  /// Mean request/response round trip of the Apply frames.
  double applyRttMeanMicros = 0.0;
};

/// Drives `options.sessions` remote sessions to completion (or the cap).
/// Blocks until every driver thread finished.  Sessions stay open on the
/// server (snapshot/recover them as needed).
WireLoadReport runWireLoad(const WireLoadOptions& options);

}  // namespace adpm::net
