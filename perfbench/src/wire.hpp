// The wire load shared by the wire workloads and by the wire probe of the
// other workloads' traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dpm/manager.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "util/json.hpp"

namespace perfbench {

struct WirePlan {
  std::uint64_t seed = 1;
  bool trace = false;
  bool injectDigestMismatch = false;
  unsigned serverThreads = 2;
  /// Journal sessions (segments and checkpoints as in WalSettings).  Off
  /// beside churn: each Open would write its 450 KB scenario to the WAL, and
  /// the disk writeback then swamps the reactor stall being measured.
  bool wal = true;
  std::size_t sensingConnections = 2;
  std::size_t sessionsPerConnection = 0;
  /// Least Open/Snapshot/Close cycles of the churn connection (0 = no
  /// churn connection); it goes on while sensing connections run.
  std::size_t churnCycles = 0;
  /// Pause between churn cycles: 0 except in the smoke configuration, whose
  /// tiny Opens would otherwise overlap nearly every Apply.
  std::chrono::milliseconds churnPause{0};
  std::string largePreset;
  /// Set-ups timed for setup_s (the median); a probe needs only one.
  int setupRepeats = kSetupRepeats;
  // Filled in by set-up:
  std::uint16_t port = 0;
  std::string sensingDddl;
  std::string largeDddl;
  std::string largeCanonical;
  std::string largeDigest;
};

struct WireResult {
  double setupS = 0.0;
  double wallS = 0.0;  ///< until the last sensing connection finished
  double cpuS = 0.0;   ///< load process + server over the whole timed phase
  double serverPeakRssMiB = 0.0;
  std::size_t serverThreadsMax = 0;
  std::size_t ops = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t reconnects = 0;
  std::size_t transientRetries = 0;
  std::vector<double> rttMs;
  std::vector<double> rttDuringOpenMs;
  std::vector<double> rttOutsideOpenMs;
  std::vector<double> openMs;
  std::vector<double> tracedOpMs;
  std::vector<double> untracedOpMs;
  OpTimings timings;
  std::vector<adpm::dpm::ManagerState> states;
  adpm::util::json::Value status;  ///< the server's Status document
};

/// The plan for wire-sensing (churn = false) or wire-open-churn.
WirePlan wirePlan(const Config& config, bool churn);

/// Set-up (setupRepeats times; the last server serves), the timed closed
/// loops, the digest gates, then a graceful server stop.  Throws
/// CorrectnessError on any digest mismatch.
WireResult driveWire(const Config& config, WirePlan plan, Tracer& tracer);

/// service.retries/timeouts and bus.* (from the Status frame),
/// net.server_threads, reconnects, transient retries and the Apply RTT p50.
void reportWireLayers(const WireResult& result, Report& out);

/// The Apply round trip split by whether a churn connection's Open of the
/// large scenario was in flight (wire-open-churn plans only).
void reportOpenSplit(const WireResult& result, Report& out);

}  // namespace perfbench
