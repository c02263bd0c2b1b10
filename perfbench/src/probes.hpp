// Layer probes for the traced run: each times one library layer on inputs
// recorded from (or derived like) the workload, so every traced run reports
// the same per-layer metrics whatever its workload exercises live.
#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "dpm/manager.hpp"
#include "dpm/scenario.hpp"
#include "service/store.hpp"
#include "teamsim/options.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Per-op hand timings every live loop takes (traced or not).
struct OpTimings {
  std::vector<double> proposeUs;
  std::vector<double> executeMs;
  std::size_t evaluations = 0;  ///< OperationRecord::evaluations, summed
};

/// Drives one TeamSim session in-process (TeamClient::propose, then
/// DesignProcessManager::execute) until it completes, idles or reaches
/// sim.maxOperations; returns the operations.  Optionally times each op
/// and samples the manager state every third op.
std::vector<adpm::dpm::Operation> driveTeam(
    const adpm::dpm::ScenarioSpec& spec,
    const adpm::teamsim::SimulationOptions& sim, OpTimings* timings,
    std::vector<adpm::dpm::ManagerState>* states);

/// Manager states sampled from a live λ=T session, with what rebuilds them.
struct EngineSample {
  adpm::dpm::ScenarioSpec spec;
  adpm::dpm::DesignProcessManager::Options options;
  std::vector<adpm::dpm::ManagerState> states;
};

/// teamsim.propose_p50_us, dpm.execute_p50_ms/p90_ms, dpm.evals_per_op.
void reportOpTimings(const OpTimings& timings, Report& out);

/// dpm.export_ms, dpm.restore_ms, constraint.*, expr.ns_per_revise:
/// restore each sampled state into a fresh manager and time one fixpoint
/// run and one mine on its network.
void runEngineProbes(const EngineSample& sample, Tracer& tracer, Report& out);

/// Service/WAL settings shared by the wire server, the restart journal and
/// the in-process probes.  A segment every 5 ops and a checkpoint every 15
/// put ~13% and ~7% of ops in those slower modes, so p50, p90 and p99 each
/// fall inside one mode rather than on a boundary between two.
struct WalSettings {
  std::size_t segmentOps = 5;
  std::size_t checkpointEvery = 15;
  std::size_t checkpointKeep = 2;
};

/// Sensing sessions stop here: cuts the heavy tail of session lengths
/// (most complete in 23-35 ops, a few run past 100).
inline constexpr std::size_t kSensingOpCap = 40;

/// The sensing op streams wire-sensing drives, recorded in-process: the
/// DDDL text sent with Open and, per session, the operations proposed.
struct SensingStreams {
  std::string dddl;
  std::vector<std::vector<adpm::dpm::Operation>> sessions;
};
SensingStreams recordSensingStreams(std::uint64_t seed, std::size_t sessions);

/// Every designer that owns a problem: the seats a session subscribes.
std::set<std::string> designerSeats(const adpm::dpm::ScenarioSpec& spec);

/// Session seed of sensing session `index` of connection `conn`.
std::uint64_t sensingSessionSeed(std::uint64_t seed, std::size_t conn,
                                 std::size_t index);

/// Recovery accounting of one SessionStore::recover().
struct RecoverCounts {
  std::size_t sessions = 0;
  std::size_t opsReplayed = 0;
  std::size_t segmentsReplayed = 0;
  std::size_t checkpointsUsed = 0;
  std::size_t checkpointFallbacks = 0;
};
/// Counts what the store's most recent recover() of `ids` replayed.
RecoverCounts countRecovery(adpm::service::SessionStore& store,
                            const std::vector<std::string>& ids);
void reportRecoverCounts(const RecoverCounts& counts, Report& out);

/// service.apply_p50_us/p99_us, util.strand_wait_p50_us/p99_us,
/// wal.append_p50_us,
/// wal.checkpoint_ms, wal.bytes_per_op; returns the recovery accounting of
/// re-opening the probe's WAL directory (the caller decides whether to
/// report it).  Replays `streams` through an in-process SessionStore.
RecoverCounts runServiceProbes(const SensingStreams& streams,
                               const WalSettings& wal, const std::string& dir,
                               Tracer& tracer, Report& out);

/// gen.generate_ms, dddl.parse_ms/write_ms, util.json_*, net.frame_*,
/// net.bytes_per_apply, net.open_bytes on the Open payload of `largePreset`
/// and the Apply payloads of `streams`.
void runCodecProbes(const SensingStreams& streams,
                    const std::string& largePreset, std::uint64_t seed,
                    Tracer& tracer, Report& out);

/// Self time per layer from the tracer's spans, as human-readable lines.
std::string layerSelfTimes(const Tracer& tracer);

}  // namespace perfbench
