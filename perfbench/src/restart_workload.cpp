// restart-recover: set-up journals a mixed fleet through an in-process
// SessionStore (WAL segments and checkpoints on); the timed part repeats a
// full-store SessionStore::recover() of that directory in Strict mode.
//
// Conventional (λ=F) sensing sessions give long logs with many segments and
// checkpoints; λ=T zoo-small sessions make replay cost engine-heavy.  The
// only workload that reads the WAL, the checkpoints and state_io.
#include <cmath>
#include <filesystem>
#include <map>

#include "gen/generator.hpp"
#include "gen/presets.hpp"
#include "gen/registry.hpp"
#include "host.hpp"
#include "probes.hpp"
#include "service/store.hpp"
#include "stats.hpp"
#include "teamsim/client.hpp"

namespace perfbench {

namespace {

using namespace adpm;

// About --seconds of timed recoveries on the reference host.
constexpr double kRecoversPerSecond = 15.0;
constexpr std::size_t kConventionalSessions = 6;
constexpr std::size_t kAdpmSessions = 16;
/// λ=T sessions stop here, long before their first checkpoint, so each
/// recovery replays bootstrap plus two ops: a full DCM pass and mine each,
/// and nearly the same work for every seed (later ops vary several-fold).
constexpr std::size_t kAdpmOpCap = 2;
constexpr WalSettings kWal{};

struct FleetSession {
  std::string id;
  dpm::ScenarioSpec spec;
  teamsim::SimulationOptions sim;
};

/// What the journal holds for one session, taken before the restart.
struct Recorded {
  std::size_t stage = 0;
  std::size_t evaluations = 0;
  std::string digest;
  /// Network evaluation counter after each stage (index 0 = bootstrap).
  std::vector<std::size_t> evaluationsAt;
};

service::SessionStore::Options storeOptions(const std::string& walDir) {
  service::SessionStore::Options o;
  o.executor.threads = 2;
  o.walDir = walDir;
  o.session.segmentOps = kWal.segmentOps;
  o.session.checkpointEvery = kWal.checkpointEvery;
  o.session.checkpointKeep = kWal.checkpointKeep;
  o.recovery = service::RecoveryPolicy::Strict;
  return o;
}

std::vector<FleetSession> planFleet(const Config& config) {
  std::vector<FleetSession> fleet;
  const std::size_t conventional = config.smoke ? 2 : kConventionalSessions;
  const std::size_t adpm = config.smoke ? 2 : kAdpmSessions;
  const dpm::ScenarioSpec sensing = gen::scenarioByName("sensing");
  for (std::size_t i = 0; i < conventional; ++i) {
    FleetSession s{"conv-" + std::to_string(i), sensing, {}};
    s.sim.adpm = false;
    s.sim.seed = deriveSeed(config.seed, 100 + i);
    fleet.push_back(std::move(s));
  }
  // The preset's own generator seed is kept (see README): replay cost
  // differs by orders of magnitude between generated networks.
  const dpm::ScenarioSpec small =
      gen::generate(gen::zooPreset(config.smoke ? "zoo-toy" : "zoo-small"))
          .spec;
  for (std::size_t i = 0; i < adpm; ++i) {
    FleetSession s{"adpm-" + std::to_string(i), small, {}};
    s.sim.seed = deriveSeed(config.seed, 300 + i);
    s.sim.maxOperations = kAdpmOpCap;
    fleet.push_back(std::move(s));
  }
  return fleet;
}

/// Journals every fleet session to completion (sessions run in parallel on
/// the store's strands) and returns what the journal must reproduce.
std::map<std::string, Recorded> journalFleet(
    const std::vector<FleetSession>& fleet, const std::string& walDir) {
  std::map<std::string, Recorded> recorded;
  service::SessionStore store(storeOptions(walDir));
  std::vector<std::future<Recorded>> done;
  for (const FleetSession& f : fleet) {
    store.open(f.id, f.spec, f.sim.adpm);
    done.push_back(store.withSession(f.id, [&f](service::Session& session) {
      Recorded r;
      dpm::DesignProcessManager& m = session.manager();
      teamsim::TeamClient team(m, f.sim);
      r.evaluationsAt.push_back(m.network().evaluationCount());
      while (!m.designComplete() && session.stage() < f.sim.maxOperations) {
        std::optional<dpm::Operation> op = team.propose(m);
        if (!op) break;
        const auto result = session.apply(std::move(*op));
        team.observe(m, result.record);
        r.evaluationsAt.push_back(m.network().evaluationCount());
      }
      const service::SessionSnapshot snap = session.snapshot();
      r.stage = snap.stage;
      r.evaluations = snap.evaluations;
      r.digest = snap.digest;
      return r;
    }));
  }
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    recorded[fleet[i].id] = done[i].get();
  }
  return recorded;
}

/// Recovers the directory once and checks it against the recording; returns
/// the replay evaluations (sum over sessions of the evaluations charged
/// after the restored checkpoint, or after bootstrap when none was used).
std::size_t checkRecovery(service::SessionStore& store,
                          const std::vector<std::string>& ids,
                          const std::map<std::string, Recorded>& recorded,
                          bool injectMismatch) {
  namespace fs = std::filesystem;
  if (!store.recoverErrors().empty()) {
    throw CorrectnessError("recover() skipped a log: " +
                           store.recoverErrors().front());
  }
  std::map<std::string, std::size_t> checkpointStage;
  for (const service::RecoveryEvent& e : store.recoverReport()) {
    if (e.sessionLost) throw CorrectnessError("recover() lost " + e.path);
    const std::string name = fs::path(e.path).filename().string();
    checkpointStage[name.substr(0, name.size() - 4)] =
        e.checkpointUsed ? e.checkpointStage : 0;
  }
  if (ids.size() != recorded.size()) {
    throw CorrectnessError("recover() rebuilt " + std::to_string(ids.size()) +
                           " of " + std::to_string(recorded.size()) +
                           " sessions");
  }
  std::size_t replayEvaluations = 0;
  for (const std::string& id : ids) {
    const Recorded& want = recorded.at(id);
    const service::SessionSnapshot snap = store.snapshot(id).get();
    std::string digest = snap.digest;
    if (injectMismatch && id == ids.front()) digest[0] ^= 1;
    if (digest != want.digest || snap.stage != want.stage ||
        snap.evaluations != want.evaluations) {
      throw CorrectnessError("session " + id + " recovered to digest " +
                             digest + " at stage " +
                             std::to_string(snap.stage) + ", recorded " +
                             want.digest + " at stage " +
                             std::to_string(want.stage));
    }
    const auto it = checkpointStage.find(id);
    const std::size_t from = it == checkpointStage.end() ? 0 : it->second;
    replayEvaluations += want.evaluations - want.evaluationsAt.at(from);
  }
  return replayEvaluations;
}

}  // namespace

Outcome runRestart(const Config& config, Tracer& tracer) {
  TempDir tmp(config.workDir);

  // Set-up: plan and journal the fleet.  Repeated kSetupRepeats times into
  // fresh directories, which are removed; the first journal is the one
  // recovered.  Half the repeats run before the timed part and half after
  // it, so setup_s samples the host across the run.  None runs inside the
  // timed part, so the recoveries see no journaling I/O.
  std::vector<double> setupS;
  const auto setUp = [&](const std::string& dir) {
    const auto t0 = Clock::now();
    std::vector<FleetSession> planned = planFleet(config);
    std::map<std::string, Recorded> journaled = journalFleet(planned, dir);
    setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
    return std::make_pair(std::move(planned), std::move(journaled));
  };
  const auto repeatSetUp = [&] {
    const std::string dir = tmp.sub("journal-" + std::to_string(setupS.size()));
    (void)setUp(dir);
    std::filesystem::remove_all(dir);
  };
  const std::string walDir = tmp.sub("journal-0");
  auto [fleet, recorded] = setUp(walDir);
  while (setupS.size() < std::size_t{kSetupRepeats / 2}) repeatSetUp();

  // One untimed recovery first: proves the journal and settles the
  // directory (a recovered session may open a fresh tail segment).
  std::size_t replayEvaluations = 0;
  RecoverCounts counts;
  {
    service::SessionStore store(storeOptions(walDir));
    const std::vector<std::string> ids = store.recover();
    replayEvaluations = checkRecovery(store, ids, recorded, false);
    counts = countRecovery(store, ids);
  }

  const std::size_t rounds =
      config.smoke ? 100
                   : static_cast<std::size_t>(
                         std::round(config.seconds * kRecoversPerSecond));
  Tracer untraced(false);
  std::vector<double> recoverMs, tracedMs, untracedMs;
  double cpuS = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    service::SessionStore store(storeOptions(walDir));
    const bool traced = config.trace && r % 2 == 0;
    const double cpu0 = selfCpuSeconds();
    const auto t0 = Clock::now();
    std::vector<std::string> ids;
    {
      Tracer::Span span(traced ? tracer : untraced, "service.recover", r + 1);
      ids = store.recover();
    }
    const auto t1 = Clock::now();
    cpuS += selfCpuSeconds() - cpu0;
    recoverMs.push_back(msBetween(t0, t1));
    (traced ? tracedMs : untracedMs).push_back(recoverMs.back());
    if (checkRecovery(store, ids, recorded,
                      config.injectDigestMismatch && r == 0) !=
        replayEvaluations) {
      throw CorrectnessError("recovery took a different replay path");
    }
  }
  // Peak RSS of the recoveries, before the later set-ups add theirs.
  const double peakRssMiB = selfPeakRssMiB();
  while (setupS.size() < std::size_t{kSetupRepeats}) repeatSetUp();

  Outcome out;
  out.attempted = rounds * fleet.size();
  out.failed = 0;  // a lost session aborts the run in checkRecovery
  Report& e2e = out.endToEnd;
  e2e.add("setup_s", median(setupS), "s");
  double totalS = 0.0;
  for (double ms : recoverMs) totalS += ms / 1000.0;
  e2e.add("ops_per_s", static_cast<double>(rounds) / totalS, "ops/s");
  e2e.addLatency("op", recoverMs, {0.5, 0.9});
  e2e.add("op_tail_ms", e2e.find("op_p90_ms")->value, "ms", recoverMs.size());
  e2e.addLatency("recover", recoverMs, {0.5, 0.9});
  e2e.add("evals_per_op", static_cast<double>(replayEvaluations), "count");
  e2e.add("failed_frac", 0.0, "ratio");
  e2e.add("cpu_ms_per_op", cpuS * 1000.0 / static_cast<double>(rounds), "ms");
  e2e.add("peak_rss_mb", peakRssMiB, "MiB");

  if (config.trace) {
    Report& layer = out.perLayer;
    OpTimings timings;
    for (const FleetSession& f : fleet) {
      (void)driveTeam(f.spec, f.sim, &timings, nullptr);
    }
    // Engine states from one λ=T session driven past the fleet's cap.
    const FleetSession& adpm = fleet.back();
    EngineSample engine{adpm.spec, adpm.sim.managerOptions(), {}};
    teamsim::SimulationOptions longer = adpm.sim;
    longer.maxOperations = 30;
    (void)driveTeam(adpm.spec, longer, nullptr, &engine.states);
    reportOpTimings(timings, layer);
    layer.add("trace.overhead_pct",
              100.0 * (percentile(tracedMs, 0.5, "traced recover p50") /
                           percentile(untracedMs, 0.5, "untraced recover p50") -
                       1.0),
              "%");
    runEngineProbes(engine, tracer, layer);
    reportRecoverCounts(counts, layer);
  }
  return out;
}

}  // namespace perfbench
