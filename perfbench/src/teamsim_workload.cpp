// teamsim-zoo-medium: one TeamSim session at a time over the generated
// zoo-medium network (λ=T), each capped at a fixed number of operations.
// A closed loop of one designer team: propose (TeamClient::propose), then
// execute (DesignProcessManager::execute), then observe.  Bound by
// propagation and what-if mining; service, net and wal do no work.
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "gen/generator.hpp"
#include "gen/presets.hpp"
#include "host.hpp"
#include "probes.hpp"
#include "service/session.hpp"
#include "stats.hpp"
#include "teamsim/client.hpp"
#include "teamsim/engine.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace {

using namespace adpm;

// About 1.5 sessions per second of timed work on the reference host.
// Many sessions average out how much work each seed's trajectory does
// (per-op cost grows with the stage and differs between trajectories).
constexpr double kSessionsPerSecond = 1.5;
constexpr std::size_t kOpCap = 25;
constexpr int kOracleThreads = 3;

struct TeamRun {
  std::unique_ptr<dpm::DesignProcessManager> dpm;
  std::optional<teamsim::TeamClient> team;
};

TeamRun startSession(const dpm::ScenarioSpec& spec,
                     const teamsim::SimulationOptions& sim) {
  TeamRun run;
  run.dpm = std::make_unique<dpm::DesignProcessManager>(sim.managerOptions());
  dpm::instantiate(spec, *run.dpm);
  run.dpm->bootstrap();
  run.team.emplace(*run.dpm, sim);
  return run;
}

}  // namespace

Outcome runTeamsim(const Config& config, Tracer& tracer) {
  const std::string preset = config.smoke ? "zoo-toy" : "zoo-medium";
  const std::size_t sessions =
      config.smoke ? 12
                   : static_cast<std::size_t>(std::max(
                         4.0, std::round(config.seconds * kSessionsPerSecond)));
  const std::size_t opCap = config.smoke ? 20 : kOpCap;

  teamsim::SimulationOptions base;
  base.adpm = true;
  base.maxOperations = opCap;

  // Set-up: generate the network and bring up the first session.  The zoo
  // preset's own generator seed is kept (README).  Repeated kSetupRepeats
  // times over the run (setupRepeatDue); the repeats are discarded.
  teamsim::SimulationOptions firstSim = base;
  firstSim.seed = deriveSeed(config.seed, 0);
  std::vector<double> setupS;
  const auto setUp = [&](dpm::ScenarioSpec& spec, TeamRun& first) {
    const auto t0 = Clock::now();
    spec = gen::generate(gen::zooPreset(preset)).spec;
    first = startSession(spec, firstSim);
    setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
  };
  const auto repeatSetUp = [&] {
    dpm::ScenarioSpec spec;
    TeamRun first;
    setUp(spec, first);
  };
  dpm::ScenarioSpec spec;
  TeamRun first;
  setUp(spec, first);

  Tracer untraced(false);
  OpTimings timings;
  std::vector<double> opMs;
  std::vector<double> untracedOpMs;
  EngineSample engine{spec, base.managerOptions(), {}};
  double wallS = 0.0;
  double cpuS = 0.0;
  std::uint64_t opId = 0;

  struct Trajectory {
    std::size_t ops = 0;
    std::size_t evaluations = 0;
    std::string digest;
  };
  std::vector<Trajectory> results;

  // Drives one session to its cap or completion.  A traced run drives each
  // session twice from the same seed, once traced and once untraced (in
  // alternating order), and compares the two like for like: the difference
  // is the tracing overhead.  Only the counted run of a session (the traced
  // one when tracing) feeds the metrics and the trajectory check.
  const auto drive = [&](TeamRun& run, bool traced, bool counted,
                         std::vector<double>& ms) {
    Tracer& t = traced ? tracer : untraced;
    std::size_t ops = 0;
    while (ops < opCap && !run.dpm->designComplete()) {
      Tracer::Span opSpan(t, "teamsim.op", ++opId);
      const auto p0 = Clock::now();
      std::optional<dpm::Operation> op = run.team->propose(*run.dpm);
      const auto p1 = Clock::now();
      if (!op) break;
      const dpm::DesignProcessManager::ExecResult result =
          run.dpm->execute(std::move(*op));
      const auto e1 = Clock::now();
      run.team->observe(*run.dpm, result.record);
      const auto o1 = Clock::now();
      t.record("teamsim.propose", p0, p1, opId);
      t.record("dpm.execute", p1, e1, opId);
      ms.push_back(msBetween(p0, o1));
      ++ops;
      if (!counted) continue;
      timings.proposeUs.push_back(msBetween(p0, p1) * 1000.0);
      timings.executeMs.push_back(msBetween(p1, e1));
      timings.evaluations += result.record.evaluations;
      if (config.trace && ops % 5 == 0 && engine.states.size() < 5) {
        engine.states.push_back(run.dpm->exportState());
      }
    }
    return Trajectory{ops, run.dpm->network().evaluationCount(),
                      util::fnv1a64Hex(service::snapshotText(*run.dpm))};
  };

  for (std::size_t s = 0; s < sessions; ++s) {
    teamsim::SimulationOptions sim = base;
    sim.seed = deriveSeed(config.seed, s);
    const bool twinFirst = config.trace && s % 2 == 1;
    Trajectory twin;
    if (twinFirst) {
      TeamRun run = startSession(spec, sim);
      twin = drive(run, false, false, untracedOpMs);
    }
    TeamRun run = s == 0 ? std::move(first) : startSession(spec, sim);
    const double cpu0 = selfCpuSeconds();
    const auto wall0 = Clock::now();
    results.push_back(drive(run, config.trace, true, opMs));
    wallS += msBetween(wall0, Clock::now()) / 1000.0;
    cpuS += selfCpuSeconds() - cpu0;
    if (config.trace && !twinFirst) {
      TeamRun again = startSession(spec, sim);
      twin = drive(again, false, false, untracedOpMs);
    }
    if (config.trace && twin.digest != results.back().digest) {
      throw CorrectnessError("session " + std::to_string(s) +
                             ": the untraced twin took another trajectory");
    }
    if (setupRepeatDue(s, sessions)) repeatSetUp();
  }
  while (setupS.size() < std::size_t{kSetupRepeats}) repeatSetUp();

  // Peak RSS of the measured work, before the oracle adds its own managers.
  const double peakRssMiB = selfPeakRssMiB();

  // Correctness: every driven trajectory equals SimulationEngine::run for
  // the same seed — operation count, evaluation total, final digest.  The
  // oracle runs after the timed part, on a few threads.
  std::vector<Trajectory> oracles(sessions);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  std::exception_ptr oracleError;
  std::mutex errorMutex;
  for (int w = 0; w < kOracleThreads; ++w) {
    workers.emplace_back([&] {
      try {
        for (std::size_t s = next++; s < sessions; s = next++) {
          teamsim::SimulationOptions sim = base;
          sim.seed = deriveSeed(config.seed, s);
          teamsim::SimulationEngine engine(spec, sim);
          const teamsim::SimulationResult r = engine.run();
          oracles[s] = {r.operations, r.evaluations,
                        util::fnv1a64Hex(
                            service::snapshotText(engine.manager()))};
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(errorMutex);
        oracleError = std::current_exception();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (oracleError) std::rethrow_exception(oracleError);
  for (std::size_t s = 0; s < sessions; ++s) {
    const Trajectory& want = oracles[s];
    std::string digestSeen = results[s].digest;
    if (config.injectDigestMismatch && s == 0) digestSeen[0] ^= 1;
    if (want.ops != results[s].ops ||
        want.evaluations != results[s].evaluations ||
        want.digest != digestSeen) {
      throw CorrectnessError(
          "session " + std::to_string(s) + ": driven trajectory (ops " +
          std::to_string(results[s].ops) + ", evals " +
          std::to_string(results[s].evaluations) + ", digest " + digestSeen +
          ") differs from SimulationEngine::run (ops " +
          std::to_string(want.ops) + ", evals " +
          std::to_string(want.evaluations) + ", digest " + want.digest + ")");
    }
  }

  Outcome out;
  out.attempted = opMs.size();
  out.failed = 0;  // execute() has no failure path; a throw aborts the run
  Report& e2e = out.endToEnd;
  e2e.add("setup_s", median(setupS), "s");
  e2e.add("ops_per_s", static_cast<double>(opMs.size()) / wallS, "ops/s");
  e2e.addLatency("op", opMs, {0.5, 0.9});
  e2e.add("op_tail_ms", e2e.find("op_p90_ms")->value, "ms", opMs.size());
  e2e.add("evals_per_op",
          static_cast<double>(timings.evaluations) /
              static_cast<double>(opMs.size()),
          "count");
  e2e.add("failed_frac", 0.0, "ratio");
  e2e.add("cpu_ms_per_op", cpuS * 1000.0 / static_cast<double>(opMs.size()),
          "ms");
  e2e.add("peak_rss_mb", peakRssMiB, "MiB");

  if (config.trace) {
    Report& layer = out.perLayer;
    reportOpTimings(timings, layer);
    layer.add("trace.overhead_pct",
              100.0 * (percentile(opMs, 0.5, "traced op p50") /
                           percentile(untracedOpMs, 0.5, "untraced op p50") -
                       1.0),
              "%");
    runEngineProbes(engine, tracer, layer);
  }
  return out;
}

}  // namespace perfbench
