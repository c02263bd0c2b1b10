// wire-sensing and wire-open-churn: closed-loop connections against the
// shipped session_server_cli (wire-sensing journals with WAL rotation and
// checkpoints firing in every session).
//
// Each sensing connection drives λ=T sensing sessions back to back: Open
// (the DDDL text generated here), subscribe every designer seat, then per
// operation propose on a local shadow, Apply over the wire, execute on the
// shadow; at the end the server's snapshot digest must equal the shadow's.
// In wire-open-churn one connection instead Opens, Snapshots and Closes a
// large generated scenario over and over: Open runs on the server's
// reactor, so its stall shows in every other connection's Apply tail.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "dddl/parser.hpp"
#include "dddl/writer.hpp"
#include "gen/generator.hpp"
#include "gen/presets.hpp"
#include "host.hpp"
#include "net/client.hpp"
#include "probes.hpp"
#include "service/session.hpp"
#include "stats.hpp"
#include "teamsim/client.hpp"
#include "util/strings.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

using namespace adpm;

// About --seconds of timed work on the reference host.  Beside the churn
// connection a sensing connection runs ~5x slower (it waits out each Open).
// The churn connection cycles until the sensing connections are done, and
// at least kChurnMinCycles times (the open_p90_ms sample).
constexpr double kSessionsPerSecondPerConnection = 50.0;
constexpr double kSessionsPerSecondBesideChurn = 10.0;
constexpr std::size_t kChurnMinCycles = 100;
constexpr WalSettings kWal{};

struct Shared {
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> opId{0};
  /// Sensing connections still driving sessions; the churn connection
  /// keeps cycling until they are all done.
  std::atomic<std::size_t> sensingRunning{0};
};

struct ConnStats {
  std::vector<double> rttMs;
  /// [start, end] of each Apply round trip and each Open, steady-clock ns.
  std::vector<std::pair<std::int64_t, std::int64_t>> rttSpan;
  std::vector<std::pair<std::int64_t, std::int64_t>> openSpan;
  std::vector<double> openMs;
  std::vector<double> tracedOpMs;
  std::vector<double> untracedOpMs;
  OpTimings timings;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t reconnects = 0;
  std::size_t transientRetries = 0;
  std::vector<dpm::ManagerState> states;
  Clock::time_point finished;
  std::exception_ptr error;
};

std::int64_t ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

std::string shadowDigest(const dpm::DesignProcessManager& m) {
  return util::fnv1a64Hex(service::snapshotText(m));
}

net::Client::Options clientOptions(std::uint16_t port) {
  net::Client::Options o;
  o.port = port;
  o.reconnectAttempts = 5;
  o.requestTimeout = std::chrono::milliseconds(60000);
  return o;
}

void driveSensing(const WirePlan& plan, std::size_t conn, Shared& shared,
                  Tracer& tracer, ConnStats& st) {
  net::Client client(clientOptions(plan.port));
  client.connectWithRetry();
  Tracer untraced(false);
  std::string canonical;
  dpm::ScenarioSpec spec;

  for (std::size_t s = 0;
       s < plan.sessionsPerConnection && !shared.abort.load(); ++s) {
    const std::string id =
        "s" + std::to_string(conn) + "-" + std::to_string(s);
    teamsim::SimulationOptions sim;
    sim.seed = sensingSessionSeed(plan.seed, conn, s);
    sim.maxOperations = kSensingOpCap;

    const auto o0 = Clock::now();
    const net::Client::OpenResult open =
        client.openDddl(id, plan.sensingDddl, true);
    st.openSpan.emplace_back(ns(o0), ns(Clock::now()));
    if (open.dddl != canonical) {
      spec = dddl::parse(open.dddl);
      canonical = open.dddl;
    }
    auto shadow = std::make_unique<dpm::DesignProcessManager>(
        sim.managerOptions());
    dpm::instantiate(spec, *shadow);
    shadow->bootstrap();
    teamsim::TeamClient team(*shadow, sim);
    const std::set<std::string> seats = designerSeats(spec);
    for (const std::string& d : seats) client.subscribe(id, d);

    const auto resync = [&]() -> std::size_t {
      ++st.reconnects;
      client.connectWithRetry();
      for (const std::string& d : seats) client.subscribe(id, d);
      return client.snapshot(id, false).stage;
    };

    // Traced runs alternate traced and untraced sessions; the difference
    // between the two is the tracing overhead.  Whole sessions, not ops:
    // designers take turns, so alternating ops would trace some designers'
    // ops only.
    const bool traced = plan.trace && s % 2 == 0;
    Tracer& t = traced ? tracer : untraced;
    while (!shadow->designComplete() && shadow->stage() < kSensingOpCap) {
      Tracer::Span opSpan(t, "load.op", ++shared.opId);
      const auto p0 = Clock::now();
      std::optional<dpm::Operation> op = team.propose(*shadow);
      const auto p1 = Clock::now();
      if (!op) break;
      ++st.attempted;
      bool applied = false;
      bool failed = false;
      while (!applied && !failed) {
        try {
          (void)client.apply(id, *op);
          applied = true;
        } catch (const net::ConnectionError&) {
          // Outcome unknown: the server's stage tells whether it committed.
          const std::size_t stage = resync();
          if (stage == shadow->stage() + 1) {
            applied = true;
          } else if (stage != shadow->stage()) {
            throw CorrectnessError("session " + id + " diverged across a "
                                   "reconnect (server stage " +
                                   std::to_string(stage) + ", shadow " +
                                   std::to_string(shadow->stage()) + ")");
          }
        } catch (const adpm::Error&) {
          failed = true;  // refused, timed out or retried out: not executed
        }
      }
      const auto a1 = Clock::now();
      if (failed) {
        ++st.failed;
        break;
      }
      const dpm::DesignProcessManager::ExecResult local =
          shadow->execute(std::move(*op));
      const auto e1 = Clock::now();
      team.observe(*shadow, local.record);
      try {
        client.pump(0);
      } catch (const net::ConnectionError&) {
        (void)resync();
      }
      const auto o1 = Clock::now();

      t.record("teamsim.propose", p0, p1, 0);
      t.record("net.apply", p1, a1, 0);
      t.record("dpm.execute", a1, e1, 0);
      st.rttMs.push_back(msBetween(p1, a1));
      st.rttSpan.emplace_back(ns(p1), ns(a1));
      (traced ? st.tracedOpMs : st.untracedOpMs).push_back(msBetween(p0, o1));
      st.timings.proposeUs.push_back(msBetween(p0, p1) * 1000.0);
      st.timings.executeMs.push_back(msBetween(a1, e1));
      st.timings.evaluations += local.record.evaluations;
      if (plan.trace && conn == 0 && s == 0) {
        st.states.push_back(shadow->exportState());
      }
    }

    // Correctness gate: the server's state must be the shadow's, bit for bit.
    const service::SessionSnapshot snap = client.snapshot(id, false);
    std::string local = shadowDigest(*shadow);
    if (plan.injectDigestMismatch && conn == 0 && s == 0) local[0] ^= 1;
    if (snap.digest != local || snap.stage != shadow->stage()) {
      throw CorrectnessError("session " + id + ": server digest " +
                             snap.digest + " at stage " +
                             std::to_string(snap.stage) + " != shadow digest " +
                             local + " at stage " +
                             std::to_string(shadow->stage()));
    }
    client.closeSession(id);
  }
  st.transientRetries = client.transientRetries();
}

void driveChurn(const WirePlan& plan, Shared& shared, Tracer& tracer,
                ConnStats& st) {
  net::Client client(clientOptions(plan.port));
  client.connectWithRetry();
  for (std::size_t i = 0;
       (i < plan.churnCycles || shared.sensingRunning.load() > 0) &&
       !shared.abort.load();
       ++i) {
    const std::string id = "churn-" + std::to_string(i);
    ++st.attempted;
    const auto o0 = Clock::now();
    const net::Client::OpenResult open =
        client.openDddl(id, plan.largeDddl, true);
    const auto o1 = Clock::now();
    tracer.record("net.open", o0, o1, 0);
    st.openMs.push_back(msBetween(o0, o1));
    st.openSpan.emplace_back(ns(o0), ns(o1));
    if (open.dddl != plan.largeCanonical) {
      throw CorrectnessError("Open of " + id +
                             " returned a different canonical DDDL");
    }
    const service::SessionSnapshot snap = client.snapshot(id, false);
    std::string expected = plan.largeDigest;
    if (plan.injectDigestMismatch && i == 0) expected[0] ^= 1;
    if (snap.digest != expected || snap.stage != 0) {
      throw CorrectnessError("churn session " + id + ": server digest " +
                             snap.digest + " != shadow digest " + expected);
    }
    client.closeSession(id);
    std::this_thread::sleep_for(plan.churnPause);
  }
  st.transientRetries = client.transientRetries();
}

template <typename F>
std::thread guarded(Shared& shared, ConnStats& st, std::atomic<int>& running,
                    F fn) {
  ++running;
  return std::thread([&shared, &st, &running, fn = std::move(fn)] {
    try {
      fn();
    } catch (...) {
      st.error = std::current_exception();
      shared.abort.store(true);
    }
    st.finished = Clock::now();
    --running;
  });
}

}  // namespace

WirePlan wirePlan(const Config& config, bool churn) {
  WirePlan plan;
  plan.seed = config.seed;
  plan.trace = config.trace;
  plan.injectDigestMismatch = config.injectDigestMismatch;
  plan.serverThreads = config.serverThreads;
  // The smoke configuration keeps two connections: the Open-overlap split
  // needs an Open on a second connection.
  const unsigned connections = config.smoke ? 2 : config.connections;
  if (connections < (churn ? 2u : 1u)) {
    throw std::invalid_argument("too few connections for this workload");
  }
  plan.sensingConnections = churn ? connections - 1 : connections;
  plan.sessionsPerConnection =
      config.smoke ? 60
                   : static_cast<std::size_t>(std::round(
                         config.seconds *
                         (churn ? kSessionsPerSecondBesideChurn
                                : kSessionsPerSecondPerConnection)));
  plan.wal = !churn;
  if (churn) {
    plan.largePreset = config.smoke ? "zoo-toy" : "zoo-large";
    plan.churnCycles = kChurnMinCycles;
    if (config.smoke) plan.churnPause = std::chrono::milliseconds(5);
  }
  return plan;
}

WireResult driveWire(const Config& config, WirePlan plan, Tracer& tracer) {
  TempDir tmp(config.workDir);
  WireResult result;

  // Set-up, kSetupRepeats times: generate the inputs and bring a server up
  // to the point its port file is ready.  The last one serves the run.
  std::vector<double> setupS;
  std::optional<ServerProcess> server;
  for (int rep = 0; rep < plan.setupRepeats; ++rep) {
    server.reset();
    const auto t0 = Clock::now();
    plan.sensingDddl = recordSensingStreams(plan.seed, 0).dddl;
    if (plan.churnCycles > 0) {
      const gen::GeneratedScenario large =
          gen::generate(gen::zooPreset(plan.largePreset),
                        deriveSeed(plan.seed, 7));
      plan.largeDddl = dddl::write(large.spec);
      plan.largeCanonical = dddl::write(dddl::parse(plan.largeDddl));
      dpm::DesignProcessManager m;
      dpm::instantiate(dddl::parse(plan.largeCanonical), m);
      m.bootstrap();
      plan.largeDigest = shadowDigest(m);
    }
    const std::string dir = tmp.sub("server-" + std::to_string(rep));
    std::vector<std::string> args = {"--threads",
                                      std::to_string(plan.serverThreads),
                                      "--drain-timeout-ms", "20000"};
    if (plan.wal) {
      args.insert(args.end(),
                  {"--wal-dir", tmp.sub("wal-" + std::to_string(rep)),
                   "--segment-ops", std::to_string(kWal.segmentOps),
                   "--checkpoint-every", std::to_string(kWal.checkpointEvery),
                   "--checkpoint-keep", std::to_string(kWal.checkpointKeep)});
    }
    server.emplace(config.serverBinary, std::move(args), dir);
    setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
  }
  result.setupS = median(setupS);
  plan.port = server->port();

  Shared shared;
  std::vector<ConnStats> stats(plan.sensingConnections +
                               (plan.churnCycles > 0 ? 1 : 0));
  std::atomic<int> running{0};
  const double loadCpu0 = selfCpuSeconds();
  const double serverCpu0 = processCpuSeconds(server->pid());
  const auto w0 = Clock::now();
  std::vector<std::thread> threads;
  shared.sensingRunning = plan.sensingConnections;
  for (std::size_t c = 0; c < plan.sensingConnections; ++c) {
    threads.push_back(guarded(shared, stats[c], running, [&, c] {
      driveSensing(plan, c, shared, tracer, stats[c]);
      --shared.sensingRunning;
    }));
  }
  if (plan.churnCycles > 0) {
    ConnStats& st = stats.back();
    threads.push_back(guarded(shared, st, running, [&] {
      driveChurn(plan, shared, tracer, st);
    }));
  }
  while (running.load() > 0) {
    result.serverThreadsMax =
        std::max(result.serverThreadsMax, processThreads(server->pid()));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (std::thread& t : threads) t.join();
  // Throughput counts the sensing connections' own time: the churn
  // connection may run on after they finish.
  Clock::time_point sensingEnd = w0;
  for (std::size_t c = 0; c < plan.sensingConnections; ++c) {
    sensingEnd = std::max(sensingEnd, stats[c].finished);
  }
  result.wallS = msBetween(w0, sensingEnd) / 1000.0;
  result.cpuS = selfCpuSeconds() - loadCpu0 +
                processCpuSeconds(server->pid()) - serverCpu0;

  // A correctness failure outranks the errors it caused elsewhere.
  std::exception_ptr first;
  for (const ConnStats& st : stats) {
    if (!st.error) continue;
    try {
      std::rethrow_exception(st.error);
    } catch (const CorrectnessError&) {
      throw;
    } catch (...) {
      if (!first) first = st.error;
    }
  }
  if (first) std::rethrow_exception(first);

  {
    net::Client client(clientOptions(plan.port));
    client.connect();
    result.status = client.status();
  }
  const ServerProcess::Exit exit = server->stop(std::chrono::seconds(30));
  if (!WIFEXITED(exit.status) || WEXITSTATUS(exit.status) != 0) {
    throw std::runtime_error("session_server_cli did not drain cleanly");
  }
  result.serverPeakRssMiB = static_cast<double>(exit.usage.ru_maxrss) / 1024.0;

  for (ConnStats& st : stats) {
    result.rttMs.insert(result.rttMs.end(), st.rttMs.begin(), st.rttMs.end());
    result.openMs.insert(result.openMs.end(), st.openMs.begin(),
                         st.openMs.end());
    result.tracedOpMs.insert(result.tracedOpMs.end(), st.tracedOpMs.begin(),
                             st.tracedOpMs.end());
    result.untracedOpMs.insert(result.untracedOpMs.end(),
                               st.untracedOpMs.begin(), st.untracedOpMs.end());
    auto& t = result.timings;
    t.proposeUs.insert(t.proposeUs.end(), st.timings.proposeUs.begin(),
                       st.timings.proposeUs.end());
    t.executeMs.insert(t.executeMs.end(), st.timings.executeMs.begin(),
                       st.timings.executeMs.end());
    t.evaluations += st.timings.evaluations;
    result.attempted += st.attempted;
    result.failed += st.failed;
    result.reconnects += st.reconnects;
    result.transientRetries += st.transientRetries;
    for (auto& s : st.states) result.states.push_back(std::move(s));
  }
  result.ops = result.rttMs.size();

  // Split Apply round trips by whether an Open (on another connection) was
  // in flight at any point during them.
  std::vector<std::pair<std::int64_t, std::int64_t>> opens;
  for (const ConnStats& st : stats) {
    opens.insert(opens.end(), st.openSpan.begin(), st.openSpan.end());
  }
  std::sort(opens.begin(), opens.end());
  for (const ConnStats& st : stats) {
    for (std::size_t i = 0; i < st.rttSpan.size(); ++i) {
      const auto [a, b] = st.rttSpan[i];
      auto it = std::upper_bound(
          opens.begin(), opens.end(),
          std::make_pair(b, std::numeric_limits<std::int64_t>::max()));
      bool overlap = false;
      // Opens starting before the RTT ends; any ending after it starts.
      for (auto j = it; j != opens.begin();) {
        --j;
        if (j->second >= a) {
          overlap = true;
          break;
        }
        if (b - j->first > 60'000'000'000LL) break;
      }
      (overlap ? result.rttDuringOpenMs : result.rttOutsideOpenMs)
          .push_back(st.rttMs[i]);
    }
  }
  return result;
}

void reportWireLayers(const WireResult& r, Report& out) {
  namespace json = util::json;
  const json::Value& store = r.status.at("store");
  const json::Value& bus = r.status.at("bus");
  const double published = bus.at("published").asNumber();
  out.add("service.retries", store.at("retries").asNumber(), "count");
  out.add("service.timeouts", store.at("timeouts").asNumber(), "count");
  out.add("bus.notify_per_op", published / static_cast<double>(r.ops),
          "count");
  out.add("bus.delivered_ratio",
          published > 0 ? bus.at("delivered").asNumber() / published : 0.0,
          "ratio");
  out.add("bus.dropped", bus.at("dropped").asNumber(), "count");
  out.add("bus.downgrades", bus.at("downgrades").asNumber(), "count");
  out.add("net.server_threads", static_cast<double>(r.serverThreadsMax),
          "count");
  out.add("net.reconnects", static_cast<double>(r.reconnects), "count");
  out.add("net.transient_retries", static_cast<double>(r.transientRetries),
          "count");
  out.add("net.apply_rtt_p50_us",
          percentile(r.rttMs, 0.5, "net.apply_rtt_p50_us") * 1000.0, "us",
          r.rttMs.size());
}

void reportOpenSplit(const WireResult& r, Report& out) {
  // Means, not percentiles: an overlapping round trip is stalled only while
  // the Open holds the reactor, so the stalled share of the overlapping set
  // varies, and any percentile would sit on that share's boundary.
  const auto mean = [](const std::vector<double>& v, const char* what) {
    if (v.size() < kTailSupport) {
      throw UnsupportedPercentile(std::string(what) + ": too few samples");
    }
    double sum = 0.0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  out.add("net.rtt_during_open_mean_ms",
          mean(r.rttDuringOpenMs, "net.rtt_during_open_mean_ms"), "ms",
          r.rttDuringOpenMs.size());
  out.add("net.rtt_outside_open_mean_ms",
          mean(r.rttOutsideOpenMs, "net.rtt_outside_open_mean_ms"), "ms",
          r.rttOutsideOpenMs.size());
}

Outcome runWire(const Config& config, Tracer& tracer, bool churn) {
  const WireResult r = driveWire(config, wirePlan(config, churn), tracer);
  Outcome out;
  out.attempted = r.attempted;
  out.failed = r.failed;
  Report& e2e = out.endToEnd;
  e2e.add("setup_s", r.setupS, "s");
  e2e.add("ops_per_s", static_cast<double>(r.ops) / r.wallS, "ops/s");
  e2e.addLatency("op", r.rttMs, {0.5, 0.9, 0.99});
  e2e.add("op_tail_ms", e2e.find("op_p99_ms")->value, "ms", r.rttMs.size());
  if (churn) e2e.addLatency("open", r.openMs, {0.5, 0.9});
  e2e.add("evals_per_op",
          static_cast<double>(r.timings.evaluations) /
              static_cast<double>(r.ops),
          "count");
  e2e.add("failed_frac",
          static_cast<double>(r.failed) / static_cast<double>(r.attempted),
          "ratio");
  e2e.add("cpu_ms_per_op", r.cpuS * 1000.0 / static_cast<double>(r.ops), "ms");
  e2e.add("peak_rss_mb", r.serverPeakRssMiB, "MiB");

  if (config.trace) {
    Report& layer = out.perLayer;
    reportOpTimings(r.timings, layer);
    layer.add("trace.overhead_pct",
              100.0 * (percentile(r.tracedOpMs, 0.5, "traced op p50") /
                           percentile(r.untracedOpMs, 0.5, "untraced op p50") -
                       1.0),
              "%");
    const EngineSample sample{
        dddl::parse(recordSensingStreams(config.seed, 0).dddl),
        teamsim::SimulationOptions{}.managerOptions(), r.states};
    runEngineProbes(sample, tracer, layer);
    reportWireLayers(r, layer);
    if (churn) reportOpenSplit(r, layer);
  }
  return out;
}

}  // namespace perfbench
