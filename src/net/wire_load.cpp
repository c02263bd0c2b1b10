#include "net/wire_load.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "dddl/parser.hpp"
#include "dpm/manager.hpp"
#include "dpm/scenario.hpp"
#include "net/frame.hpp"
#include "service/session.hpp"
#include "teamsim/client.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_annotations.hpp"

namespace adpm::net {

namespace {

using Clock = std::chrono::steady_clock;

struct Totals {
  util::Mutex mutex;
  std::string firstFailure ADPM_GUARDED_BY(mutex);
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> operations{0};
  std::atomic<std::size_t> notifications{0};
  std::atomic<std::size_t> resyncs{0};
  std::atomic<std::size_t> digestMismatches{0};
  std::atomic<std::size_t> reconnects{0};
  std::atomic<std::size_t> transientRetries{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::uint64_t> applyRttMicros{0};
};

struct ShadowSession {
  dpm::ScenarioSpec spec;
  std::unique_ptr<dpm::DesignProcessManager> dpm;
  std::optional<teamsim::TeamClient> team;

  /// Builds the shadow from the *server's* canonical DDDL: determinism of
  /// instantiate + bootstrap + δ makes it bit-identical to the session.
  void build(const std::string& dddl, const teamsim::SimulationOptions& sim) {
    spec = dddl::parse(dddl);
    dpm::DesignProcessManager::Options mo;
    mo.adpm = sim.adpm;
    dpm = std::make_unique<dpm::DesignProcessManager>(mo);
    dpm::instantiate(spec, *dpm);
    dpm->bootstrap();
    team.emplace(*dpm, sim);
  }
};

void subscribeSeats(Client& client, const std::string& id,
                    const dpm::ScenarioSpec& spec) {
  std::set<std::string> designers;
  for (const dpm::ScenarioSpec::Prob& p : spec.problems) {
    if (!p.owner.empty()) designers.insert(p.owner);
  }
  for (const std::string& designer : designers) {
    client.subscribe(id, designer);
  }
}

void driveSession(const WireLoadOptions& options, std::size_t index,
                  Totals& totals) {
  const std::string id = options.idPrefix + std::to_string(index);
  teamsim::SimulationOptions sim = options.sim;
  sim.seed = options.sim.seed + index;

  Client::Options clientOptions = options.client;
  clientOptions.host = options.host;
  clientOptions.port = options.port;
  Client client(clientOptions);
  client.onNotification(
      [&totals](const std::string&, const dpm::Notification& n) {
        totals.notifications.fetch_add(1, std::memory_order_relaxed);
        if (n.kind == dpm::NotificationKind::ResyncRequired) {
          totals.resyncs.fetch_add(1, std::memory_order_relaxed);
        }
      });

  ShadowSession shadow;
  try {
    client.connectWithRetry();
    const Client::OpenResult open =
        options.dddl.empty()
            ? client.openScenario(id, options.scenario, sim.adpm)
            : client.openDddl(id, options.dddl, sim.adpm);
    shadow.build(open.dddl, sim);
    if (options.subscribe) subscribeSeats(client, id, shadow.spec);

    std::size_t ops = 0;
    unsigned reconnectsLeft = options.maxReconnects;
    // Reconnect and resync in one guarded step: dial with capped backoff,
    // re-establish the push stream, and fetch the authoritative snapshot.
    // A connection that dies anywhere in that sequence spends one unit of
    // budget and starts over rather than failing the session: right after
    // a server crash the kernel can hand out connections the dying
    // listener had completed into its backlog — they look established and
    // reset on first use.
    const auto reconnect = [&]() -> service::SessionSnapshot {
      for (;;) {
        if (reconnectsLeft == 0) {
          throw ConnectionError("reconnect budget spent");
        }
        --reconnectsLeft;
        totals.reconnects.fetch_add(1, std::memory_order_relaxed);
        try {
          client.connectWithRetry();
        } catch (const std::exception& e) {
          throw ConnectionError(std::string("reconnect failed: ") + e.what());
        }
        try {
          if (options.subscribe) subscribeSeats(client, id, shadow.spec);
          return client.snapshot(id, false);
        } catch (const ConnectionError&) {
          // stillborn connection or the server died again; spend another
        }
      }
    };
    while (ops < options.maxOperationsPerSession &&
           !client.serverShuttingDown()) {
      std::optional<dpm::Operation> op = shadow.team->propose(*shadow.dpm);
      if (!op) break;  // every designer idle: complete or deadlocked

      // Apply remotely, then mirror locally.  A ConnectionError leaves the
      // outcome ambiguous; the reconnect path disambiguates by comparing
      // the server's stage against the shadow's.
      bool applied = false;
      while (!applied) {
        try {
          const auto t0 = Clock::now();
          (void)client.apply(id, *op);
          const auto rtt = std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - t0);
          totals.applyRttMicros.fetch_add(
              static_cast<std::uint64_t>(rtt.count()),
              std::memory_order_relaxed);
          applied = true;
        } catch (const ConnectionError&) {
          const service::SessionSnapshot snap = reconnect();
          if (snap.stage == shadow.dpm->stage() + 1) {
            applied = true;  // the in-flight apply committed server-side
          } else if (snap.stage != shadow.dpm->stage()) {
            throw adpm::Error(
                "session '" + id + "' diverged across reconnect (server at " +
                std::to_string(snap.stage) + ", shadow at " +
                std::to_string(shadow.dpm->stage()) + ")");
          }
          // stage == shadow stage: the apply never committed; resend it.
        }
      }
      const dpm::DesignProcessManager::ExecResult local =
          shadow.dpm->execute(std::move(*op));
      shadow.team->observe(*shadow.dpm, local.record);
      ++ops;
      if (options.subscribe) {
        try {
          client.pump(0);
        } catch (const ConnectionError&) {
          // The last apply was acknowledged, so nothing is in flight —
          // the server journaled it before acking and its recovery will
          // reach the shadow's stage; just re-establish the stream.
          (void)reconnect();
        }
      }
    }

    totals.operations.fetch_add(ops, std::memory_order_relaxed);
    if (shadow.dpm->designComplete()) {
      totals.completed.fetch_add(1, std::memory_order_relaxed);
    }

    // Compare the shadow digest against the server's final snapshot.
    service::SessionSnapshot snap;
    try {
      snap = client.snapshot(id, false);
    } catch (const ConnectionError&) {
      snap = reconnect();
    }
    const std::string localDigest =
        util::fnv1a64Hex(service::snapshotText(*shadow.dpm));
    if (snap.digest != localDigest || snap.stage != shadow.dpm->stage()) {
      totals.digestMismatches.fetch_add(1, std::memory_order_relaxed);
    }
    if (options.subscribe) {
      try {
        client.pump(0);
      } catch (const ConnectionError&) {
        // Push-stream teardown after the work is done costs counters only.
      }
    }
  } catch (const std::exception& e) {
    totals.failed.fetch_add(1, std::memory_order_relaxed);
    util::LockGuard lock(totals.mutex);
    if (totals.firstFailure.empty()) {
      totals.firstFailure = "session '" + id + "': " + e.what();
    }
  }
  totals.transientRetries.fetch_add(client.transientRetries(),
                                    std::memory_order_relaxed);
}

}  // namespace

WireLoadReport runWireLoad(const WireLoadOptions& options) {
  WireLoadReport report;
  report.sessions = options.sessions;
  if (options.sessions == 0) return report;

  Totals totals;
  const auto start = Clock::now();
  std::vector<std::thread> drivers;
  drivers.reserve(options.sessions);
  for (std::size_t i = 0; i < options.sessions; ++i) {
    drivers.emplace_back(
        [&options, i, &totals] { driveSession(options, i, totals); });
  }
  for (std::thread& t : drivers) t.join();
  const auto stop = Clock::now();

  report.completedSessions = totals.completed.load();
  report.operations = totals.operations.load();
  report.notificationsReceived = totals.notifications.load();
  report.resyncsRequired = totals.resyncs.load();
  report.digestMismatches = totals.digestMismatches.load();
  report.reconnects = totals.reconnects.load();
  report.transientRetries = totals.transientRetries.load();
  report.failedSessions = totals.failed.load();
  {
    util::LockGuard lock(totals.mutex);
    report.firstFailure = totals.firstFailure;
  }
  report.wallSeconds = std::chrono::duration<double>(stop - start).count();
  if (report.wallSeconds > 0.0) {
    report.opsPerSecond =
        static_cast<double>(report.operations) / report.wallSeconds;
  }
  if (report.operations > 0) {
    report.applyRttMeanMicros =
        static_cast<double>(totals.applyRttMicros.load()) /
        static_cast<double>(report.operations);
  }
  return report;
}

}  // namespace adpm::net
