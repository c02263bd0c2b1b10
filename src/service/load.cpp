#include "service/load.hpp"

#include <chrono>
#include <optional>
#include <thread>

#include "dpm/manager.hpp"
#include "service/store.hpp"
#include "teamsim/client.hpp"
#include "util/strings.hpp"

namespace adpm::service {

namespace {

using Clock = std::chrono::steady_clock;

/// One session: its target, its shadow, and what happened.  Touched by one
/// thread at a time; runLoad sums the outcomes after the drivers finished.
struct SessionDriver {
  std::string id;
  teamsim::SimulationOptions sim;
  std::unique_ptr<LoadTarget> target;
  std::unique_ptr<dpm::DesignProcessManager> shadow;
  std::optional<teamsim::TeamClient> team;

  std::size_t ops = 0;
  std::size_t notifications = 0;
  std::size_t resyncs = 0;
  bool complete = false;
  bool mismatch = false;
  std::optional<std::string> failure;
  Clock::duration applyTime{};

  void open(const LoadHost& host, const LoadOptions& options,
            std::size_t index) {
    id = options.idPrefix + std::to_string(index);
    sim = options.sim;
    sim.seed = options.sim.seed + index;  // distinct stream per session
    guard([&] {
      target = host.target();
      // The spec the host instantiated, so instantiate + bootstrap + δ make
      // the shadow bit-identical to the hosted session.
      const dpm::ScenarioSpec& spec = target->open(id, sim.adpm);
      shadow = std::make_unique<dpm::DesignProcessManager>(
          dpm::DesignProcessManager::Options{.adpm = sim.adpm});
      dpm::instantiate(spec, *shadow);
      shadow->bootstrap();
      team.emplace(*shadow, sim);
      for (const std::string& designer : shadow->designers()) {
        target->subscribe(designer);
      }
    });
  }

  void run(std::size_t maxOps) {
    guard([&] {
      while (ops < maxOps) {
        std::optional<dpm::Operation> op = team->propose(*shadow);
        if (!op) break;  // every designer idle: complete or deadlocked
        const auto t0 = Clock::now();
        if (!target->apply(*op, shadow->stage())) break;
        applyTime += Clock::now() - t0;
        const dpm::DesignProcessManager::ExecResult local =
            shadow->execute(std::move(*op));
        team->observe(*shadow, local.record);
        ++ops;
        count(target->drain());
      }
      complete = shadow->designComplete();
      const SessionSnapshot host = target->snapshot();
      count(target->drain());
      mismatch = host.stage != shadow->stage() ||
                 host.digest != util::fnv1a64Hex(snapshotText(*shadow));
    });
  }

 private:
  /// Runs one phase; an exception retires the session as failed.
  template <typename F>
  void guard(F phase) {
    if (failure) return;
    try {
      phase();
    } catch (const std::exception& e) {
      failure = "session '" + id + "': " + e.what();
    }
  }

  void count(const std::vector<dpm::Notification>& batch) {
    notifications += batch.size();
    for (const dpm::Notification& n : batch) {
      if (n.kind == dpm::NotificationKind::ResyncRequired) ++resyncs;
    }
  }
};

/// A session in a SessionStore, driven through the typed command API.
class StoreTarget final : public LoadTarget {
 public:
  StoreTarget(SessionStore& store, const dpm::ScenarioSpec& spec)
      : store_(store), spec_(spec) {}

  const dpm::ScenarioSpec& open(const std::string& id, bool adpm) override {
    id_ = id;
    store_.open(id, spec_, adpm);
    return spec_;
  }

  void subscribe(const std::string& designer) override {
    queues_.push_back(store_.subscribe(id_, designer));
  }

  bool apply(const dpm::Operation& op, std::size_t) override {
    (void)store_.applyOperation(id_, op).get();
    return true;
  }

  std::vector<dpm::Notification> drain() override {
    std::vector<dpm::Notification> out;
    for (const auto& queue : queues_) {
      while (std::optional<dpm::Notification> n = queue->tryPop()) {
        out.push_back(std::move(*n));
      }
    }
    return out;
  }

  SessionSnapshot snapshot() override { return store_.snapshot(id_).get(); }

 private:
  SessionStore& store_;
  const dpm::ScenarioSpec& spec_;
  std::string id_;
  std::vector<std::shared_ptr<NotificationBus::Queue>> queues_;
};

}  // namespace

LoadReport runLoad(const LoadHost& host, const LoadOptions& options) {
  LoadReport report;
  report.sessions = options.sessions;
  if (options.sessions == 0) return report;

  std::vector<SessionDriver> drivers(options.sessions);
  const auto start = Clock::now();
  if (host.inlineSessions) {
    // Every session is open before the first operation, so a journaling
    // store writes all log headers first, as it always has.
    for (std::size_t i = 0; i < drivers.size(); ++i) {
      drivers[i].open(host, options, i);
    }
    for (SessionDriver& d : drivers) d.run(options.maxOperationsPerSession);
  } else {
    std::vector<std::jthread> threads;  // joined when the vector dies
    threads.reserve(drivers.size());
    for (std::size_t i = 0; i < drivers.size(); ++i) {
      threads.emplace_back([&host, &options, &d = drivers[i], i] {
        d.open(host, options, i);
        d.run(options.maxOperationsPerSession);
      });
    }
  }
  const auto stop = Clock::now();

  Clock::duration applyTime{};
  for (const SessionDriver& d : drivers) {
    report.operations += d.ops;
    report.notificationsReceived += d.notifications;
    report.resyncsRequired += d.resyncs;
    applyTime += d.applyTime;
    if (d.target) {
      report.reconnects += d.target->reconnects;
      report.transientRetries += d.target->transientRetries;
    }
    if (d.failure) {
      ++report.failedSessions;
      if (report.firstFailure.empty()) report.firstFailure = *d.failure;
      continue;
    }
    if (d.complete) ++report.completedSessions;
    if (d.mismatch) ++report.digestMismatches;
  }
  report.wallSeconds = std::chrono::duration<double>(stop - start).count();
  if (report.wallSeconds > 0.0) {
    report.opsPerSecond =
        static_cast<double>(report.operations) / report.wallSeconds;
  }
  if (report.operations > 0) {
    report.applyRttMeanMicros =
        std::chrono::duration<double, std::micro>(applyTime).count() /
        static_cast<double>(report.operations);
  }
  return report;
}

LoadReport runLoad(SessionStore& store, const dpm::ScenarioSpec& spec,
                   const LoadOptions& options) {
  return runLoad(
      LoadHost{
          .target = [&store, &spec] {
            return std::make_unique<StoreTarget>(store, spec);
          },
          .inlineSessions = store.executor().deterministic()},
      options);
}

}  // namespace adpm::service
