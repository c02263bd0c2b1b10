// Throughput of the concurrent design-session service (google-benchmark).
//
// Each iteration mounts a fleet of sessions (TeamSim designers as clients)
// on a fresh store and drives every session to completion; the counters
// report aggregate operations/sec and sessions/sec as seen by runLoad's
// steady clock.  Like BM_ServiceWire, every BM_ServiceFleet* number
// includes the client side: each session's driver thread proposes against
// and executes every operation on its own shadow manager, so δ runs twice
// per operation.  The worker-count argument sweeps the executor pool
// (1/2/4), so the scaling curve — ops/sec at 4 workers over ops/sec at 1 —
// falls directly out of BENCH_service.json.  The deterministic arg (-1)
// measures the zero-thread inline mode as the serial baseline.  Note that
// the machine must actually have >1 hardware thread for the upper points
// to scale; on a single-core container the curve is flat by construction.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>

#include "dddl/writer.hpp"
#include "gen/generator.hpp"
#include "gen/presets.hpp"
#include "gen/registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/load.hpp"
#include "service/store.hpp"

using namespace adpm;

namespace {

constexpr std::size_t kSessions = 8;

void BM_ServiceFleet(benchmark::State& state) {
  const dpm::ScenarioSpec spec = gen::scenarioByName("sensing");
  const int workers = static_cast<int>(state.range(0));

  std::size_t operations = 0;
  std::size_t sessions = 0;
  double wall = 0.0;
  for (auto _ : state) {
    service::SessionStore::Options options;
    if (workers < 0) {
      options.executor.deterministic = true;
    } else {
      options.executor.threads = static_cast<unsigned>(workers);
    }
    service::SessionStore store{std::move(options)};

    service::LoadOptions load;
    load.sessions = kSessions;
    load.sim.adpm = true;
    load.sim.seed = 1;
    const service::LoadReport report = runLoad(store, spec, load);
    benchmark::DoNotOptimize(report.operations);
    operations += report.operations;
    sessions += report.completedSessions;
    wall += report.wallSeconds;
  }
  if (wall > 0.0) {
    state.counters["ops_per_sec"] =
        benchmark::Counter(static_cast<double>(operations) / wall);
    state.counters["sessions_per_sec"] =
        benchmark::Counter(static_cast<double>(sessions) / wall);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(operations));
}
BENCHMARK(BM_ServiceFleet)
    ->Arg(-1)  // deterministic inline baseline
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgNames({"workers"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ServiceFleetJournaled(benchmark::State& state) {
  // Same fleet with the write-ahead log on: the price of durability.
  const dpm::ScenarioSpec spec = gen::scenarioByName("sensing");
  const std::string walDir =
      (std::filesystem::temp_directory_path() / "adpm_bench_wal").string();
  std::size_t operations = 0;
  double wall = 0.0;
  for (auto _ : state) {
    std::filesystem::remove_all(walDir);
    service::SessionStore::Options options;
    options.executor.threads = static_cast<unsigned>(state.range(0));
    options.walDir = walDir;
    service::SessionStore store{std::move(options)};

    service::LoadOptions load;
    load.sessions = kSessions;
    load.sim.adpm = true;
    load.sim.seed = 1;
    const service::LoadReport report = runLoad(store, spec, load);
    operations += report.operations;
    wall += report.wallSeconds;
  }
  std::filesystem::remove_all(walDir);
  if (wall > 0.0) {
    state.counters["ops_per_sec"] =
        benchmark::Counter(static_cast<double>(operations) / wall);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(operations));
}
BENCHMARK(BM_ServiceFleetJournaled)
    ->Arg(4)
    ->ArgNames({"workers"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Size sweep: the same fleet on generated zoo scenarios of increasing
// constraint count (the `constraints` counter is the x-axis).  Per-session
// operations are capped tightly: on the larger networks each operation costs
// milliseconds of propagation, so the cap keeps an iteration bounded while
// still measuring the per-operation service cost at that size (ops_per_sec
// is a rate, not a completion count — zoo-toy finishes, the rest won't).
void BM_ServiceFleetGenerated(benchmark::State& state) {
  static constexpr const char* kPresets[] = {"zoo-toy", "zoo-small",
                                             "zoo-medium"};
  const dpm::ScenarioSpec spec =
      gen::generate(
          gen::zooPreset(kPresets[static_cast<std::size_t>(state.range(0))]))
          .spec;

  std::size_t operations = 0;
  double wall = 0.0;
  for (auto _ : state) {
    service::SessionStore::Options options;
    options.executor.threads = 4;
    service::SessionStore store{std::move(options)};

    service::LoadOptions load;
    load.sessions = 4;
    load.sim.adpm = true;
    load.sim.seed = 1;
    load.maxOperationsPerSession = 100;
    const service::LoadReport report = runLoad(store, spec, load);
    benchmark::DoNotOptimize(report.operations);
    operations += report.operations;
    wall += report.wallSeconds;
  }
  state.counters["constraints"] =
      benchmark::Counter(static_cast<double>(spec.constraints.size()));
  if (wall > 0.0) {
    state.counters["ops_per_sec"] =
        benchmark::Counter(static_cast<double>(operations) / wall);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(operations));
}
BENCHMARK(BM_ServiceFleetGenerated)
    ->DenseRange(0, 2)
    ->ArgNames({"zoo"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Recovery cost: O(work since the last checkpoint), not O(session
// lifetime).  A session of `ops` operations is recorded once per arg pair
// (outside the timing loop), then recovered repeatedly.  With checkpointing
// off, recovery replays the whole log, so the 640-op point costs ~10x the
// 64-op one; with a checkpoint every 48 operations both points replay the
// same short tail and the series is flat — the bounded-recovery claim,
// directly measurable as ops_replayed and wall time in BENCH_service.json.
void BM_Recovery(benchmark::State& state) {
  const std::size_t opsInLog = static_cast<std::size_t>(state.range(0));
  const std::size_t checkpointEvery = static_cast<std::size_t>(state.range(1));

  const dpm::ScenarioSpec spec = gen::scenarioByName("sensing");
  service::SessionConfig cfg;
  cfg.id = "bench";
  cfg.adpm = true;
  cfg.scenarioName = spec.name;
  cfg.scenarioDddl = dddl::write(spec);

  service::Session::Options opts;
  opts.markEvery = 16;
  opts.segmentOps = 64;
  opts.checkpointEvery = checkpointEvery;
  opts.checkpointKeep = 2;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("adpm_bench_recovery_" + std::to_string(opsInLog) + "_" +
       std::to_string(checkpointEvery));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base = (dir / "bench.wal").string();
  {
    service::SegmentedLog::Options lo;
    lo.segmentOps = opts.segmentOps;
    service::Session session(
        cfg, spec, std::make_unique<service::SegmentedLog>(base, cfg, lo),
        opts);
    const std::size_t props = session.manager().network().propertyCount();
    for (std::size_t i = 0; i < opsInLog; ++i) {
      // Deterministic synthetic stream: round-robin property rebinds keep δ
      // (and with λ=T the full propagation + guidance pipeline) busy for as
      // many operations as the log length calls for.
      dpm::Operation op;
      op.kind = dpm::OperatorKind::Synthesis;
      op.problem = dpm::ProblemId{0};
      op.designer = "gen";
      op.assignments.emplace_back(
          constraint::PropertyId{static_cast<std::uint32_t>(i % props)},
          0.25 + 0.125 * static_cast<double>(i % 7));
      session.apply(std::move(op));
    }
  }

  std::size_t opsReplayed = 0;
  std::size_t segmentsReplayed = 0;
  bool checkpointUsed = false;
  for (auto _ : state) {
    service::SalvageOutcome out;
    const auto recovered = service::recoverSession(
        base, opts, service::RecoveryPolicy::Strict, &out);
    benchmark::DoNotOptimize(recovered->stage());
    opsReplayed = out.operationsReplayed;
    segmentsReplayed = out.segmentsReplayed;
    checkpointUsed = out.checkpointUsed;
  }
  std::filesystem::remove_all(dir);

  state.counters["ops_in_log"] =
      benchmark::Counter(static_cast<double>(opsInLog));
  state.counters["ops_replayed"] =
      benchmark::Counter(static_cast<double>(opsReplayed));
  state.counters["segments_replayed"] =
      benchmark::Counter(static_cast<double>(segmentsReplayed));
  state.counters["checkpoint_used"] =
      benchmark::Counter(checkpointUsed ? 1.0 : 0.0);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      opsReplayed * static_cast<std::size_t>(state.iterations())));
}
BENCHMARK(BM_Recovery)
    ->Args({64, 0})
    ->Args({640, 0})
    ->Args({64, 48})
    ->Args({640, 48})
    ->ArgNames({"ops", "ckpt_every"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ServiceWire(benchmark::State& state) {
  // Clients over the wire: the same fleet, but every designer drives its
  // session through a TCP connection against a net::Server (one connection
  // + shadow manager per session, loopback).  ops_per_sec is the end-to-end
  // wire throughput; apply_rtt_us the mean Apply request/response round
  // trip; bus_downgrades counts the times a subscription queue reached the
  // bus's high-water mark (NotificationBus::kHighWater) under write
  // backpressure and its stream collapsed into one ResyncRequired.
  const std::string dddlText = dddl::write(gen::scenarioByName("sensing"));
  const std::size_t clients = static_cast<std::size_t>(state.range(0));

  std::size_t operations = 0;
  std::size_t downgrades = 0;
  double wall = 0.0;
  double rttWeighted = 0.0;
  for (auto _ : state) {
    service::SessionStore::Options options;
    options.executor.threads = 4;
    service::SessionStore store{std::move(options)};
    net::Server server(store, net::Server::Options{});
    const std::uint16_t port = server.start();

    net::Client::Options client;
    client.port = port;
    service::LoadOptions load;
    load.sessions = clients;
    load.sim.adpm = true;
    load.sim.seed = 1;
    const service::LoadReport report =
        service::runLoad(net::wireHost(client, dddlText), load);
    benchmark::DoNotOptimize(report.operations);
    operations += report.operations;
    wall += report.wallSeconds;
    rttWeighted +=
        report.applyRttMeanMicros * static_cast<double>(report.operations);
    downgrades += store.bus().downgrades();
    server.shutdown(std::chrono::seconds(5));
  }
  if (wall > 0.0) {
    state.counters["ops_per_sec"] =
        benchmark::Counter(static_cast<double>(operations) / wall);
  }
  if (operations > 0) {
    state.counters["apply_rtt_us"] =
        benchmark::Counter(rttWeighted / static_cast<double>(operations));
  }
  state.counters["bus_downgrades"] =
      benchmark::Counter(static_cast<double>(downgrades));
  state.SetItemsProcessed(static_cast<std::int64_t>(operations));
}
BENCHMARK(BM_ServiceWire)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgNames({"clients"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
