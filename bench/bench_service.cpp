// Throughput of the concurrent design-session service (google-benchmark).
//
// Each iteration mounts a fleet of sessions (TeamSim designers as clients)
// on a fresh store and drives every session to completion; the counters
// report aggregate operations/sec and sessions/sec as seen by runLoad's
// steady clock.  The numbers include the client side: each session's
// driver thread proposes against and executes every operation on its own
// shadow manager, so δ runs twice per operation.  The worker-count
// argument sweeps the executor pool (1/2/4), so the scaling curve —
// ops/sec at 4 workers over ops/sec at 1 — falls directly out of the JSON
// that scripts/bench_json.sh writes.  The deterministic arg (-1) measures
// the zero-thread inline mode as the serial baseline.  Note that the
// machine must actually have >1 hardware thread for the upper points to
// scale; on a single-core container the curve is flat by construction.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <utility>

#include "gen/registry.hpp"
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

}  // namespace

BENCHMARK_MAIN();
