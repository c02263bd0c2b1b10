// Micro-benchmarks for the constraint substrate (google-benchmark).
//
// Not a paper figure: these quantify the cost of the primitives behind
// ADPM's "computational penalty" — one HC4 revise, one full propagation
// fixpoint, the single-pass ablation, and a what-if (relaxed) propagation —
// on both evaluation networks.  DESIGN.md lists the fixpoint-vs-single-pass
// choice as an ablation; the speed side of that trade-off lives here.
//
// The propagation series repeat one box, so after the first iteration every
// revise would be replayed from the constraints' revise traces.  Each takes
// a `warm` argument: warm:0 (cold) forgets the traces before every
// iteration, so each revise sweeps its expression; warm:1 keeps them, the
// replay path.  `replayed_per_run` counts the revises served from a trace
// per iteration.
#include <benchmark/benchmark.h>

#include "constraint/miner.hpp"
#include "constraint/propagate.hpp"
#include "dpm/scenario.hpp"
#include "expr/sweep.hpp"
#include "gen/generator.hpp"
#include "gen/presets.hpp"
#include "gen/registry.hpp"
#include "teamsim/engine.hpp"

using namespace adpm;

namespace {

std::unique_ptr<dpm::DesignProcessManager> makeManager(bool receiver) {
  auto mgr = std::make_unique<dpm::DesignProcessManager>(
      dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(gen::scenarioByName(receiver ? "receiver" : "sensing"),
                   *mgr);
  return mgr;
}

// One propagation revise: the fused, tolerance-padded call the propagator
// makes for every constraint it dequeues.
void BM_Hc4Revise(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  auto& net = mgr->network();
  const auto box = net.currentBox();
  auto working = box;
  std::size_t i = 0;
  const auto ids = net.constraintIds();
  for (auto _ : state) {
    auto& c = net.constraint(ids[i % ids.size()]);
    benchmark::DoNotOptimize(c.compiled().revisePadded(
        c.target(), {working.data(), working.size()}));
    // revise narrows only the constraint's own slots; restore just those.
    for (const expr::VarId v : c.compiled().variables()) working[v] = box[v];
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Hc4Revise)->Arg(0)->Arg(1)->ArgNames({"receiver"});

/// Items processed and the `replayed_per_run` counter of a propagation
/// series.
void reportRuns(benchmark::State& state, std::size_t replayed) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["replayed_per_run"] = benchmark::Counter(
      static_cast<double>(replayed) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1)));
}

/// Benchmarks one propagation per iteration (`run` returns its result);
/// cold iterations forget the revise traces first.
template <typename Run>
void propagationLoop(benchmark::State& state, constraint::Network& net,
                     bool warm, Run run) {
  std::size_t replayed = 0;
  for (auto _ : state) {
    if (!warm) net.forgetReviseTraces();
    const constraint::PropagationResult r = run();
    replayed += r.replayed;
    benchmark::DoNotOptimize(r);
  }
  reportRuns(state, replayed);
}

void BM_PropagationFixpoint(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  constraint::Propagator prop;
  propagationLoop(state, mgr->network(), state.range(1) != 0,
                  [&] { return prop.run(mgr->network()); });
}
BENCHMARK(BM_PropagationFixpoint)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"receiver", "warm"});

void BM_PropagationSinglePass(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  constraint::Propagator prop{
      constraint::Propagator::Options{.fixpoint = false}};
  propagationLoop(state, mgr->network(), state.range(1) != 0,
                  [&] { return prop.run(mgr->network()); });
}
BENCHMARK(BM_PropagationSinglePass)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"receiver", "warm"});

void BM_WhatIfRelaxed(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  auto& net = mgr->network();
  // Bind a representative free variable so the relaxed run has work to do.
  const auto pid = net.propertyIds().at(7);
  net.bind(pid, net.property(pid).initial.hull().mid());
  constraint::Propagator prop;
  propagationLoop(state, net, state.range(1) != 0,
                  [&] { return prop.runRelaxed(net, pid); });
}
BENCHMARK(BM_WhatIfRelaxed)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"receiver", "warm"});

void BM_MinerFullPass(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  auto& net = mgr->network();
  const bool warm = state.range(1) != 0;
  constraint::Propagator prop;
  constraint::HeuristicMiner miner;
  std::size_t replayed = 0;
  for (auto _ : state) {
    if (!warm) net.forgetReviseTraces();
    const auto r = prop.run(net);
    const auto report = miner.mine(net, r);
    replayed += r.replayed + report.extraReplayed;
    benchmark::DoNotOptimize(report);
  }
  reportRuns(state, replayed);
}
BENCHMARK(BM_MinerFullPass)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"receiver", "warm"});

// Drives the first six unbound properties alternately to the top and bottom
// of their ranges (the differential tests' extremes recipe): a violated
// state in which bound properties sit in violations, so every mine also
// runs what-if propagations.
void bindExtremes(constraint::Network& net) {
  int bound = 0;
  for (const auto pid : net.propertyIds()) {
    if (bound == 6) break;
    const constraint::Property& p = net.property(pid);
    if (p.bound()) continue;
    const interval::Interval hull = p.initial.hull();
    net.bind(pid, bound % 2 == 0 ? hull.hi() : hull.lo());
    ++bound;
  }
}

// The DCM's per-operation mining pass, isolated.  Three states:
//   mode 1 — cold: initial state, one fused compiled-AD sweep per
//            constraint, the box generation bumped every iteration so the
//            cache never hits, Θ(nc) sweeps;
//   mode 2 — cached: unchanged initial box (repeated browser refreshes),
//            Θ(0) sweeps after the first mine;
//   mode 3 — violated: the extremes state, cold cache, so each mine pays
//            the AD sweeps plus a what-if propagation per bound property
//            caught in a violation — the what-if cost modes 1 and 2 never
//            reach, since an initial state binds nothing.
// Only mode 3 propagates, so only mode 3 has a warm:1 series (revise traces
// kept across mines); warm:0 forgets them before every mine.
// The `sweeps_per_mine` counter is the Θ-claim made observable, and
// `whatif_evals_per_mine` the charged what-if evaluations; wall time is the
// actual cost.
void BM_MineGuidance(benchmark::State& state) {
  const bool receiver = state.range(0) != 0;
  const int mode = static_cast<int>(state.range(1));
  const bool warm = state.range(2) != 0;
  auto mgr = makeManager(receiver);
  auto& net = mgr->network();
  if (mode == 3) bindExtremes(net);
  constraint::Propagator prop;
  const auto propagation = prop.run(net);
  const constraint::HeuristicMiner miner;

  // An unbound property whose no-op unbind bumps the box generation without
  // changing the box — the cache-invalidation knob for the cold modes.
  const auto unboundPid = [&]() {
    for (const auto pid : net.propertyIds()) {
      if (!net.property(pid).bound()) return pid;
    }
    return net.propertyIds().front();
  }();

  expr::resetSweepCount();
  std::uint64_t mines = 0;
  std::size_t whatIf = 0;
  std::size_t replayed = 0;
  for (auto _ : state) {
    if (mode != 2) net.unbind(unboundPid);
    if (!warm) net.forgetReviseTraces();
    const auto report = miner.mine(net, propagation);
    whatIf += report.extraEvaluations;
    replayed += report.extraReplayed;
    benchmark::DoNotOptimize(report);
    ++mines;
  }
  if (mode == 3 && whatIf == 0) {
    state.SkipWithError("violated state ran no what-if propagation");
    return;
  }
  reportRuns(state, replayed);
  const double perMine = mines == 0 ? 0.0 : 1.0 / static_cast<double>(mines);
  state.counters["sweeps_per_mine"] = benchmark::Counter(
      static_cast<double>(expr::sweepCount()) * perMine);
  state.counters["whatif_evals_per_mine"] =
      benchmark::Counter(static_cast<double>(whatIf) * perMine);
}
BENCHMARK(BM_MineGuidance)
    ->Args({0, 1, 0})
    ->Args({0, 2, 0})
    ->Args({0, 3, 0})
    ->Args({0, 3, 1})
    ->Args({1, 1, 0})
    ->Args({1, 2, 0})
    ->Args({1, 3, 0})
    ->Args({1, 3, 1})
    ->ArgNames({"receiver", "mode", "warm"});

// Size sweep over the generated scenario zoo (~10 → ~6000 constraints).
// Zoom levels are forced eager so the whole network is active and the
// constraint count really is the series' x-axis; the `constraints` /
// `properties` counters carry it into the JSON that scripts/bench_json.sh
// writes.
void BM_PropagationGeneratedSweep(benchmark::State& state) {
  static constexpr const char* kPresets[] = {"zoo-toy", "zoo-small",
                                             "zoo-medium", "zoo-large",
                                             "zoo-xl"};
  gen::GenParams params =
      gen::zooPreset(kPresets[static_cast<std::size_t>(state.range(0))]);
  for (auto& level : params.zoom) level.deferred = false;

  auto mgr = std::make_unique<dpm::DesignProcessManager>(
      dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(gen::generate(params).spec, *mgr);
  constraint::Propagator prop;
  propagationLoop(state, mgr->network(), state.range(1) != 0,
                  [&] { return prop.run(mgr->network()); });
  state.counters["constraints"] = benchmark::Counter(
      static_cast<double>(mgr->network().constraintIds().size()));
  state.counters["properties"] = benchmark::Counter(
      static_cast<double>(mgr->network().propertyIds().size()));
}
BENCHMARK(BM_PropagationGeneratedSweep)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 4, 1), {0, 1}})
    ->ArgNames({"zoo", "warm"})
    ->Unit(benchmark::kMillisecond);

void BM_FullSimulation(benchmark::State& state) {
  const bool receiver = state.range(0) != 0;
  const bool adpm = state.range(1) != 0;
  const dpm::ScenarioSpec spec =
      gen::scenarioByName(receiver ? "receiver" : "sensing");
  std::uint64_t seed = 1;
  for (auto _ : state) {
    teamsim::SimulationOptions options;
    options.adpm = adpm;
    options.seed = seed++;
    teamsim::SimulationEngine engine(spec, options);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullSimulation)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->ArgNames({"receiver", "adpm"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
