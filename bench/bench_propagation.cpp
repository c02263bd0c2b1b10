// Micro-benchmarks for the constraint substrate (google-benchmark).
//
// Not a paper figure: these quantify the cost of the primitives behind
// ADPM's "computational penalty" — one HC4 revise, one full propagation
// fixpoint, the single-pass ablation, and a what-if (relaxed) propagation —
// on both evaluation networks.  DESIGN.md lists the fixpoint-vs-single-pass
// choice as an ablation; the speed side of that trade-off lives here.
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

void BM_PropagationFixpoint(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  constraint::Propagator prop;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.run(mgr->network()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PropagationFixpoint)->Arg(0)->Arg(1)->ArgNames({"receiver"});

void BM_PropagationSinglePass(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  constraint::Propagator prop{
      constraint::Propagator::Options{.fixpoint = false}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.run(mgr->network()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PropagationSinglePass)->Arg(0)->Arg(1)->ArgNames({"receiver"});

void BM_WhatIfRelaxed(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  auto& net = mgr->network();
  // Bind a representative free variable so the relaxed run has work to do.
  const auto pid = net.propertyIds().at(7);
  net.bind(pid, net.property(pid).initial.hull().mid());
  constraint::Propagator prop;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.runRelaxed(net, pid));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WhatIfRelaxed)->Arg(0)->Arg(1)->ArgNames({"receiver"});

void BM_MinerFullPass(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  constraint::Propagator prop;
  constraint::HeuristicMiner miner;
  for (auto _ : state) {
    const auto r = prop.run(mgr->network());
    benchmark::DoNotOptimize(miner.mine(mgr->network(), r));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MinerFullPass)->Arg(0)->Arg(1)->ArgNames({"receiver"});

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
// The `sweeps_per_mine` counter is the Θ-claim made observable, and
// `whatif_evals_per_mine` the charged what-if evaluations; wall time is the
// actual cost.
void BM_MineGuidance(benchmark::State& state) {
  const bool receiver = state.range(0) != 0;
  const int mode = static_cast<int>(state.range(1));
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
  for (auto _ : state) {
    if (mode != 2) net.unbind(unboundPid);
    const auto report = miner.mine(net, propagation);
    whatIf += report.extraEvaluations;
    benchmark::DoNotOptimize(report);
    ++mines;
  }
  if (mode == 3 && whatIf == 0) {
    state.SkipWithError("violated state ran no what-if propagation");
    return;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  const double perMine = mines == 0 ? 0.0 : 1.0 / static_cast<double>(mines);
  state.counters["sweeps_per_mine"] = benchmark::Counter(
      static_cast<double>(expr::sweepCount()) * perMine);
  state.counters["whatif_evals_per_mine"] =
      benchmark::Counter(static_cast<double>(whatIf) * perMine);
}
BENCHMARK(BM_MineGuidance)
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({0, 3})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({1, 3})
    ->ArgNames({"receiver", "mode"});

// Size sweep over the generated scenario zoo (~10 → ~6000 constraints).
// Zoom levels are forced eager so the whole network is active and the
// constraint count really is the series' x-axis; the `constraints` /
// `properties` counters carry it into BENCH_propagation.json.
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
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.run(mgr->network()));
  }
  state.counters["constraints"] = benchmark::Counter(
      static_cast<double>(mgr->network().constraintIds().size()));
  state.counters["properties"] = benchmark::Counter(
      static_cast<double>(mgr->network().propertyIds().size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PropagationGeneratedSweep)
    ->DenseRange(0, 4)
    ->ArgNames({"zoo"})
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
