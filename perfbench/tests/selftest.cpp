// Self-tests of the benchmark's own arithmetic and gates.
//
//   perfbench_selftest <path/to/session_server_cli> <work-dir>
//
// Covers the percentile support rule, span self time, the spread of set-up
// repeats over a run, and that an injected shadow-digest mismatch aborts
// every workload with CorrectnessError.
// Exits nonzero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool throwsUnsupported(const std::vector<double>& v, double q) {
  try {
    (void)percentile(v, q, "test");
  } catch (const UnsupportedPercentile&) {
    return true;
  }
  return false;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void testPercentileSupport() {
  check(percentile(iota(100), 0.9, "p90") == 90.0, "p90 of 1..100 is 90");
  check(!throwsUnsupported(iota(100), 0.9), "p90 over 100 samples: 10 beyond");
  check(throwsUnsupported(iota(99), 0.9),
        "p90 over 99 samples: 9 beyond fails");
  check(!throwsUnsupported(iota(1000), 0.99), "p99 over 1000 samples");
  check(throwsUnsupported(iota(999), 0.99), "p99 over 999 samples fails");
  check(!throwsUnsupported(iota(20), 0.5), "p50 over 20 samples");
  check(throwsUnsupported(iota(19), 0.5), "p50 over 19 samples fails");
  check(throwsUnsupported({}, 0.5), "no samples fails");
  check(percentile(iota(20), 0.5, "p50") == 10.0, "p50 of 1..20 is 10");
  check(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  check(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of four");
  Report r;
  bool threw = false;
  try {
    r.addLatency("op", iota(50), {0.5, 0.99});
  } catch (const UnsupportedPercentile&) {
    threw = true;
  }
  check(threw, "Report::addLatency refuses an unsupported p99");
}

void testSelfTime() {
  // parent [0,100]; children [10,30] and [20,50] overlap, [90,120] is
  // clipped to the parent: covered 40 + 10, so the parent's self time is 50.
  std::vector<SpanRecord> spans = {
      {"a.parent", 0, 100, 1, 0, 7},
      {"b.child", 10, 30, 2, 1, 7},
      {"b.child", 20, 50, 3, 1, 7},
      {"c.late", 90, 120, 4, 1, 7},
      {"b.grandchild", 12, 18, 5, 2, 7},
  };
  const std::vector<std::int64_t> self = selfTimesNs(spans);
  check(self[0] == 50, "parent self time excludes the union of children");
  check(self[1] == 14, "child self time excludes its grandchild");
  check(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self times");
  const auto byLayer = selfMsByLayer(spans);
  check(std::abs(byLayer.at("b") - 50e-6) < 1e-12, "per-layer self time sums");

  Tracer tracer(true);
  {
    Tracer::Span outer(tracer, "x.outer", 42);
    Tracer::Span inner(tracer, "y.inner");
  }
  const std::vector<SpanRecord> got = tracer.spans();
  check(got.size() == 2 && got[0].parent == got[1].id && got[0].op == 42,
        "nested spans link to their parent and inherit the op id");
  Tracer off(false);
  { Tracer::Span s(off, "x.off"); }
  check(off.spans().empty(), "a disabled tracer records nothing");
}

void testSetupSpread() {
  const auto due = [](std::size_t rounds) {
    std::vector<std::size_t> at;
    for (std::size_t r = 0; r < rounds; ++r) {
      if (setupRepeatDue(r, rounds)) at.push_back(r);
    }
    return at;
  };
  const std::vector<std::size_t> at45 = due(45);
  check(at45.size() == kSetupRepeats - 1 && at45.back() == 44,
        "45 rounds: set-up repeats spread to the last round");
  check(at45.front() >= 3, "45 rounds: no repeat bunched at the start");
  check(due(kSetupRepeats - 1).size() == kSetupRepeats - 1,
        "one repeat after every round when rounds equal the repeats");
  check(due(3).size() == 3, "3 rounds: a repeat after each, rest topped up");
}

void testInjectedMismatch(const std::string& server, const std::string& dir) {
  const std::vector<std::pair<std::string, std::function<Outcome(Config&)>>>
      workloads = {
          {"teamsim-zoo-medium",
           [](Config& c) {
             Tracer t(false);
             return runTeamsim(c, t);
           }},
          {"wire-sensing",
           [](Config& c) {
             Tracer t(false);
             return runWire(c, t, false);
           }},
          {"wire-open-churn",
           [](Config& c) {
             Tracer t(false);
             return runWire(c, t, true);
           }},
          {"restart-recover",
           [](Config& c) {
             Tracer t(false);
             return runRestart(c, t);
           }},
      };
  for (const auto& [name, run] : workloads) {
    Config config;
    config.workload = name;
    config.smoke = true;
    config.serverBinary = server;
    config.workDir = dir;
    config.injectDigestMismatch = true;
    bool detected = false;
    try {
      (void)run(config);
    } catch (const CorrectnessError&) {
      detected = true;
    }
    check(detected, name + ": injected shadow-digest mismatch is detected");
    config.injectDigestMismatch = false;
    bool clean = true;
    try {
      (void)run(config);
    } catch (const std::exception& e) {
      std::printf("     %s\n", e.what());
      clean = false;
    }
    check(clean, name + ": the same smoke run passes without the injection");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_selftest <server> <work-dir>\n");
    return 2;
  }
  testPercentileSupport();
  testSelfTime();
  testSetupSpread();
  testInjectedMismatch(argv[1], argv[2]);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
