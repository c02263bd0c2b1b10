// perfbench: one measured run of the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --server <path/to/session_server_cli>
//             [--server-threads 2] [--connections 2] [--work-dir .bench_tmp]
//             [--smoke] [--inject-digest-mismatch]
//
// Prints the host fingerprint, every metric of the run by name with its
// unit (and sample count for latencies), then one line
// "PERFBENCH_RESULT {json}" that perfbench/run.py turns into the final
// result line.  Exit codes: 0 ok, 2 usage, 3 an output was incorrect,
// 4 a percentile the run cannot support, 5 a build unfit to measure,
// 1 anything else.  Nothing is printed as a result unless every
// correctness check passed.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "host.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "wire.hpp"

using namespace perfbench;

namespace {

const char* const kWorkloads[] = {"teamsim-zoo-medium", "wire-sensing",
                                  "wire-open-churn", "restart-recover"};

void onSignal(int sig) {
  killSpawnedServers();
  _exit(128 + sig);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <teamsim-zoo-medium|wire-sensing|"
               "wire-open-churn|restart-recover> --seed <n> --seconds <s> "
               "--trace <0|1> --server <session_server_cli> "
               "[--server-threads n] [--connections n] [--work-dir dir] "
               "[--smoke] [--inject-digest-mismatch]\n",
               why);
  return 2;
}

Outcome runWorkload(const Config& config, Tracer& tracer) {
  if (config.workload == "teamsim-zoo-medium") {
    return runTeamsim(config, tracer);
  }
  if (config.workload == "wire-sensing") return runWire(config, tracer, false);
  if (config.workload == "wire-open-churn") {
    return runWire(config, tracer, true);
  }
  return runRestart(config, tracer);
}

/// Per-layer metrics every traced run reports whatever its workload: the
/// service, WAL, codec, (outside the wire workloads) a short wire-sensing
/// run for the Status-frame and round-trip numbers, and (outside
/// wire-open-churn) a short wire-open-churn run for the Open-overlap split.
void addSharedProbes(const Config& config, Tracer& tracer, Report& layer) {
  const bool wire = config.workload.rfind("wire-", 0) == 0;
  const SensingStreams streams = recordSensingStreams(config.seed, 48);
  {
    TempDir tmp(config.workDir);
    const RecoverCounts counts =
        runServiceProbes(streams, WalSettings{}, tmp.path(), tracer, layer);
    if (config.workload != "restart-recover") {
      reportRecoverCounts(counts, layer);
    }
  }
  runCodecProbes(streams, config.smoke ? "zoo-toy" : "zoo-large", config.seed,
                 tracer, layer);
  Tracer off(false);
  Config mini = config;
  mini.trace = false;
  if (!wire) {
    WirePlan plan = wirePlan(mini, false);
    plan.setupRepeats = 1;
    plan.sessionsPerConnection = config.smoke ? 40 : 60;
    reportWireLayers(driveWire(mini, plan, off), layer);
  }
  if (config.workload != "wire-open-churn") {
    // The reactor stall: sensing beside a connection that Opens the large
    // scenario, as in wire-open-churn.
    WirePlan plan = wirePlan(mini, true);
    plan.setupRepeats = 1;
    plan.sessionsPerConnection = 20;
    plan.churnCycles = 20;
    reportOpenSplit(driveWire(mini, plan, off), layer);
  }
  const double rtt = layer.find("net.apply_rtt_p50_us")->value;
  const double service = layer.find("service.apply_p50_us")->value;
  layer.add("net.overhead_us", rtt - service, "us");
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
        haveSeed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
        haveSeconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        config.trace = v == "1";
        haveTrace = true;
      } else if (arg == "--server") {
        config.serverBinary = value();
      } else if (arg == "--server-threads") {
        config.serverThreads = static_cast<unsigned>(std::stoul(value()));
      } else if (arg == "--connections") {
        config.connections = static_cast<unsigned>(std::stoul(value()));
      } else if (arg == "--work-dir") {
        config.workDir = value();
      } else if (arg == "--smoke") {
        config.smoke = true;
      } else if (arg == "--inject-digest-mismatch") {
        config.injectDigestMismatch = true;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || config.workload == w;
  if (!known) return usage("unknown or missing --workload");
  if (!haveSeed || !haveSeconds || !haveTrace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (config.seconds <= 0 || config.serverThreads == 0 ||
      config.connections == 0) {
    return usage("--seconds, --server-threads and --connections must be > 0");
  }
  if (config.serverBinary.empty() ||
      access(config.serverBinary.c_str(), X_OK) != 0) {
    return usage("--server must name the session_server_cli binary");
  }
  const std::string hygiene = buildHygieneViolation();
  if (!hygiene.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                 hygiene.c_str());
    return 5;
  }
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  namespace json = adpm::util::json;
  json::Value host{json::Object{}};
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d server_threads=%u "
              "connections=%u\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.serverThreads, config.connections);
  for (const auto& [key, value] : hostFingerprint()) {
    std::printf("host %s=%s\n", key.c_str(), value.c_str());
    host.set(key, value);
  }
  std::fflush(stdout);

  try {
    std::filesystem::create_directories(config.workDir);
    Tracer tracer(config.trace);
    const auto steal0 = hostStealJiffies();
    Outcome out = runWorkload(config, tracer);
    const auto steal1 = hostStealJiffies();
    const double stealPct =
        steal1.second > steal0.second
            ? 100.0 * static_cast<double>(steal1.first - steal0.first) /
                  static_cast<double>(steal1.second - steal0.second)
            : 0.0;
    std::printf("host steal_pct=%.2f (hypervisor steal during the run)\n",
                stealPct);
    host.set("steal_pct", stealPct);
    if (config.trace) addSharedProbes(config, tracer, out.perLayer);

    std::printf("end-to-end metrics:\n%s", out.endToEnd.text().c_str());
    if (config.trace) {
      std::printf("per-layer metrics:\n%s", out.perLayer.text().c_str());
      std::printf("layer self time (traced spans):\n%s",
                  layerSelfTimes(tracer).c_str());
      if (config.workload.rfind("wire-", 0) == 0) {
        // The decomposition the sensing op stream supports: every term is
        // measured on the same operations.
        const double rtt = out.perLayer.find("net.apply_rtt_p50_us")->value;
        const double service = out.perLayer.find("service.apply_p50_us")->value;
        const double execute =
            out.perLayer.find("dpm.execute_p50_ms")->value * 1000.0;
        std::printf(
            "Apply RTT p50 %.1f us = dpm.execute p50 %.1f us + service "
            "overhead %.1f us + net overhead %.1f us\n",
            rtt, execute, service - execute, rtt - service);
      }
      const std::string path = config.workDir + "/trace-" + config.workload +
                               ".tsv";
      tracer.write(path);
      std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                  path.c_str());
    }

    json::Value config_{json::Object{}};
    config_.set("server_threads",
                static_cast<std::size_t>(config.serverThreads));
    config_.set("connections", static_cast<std::size_t>(config.connections));
    config_.set("seconds", config.seconds);
    config_.set("smoke", config.smoke);
    json::Value result{json::Object{}};
    result.set("workload", config.workload);
    result.set("seed", static_cast<double>(config.seed));
    result.set("trace", config.trace);
    result.set("correct", true);
    result.set("attempted", out.attempted);
    result.set("failed", out.failed);
    result.set("host", std::move(host));
    result.set("config", std::move(config_));
    result.set("metrics", json::parse(config.trace ? out.perLayer.json()
                                                   : out.endToEnd.json()));
    std::printf("PERFBENCH_RESULT %s\n", json::serialize(result).c_str());
    return 0;
  } catch (const CorrectnessError& e) {
    std::fprintf(stderr, "perfbench: INCORRECT OUTPUT: %s\n", e.what());
    return 3;
  } catch (const UnsupportedPercentile& e) {
    std::fprintf(stderr, "perfbench: run too short for its percentiles: %s\n",
                 e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
