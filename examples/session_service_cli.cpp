// Design-session service runner: host a fleet of concurrent design sessions
// (TeamSim designers as clients) on a worker pool, with durable operation
// logs and crash recovery.
//
//   $ ./session_service_cli --scenario sensing --sessions 8 --threads 4
//   $ ./session_service_cli --scenario receiver --sessions 4 --wal-dir /tmp/wal
//   $ ./session_service_cli --wal-dir /tmp/wal --recover      # after a crash
//
// Either way each session's designers keep a local shadow manager whose
// final digest must match the host's (the determinism check).  With
// --connect the host is a session_server_cli process on the far side of a
// TCP connection, one connection per session.
//
//   $ ./session_service_cli --connect 127.0.0.1:7101 --sessions 4 --seed 3
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dddl/writer.hpp"
#include "gen/generator.hpp"
#include "gen/registry.hpp"
#include "net/client.hpp"
#include "service/load.hpp"
#include "service/store.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/table.hpp"

using namespace adpm;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: session_service_cli [options]\n"
      "  --scenario <name>              registered scenario (see dddl_tool\n"
      "                                 list); includes generated zoo presets\n"
      "  --gen <paramfile.json>         generate the scenario from a\n"
      "                                 paramfile instead (works with\n"
      "                                 --connect: the generated DDDL is\n"
      "                                 shipped over the wire)\n"
      "  --gen-seed <n>                 generator seed override\n"
      "  --sessions <n>                 concurrent sessions (default 8)\n"
      "  --threads <n>                  worker threads (default 4)\n"
      "  --deterministic                single-threaded inline execution:\n"
      "                                 one thread drives the sessions in\n"
      "                                 turn (byte-stable WALs and failpoint\n"
      "                                 order)\n"
      "  --adpm | --conventional        process flow (default ADPM)\n"
      "  --seed <n>                     base seed; session i uses seed+i\n"
      "  --max-ops <n>                  per-session operation cap\n"
      "  --wal-dir <dir>                journal sessions to <dir>/<id>.wal\n"
      "  --recover                      rebuild sessions from --wal-dir and\n"
      "                                 print their replayed state (no load);\n"
      "                                 exits 1 if any session was lost\n"
      "  --salvage                      recover damaged logs by truncating to\n"
      "                                 the longest trustworthy prefix\n"
      "  --fault-plan <spec>            arm failpoints, e.g.\n"
      "                                 'wal.append=short-write:every=3'\n"
      "                                 (needs -DADPM_FAULT_INJECTION=ON)\n"
      "  --connect <host:port>          drive the sessions over the wire\n"
      "                                 against a session_server_cli instead\n"
      "                                 of an in-process store (sends the\n"
      "                                 scenario as DDDL; exits 1 on any\n"
      "                                 failed session)\n"
      "  --id-prefix <prefix>           session id prefix (default 'load-',\n"
      "                                 'wire-' with --connect; must be\n"
      "                                 unique per driver process)\n"
      "  --max-reconnects <n>           reconnect-and-resync attempts per\n"
      "                                 session (default 3)\n"
      "  --reconnect-attempts <n>       connection tries per reconnect under\n"
      "                                 capped backoff — rides out a\n"
      "                                 supervised server restart (default "
      "1)\n"
      "Every session's shadow digest is checked against its host; a\n"
      "mismatch exits 1.  In-process, a session retired by an injected\n"
      "fault counts as failed=N and the run still exits 0.\n");
  return 2;
}

/// `evaluations` is the host's total, known only in-process (empty over
/// the wire).
void printReport(const std::string& scenario, bool adpm,
                 const std::string& target, const service::LoadReport& report,
                 const std::string& evaluations) {
  std::printf(
      "scenario=%s flow=%s sessions=%zu target=%s\n"
      "completed=%zu operations=%zu%s\n"
      "notifications=%zu resyncs=%zu reconnects=%zu transientRetries=%zu "
      "failed=%zu digestMismatches=%zu\n"
      "wall=%.3fs ops/sec=%.0f applyRtt=%.0fus\n",
      scenario.c_str(), adpm ? "ADPM" : "conventional", report.sessions,
      target.c_str(), report.completedSessions, report.operations,
      evaluations.c_str(), report.notificationsReceived, report.resyncsRequired,
      report.reconnects, report.transientRetries, report.failedSessions,
      report.digestMismatches, report.wallSeconds, report.opsPerSecond,
      report.applyRttMeanMicros);
  if (!report.firstFailure.empty()) {
    std::fprintf(stderr, "first failure: %s\n", report.firstFailure.c_str());
  }
}

void printSessions(service::SessionStore& store) {
  util::TextTable t;
  t.header({"session", "stage", "complete", "evals", "violations", "digest"});
  for (const std::string& id : store.ids()) {
    const service::SessionSnapshot snap = store.snapshot(id).get();
    t.row({snap.id, std::to_string(snap.stage), snap.complete ? "yes" : "no",
           std::to_string(snap.evaluations), std::to_string(snap.violations),
           snap.digest});
  }
  std::printf("%s", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenarioName = "sensing";
  std::string genFile;
  std::uint64_t genSeed = 0;
  bool haveGenSeed = false;
  std::size_t sessions = 8;
  unsigned threads = 4;
  bool deterministic = false;
  bool adpm = true;
  std::uint64_t seed = 1;
  std::size_t maxOps = 20000;
  std::string walDir;
  bool recover = false;
  bool salvage = false;
  std::string faultPlan;
  std::string connect;
  std::string idPrefix;
  unsigned maxReconnects = 3;
  unsigned reconnectAttempts = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenarioName = next();
    } else if (arg == "--gen") {
      genFile = next();
    } else if (arg == "--gen-seed") {
      genSeed = std::strtoull(next(), nullptr, 10);
      haveGenSeed = true;
    } else if (arg == "--sessions") {
      sessions = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--deterministic") {
      deterministic = true;
    } else if (arg == "--adpm") {
      adpm = true;
    } else if (arg == "--conventional") {
      adpm = false;
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--max-ops") {
      maxOps = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--wal-dir") {
      walDir = next();
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg == "--salvage") {
      salvage = true;
    } else if (arg == "--fault-plan") {
      faultPlan = next();
    } else if (arg == "--connect") {
      connect = next();
    } else if (arg == "--id-prefix") {
      idPrefix = next();
    } else if (arg == "--max-reconnects") {
      maxReconnects = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--reconnect-attempts") {
      reconnectAttempts =
          static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else {
      return usage();
    }
  }

  try {
    if (!faultPlan.empty()) {
#if defined(ADPM_FAULT_INJECTION) && ADPM_FAULT_INJECTION
      util::FaultRegistry::instance().armFromSpec(faultPlan);
#else
      std::fprintf(stderr,
                   "--fault-plan ignored: binary built without "
                   "-DADPM_FAULT_INJECTION=ON\n");
#endif
    }

    dpm::ScenarioSpec spec;
    if (!genFile.empty()) {
      const gen::GenParams params = gen::loadParams(genFile);
      spec = (haveGenSeed ? gen::generate(params, genSeed)
                          : gen::generate(params))
                 .spec;
      scenarioName = spec.name;
    } else {
      spec = gen::scenarioByName(scenarioName);
    }

    service::LoadOptions load;
    load.sessions = sessions;
    load.sim.adpm = adpm;
    load.sim.seed = seed;
    load.maxOperationsPerSession = maxOps;

    if (!connect.empty()) {
      const std::size_t colon = connect.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect needs host:port\n");
        return 2;
      }
      net::Client::Options client;
      client.host = connect.substr(0, colon);
      client.port = static_cast<std::uint16_t>(
          std::strtoul(connect.c_str() + colon + 1, nullptr, 10));
      client.reconnectAttempts = reconnectAttempts;
      load.idPrefix = idPrefix.empty() ? "wire-" : idPrefix;
      // Ship the scenario as DDDL so any server accepts it, registry or not;
      // the server replies with its canonical rendering for the shadow.
      const service::LoadReport report = service::runLoad(
          net::wireHost(client, dddl::write(spec), maxReconnects), load);
      printReport(scenarioName, adpm, "tcp:" + connect, report, "");
      return (report.digestMismatches == 0 && report.failedSessions == 0) ? 0
                                                                          : 1;
    }

    service::SessionStore::Options options;
    options.executor.threads = threads;
    options.executor.deterministic = deterministic;
    options.walDir = walDir;
    if (salvage) options.recovery = service::RecoveryPolicy::Salvage;

    if (recover) {
      if (walDir.empty()) {
        std::fprintf(stderr, "--recover needs --wal-dir\n");
        return 2;
      }
      service::SessionStore store{std::move(options)};
      const std::vector<std::string> ids = store.recover();
      std::printf("recovered %zu session(s) from %s\n", ids.size(),
                  walDir.c_str());
      bool lost = false;
      for (const service::RecoveryEvent& event : store.recoverReport()) {
        if (event.sessionLost) {
          lost = true;
          std::fprintf(stderr, "lost: %s: %s\n", event.path.c_str(),
                       event.detail.c_str());
        } else if (event.salvaged) {
          std::fprintf(stderr,
                       "salvaged: %s: kept %zu stage(s), dropped %zu "
                       "operation(s) / %zu byte(s)%s%s\n",
                       event.path.c_str(), event.keptStage,
                       event.droppedOperations, event.droppedBytes,
                       event.detail.empty() ? "" : ": ",
                       event.detail.c_str());
        }
      }
      printSessions(store);
      return lost ? 1 : 0;
    }

    service::SessionStore store{std::move(options)};
    if (!idPrefix.empty()) load.idPrefix = idPrefix;
    const service::LoadReport report = runLoad(store, spec, load);

    std::size_t evaluations = 0;
    for (const std::string& id : store.ids()) {
      evaluations += store.snapshot(id).get().evaluations;
    }
    printReport(scenarioName, adpm,
                deterministic ? "inline" : std::to_string(threads) + "-workers",
                report, " evaluations=" + std::to_string(evaluations));
    const service::NotificationBus& bus = store.bus();
    std::printf("bus: published=%zu delivered=%zu dropped=%zu\n\n",
                bus.published(), bus.delivered(), bus.dropped());
    printSessions(store);
    if (!walDir.empty()) {
      std::printf("\noperation logs in %s (re-run with --recover to replay)\n",
                  walDir.c_str());
    }
    return report.digestMismatches == 0 ? 0 : 1;
  } catch (const adpm::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
