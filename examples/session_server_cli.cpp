// TCP design-session server: hosts a service::SessionStore behind the wire
// protocol (src/net) for multi-process clients.
//
//   $ ./session_server_cli --port 7101 --threads 4 --wal-dir /tmp/wal
//   $ ./session_server_cli --port 0 --port-file /tmp/port   # ephemeral port
//   $ ./session_server_cli --wal-dir /tmp/wal --recover     # resume after a crash
//   $ ./session_server_cli --self-check                     # loopback smoke
//
// Clients are session_service_cli --connect (the wire load driver) or any
// net::Client user.  SIGINT/SIGTERM trigger a graceful shutdown: stop
// accepting, announce Shutdown to every peer, drain the session strands
// (flushing their WAL appends), then flush and close the connections.  The
// exit code reports how that went:
//
//   0  clean drain (every queued command ran and every WAL is sealed)
//   3  forced stop (the drain deadline expired; queued work was abandoned)
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dddl/writer.hpp"
#include "gen/registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/store.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/table.hpp"

using namespace adpm;

namespace {

std::atomic<int> g_signal{0};

void onSignal(int sig) { g_signal.store(sig); }

int usage() {
  std::fprintf(
      stderr,
      "usage: session_server_cli [options]\n"
      "  --host <addr>             bind address (default 127.0.0.1)\n"
      "  --port <n>                TCP port; 0 = ephemeral (default 0)\n"
      "  --port-file <path>        write the bound port to <path>\n"
      "  --threads <n>             worker threads (default 4)\n"
      "  --wal-dir <dir>           journal sessions to <dir>/<id>.wal\n"
      "  --recover                 rebuild sessions from --wal-dir at start\n"
      "  --salvage                 recover damaged logs by truncation\n"
      "  --segment-ops <n>         rotate WAL segments past <n> operations\n"
      "  --segment-bytes <n>       rotate WAL segments past <n> bytes\n"
      "  --checkpoint-every <n>    durable state checkpoint every <n> ops\n"
      "  --checkpoint-keep <n>     checkpoints retained by compaction "
      "(default 2)\n"
      "  --no-open                 refuse remote Open frames\n"
      "  --command-timeout-ms <n>  queue-time deadline for every session\n"
      "                            command (the store's CommandPolicy)\n"
      "  --drain-timeout-ms <n>    graceful-shutdown drain budget "
      "(default 5000)\n"
      "  --fault-plan <spec>       arm failpoints, e.g. "
      "'net.write=short-write:every=50'\n"
      "  --self-check              loopback smoke: serve, drive 4 wire\n"
      "                            sessions in-process, verify digests, "
      "drain\n");
  return 2;
}

/// Registry for the server's Open-by-name path; specs are cached so the
/// resolver can hand out stable pointers.
const dpm::ScenarioSpec* resolveScenario(const std::string& name) {
  static std::map<std::string, dpm::ScenarioSpec> cache;
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(name);
  if (it == cache.end()) {
    try {
      it = cache.emplace(name, gen::scenarioByName(name)).first;
    } catch (const adpm::Error&) {
      return nullptr;
    }
  }
  return &it->second;
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

int selfCheck(service::SessionStore& store, net::Server& server,
              std::uint16_t port, std::chrono::milliseconds drainBudget) {
  net::Client::Options client;
  client.port = port;
  service::LoadOptions load;
  load.sessions = 4;
  load.idPrefix = "selfcheck-";
  load.sim.seed = 7;
  const service::LoadReport report = service::runLoad(
      net::wireHost(client, dddl::write(gen::scenarioByName("sensing"))),
      load);
  const bool drained = server.shutdown(drainBudget);
  std::printf(
      "self-check: sessions=%zu completed=%zu operations=%zu "
      "notifications=%zu digestMismatches=%zu failed=%zu drained=%s\n",
      report.sessions, report.completedSessions, report.operations,
      report.notificationsReceived, report.digestMismatches,
      report.failedSessions, drained ? "yes" : "no");
  printSessions(store);
  const bool ok = report.completedSessions == report.sessions &&
                  report.digestMismatches == 0 && report.failedSessions == 0 &&
                  drained;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string portFile;
  unsigned threads = 4;
  std::string walDir;
  bool recover = false;
  bool salvage = false;
  std::size_t segmentOps = 0;
  std::size_t segmentBytes = 0;
  std::size_t checkpointEvery = 0;
  std::size_t checkpointKeep = 2;
  bool allowOpen = true;
  long commandTimeoutMs = 0;
  long drainTimeoutMs = 5000;
  std::string faultPlan;
  bool selfCheckMode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--port-file") {
      portFile = next();
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--wal-dir") {
      walDir = next();
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg == "--salvage") {
      salvage = true;
    } else if (arg == "--segment-ops") {
      segmentOps = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--segment-bytes") {
      segmentBytes = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--checkpoint-every") {
      checkpointEvery = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--checkpoint-keep") {
      checkpointKeep = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--no-open") {
      allowOpen = false;
    } else if (arg == "--command-timeout-ms") {
      commandTimeoutMs = std::strtol(next(), nullptr, 10);
    } else if (arg == "--drain-timeout-ms") {
      drainTimeoutMs = std::strtol(next(), nullptr, 10);
    } else if (arg == "--fault-plan") {
      faultPlan = next();
    } else if (arg == "--self-check") {
      selfCheckMode = true;
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

    service::SessionStore::Options storeOptions;
    storeOptions.executor.threads = threads;
    storeOptions.walDir = walDir;
    storeOptions.session.segmentOps = segmentOps;
    storeOptions.session.segmentBytes = segmentBytes;
    storeOptions.session.checkpointEvery = checkpointEvery;
    storeOptions.session.checkpointKeep = checkpointKeep;
    storeOptions.command.timeout = std::chrono::milliseconds(commandTimeoutMs);
    if (salvage) storeOptions.recovery = service::RecoveryPolicy::Salvage;
    service::SessionStore store{std::move(storeOptions)};

    if (recover) {
      if (walDir.empty()) {
        std::fprintf(stderr, "--recover needs --wal-dir\n");
        return 2;
      }
      const std::vector<std::string> ids = store.recover();
      std::printf("recovered %zu session(s) from %s\n", ids.size(),
                  walDir.c_str());
      for (const service::RecoveryEvent& event : store.recoverReport()) {
        if (event.sessionLost) {
          std::fprintf(stderr, "lost: %s: %s\n", event.path.c_str(),
                       event.detail.c_str());
          continue;
        }
        if (event.salvaged) {
          std::fprintf(stderr, "salvaged: %s: kept %zu stage(s)\n",
                       event.path.c_str(), event.keptStage);
        }
        if (event.checkpointUsed) {
          std::printf(
              "checkpoint: %s: restored seq %zu at stage %zu, replayed "
              "%zu op(s) across %zu segment(s)\n",
              event.path.c_str(), event.checkpointSeq, event.checkpointStage,
              event.operationsReplayed, event.segmentsReplayed);
        }
        if (event.checkpointFallbacks > 0) {
          std::fprintf(stderr,
                       "checkpoint: %s: %zu damaged checkpoint(s) degraded "
                       "to an older one or full replay\n",
                       event.path.c_str(), event.checkpointFallbacks);
        }
      }
    }

    net::Server::Options serverOptions;
    serverOptions.host = host;
    serverOptions.port = port;
    serverOptions.allowOpen = allowOpen;
    serverOptions.scenarioByName = resolveScenario;
    net::Server server(store, serverOptions);
    const std::uint16_t bound = server.start();

    if (!portFile.empty()) {
      // Written atomically (temp + rename): a supervisor polling the file
      // must never read a half-written port number.
      const std::string tmp = portFile + ".tmp";
      std::FILE* f = std::fopen(tmp.c_str(), "w");
      bool ok = f != nullptr;
      if (f) {
        ok = std::fprintf(f, "%u\n", static_cast<unsigned>(bound)) > 0;
        ok = std::fclose(f) == 0 && ok;
      }
      if (ok) ok = std::rename(tmp.c_str(), portFile.c_str()) == 0;
      if (!ok) {
        std::remove(tmp.c_str());
        std::fprintf(stderr, "cannot write --port-file %s\n",
                     portFile.c_str());
        server.kill();
        return 2;
      }
    }
    std::printf("listening on %s:%u\n", host.c_str(),
                static_cast<unsigned>(bound));
    std::fflush(stdout);

    if (selfCheckMode) {
      return selfCheck(store, server, bound,
                       std::chrono::milliseconds(drainTimeoutMs));
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (g_signal.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const int sig = g_signal.load();
    std::printf("received %s; draining (budget %ld ms)\n",
                sig == SIGINT ? "SIGINT" : "SIGTERM", drainTimeoutMs);
    std::fflush(stdout);

    const bool drained =
        server.shutdown(std::chrono::milliseconds(drainTimeoutMs));
    const net::Server::Stats stats = server.stats();
    std::printf(
        "served: conns=%zu frames=%zu results=%zu errors=%zu pushes=%zu "
        "subscriptions=%zu protocolErrors=%zu timeouts=%zu\n",
        stats.accepted, stats.frames, stats.results, stats.errors,
        stats.pushes, stats.subscriptions, stats.protocolErrors,
        store.timeouts());
    printSessions(store);
    if (!walDir.empty()) {
      std::printf("operation logs in %s (restart with --recover to resume)\n",
                  walDir.c_str());
    }
    std::printf("%s\n", drained ? "clean drain" : "forced stop");
    return drained ? 0 : 3;
  } catch (const adpm::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
