// TCP front-end for the design-session service.
//
// One Server exposes one service::SessionStore over the wire protocol
// (net/frame.hpp + net/protocol.hpp).  The reactor thread parses frames off
// every connection and dispatches:
//
//   * session commands (Apply/Guidance/Verify/Snapshot) are posted onto the
//     owning session's strand via SessionStore::withSession, under the
//     store's CommandPolicy like every in-process command — the strand
//     executes the command with exclusive session access and sends the
//     Result/Error frame itself, so the reactor never blocks on a command
//     and a session's remote operations serialize exactly like local ones;
//   * Subscribe registers a bus queue for the connection, and the reactor
//     thread drains it into Notification push frames once per loop
//     iteration (the bus wakes the reactor when it enqueues).  Draining
//     stops while the connection's write buffer is above the reactor's
//     high-water mark, so a slow reader fills its bus queue, which trips
//     the bus's degraded mode, which coalesces the stream into one
//     ResyncRequired marker.  No thread exists per subscription;
//   * Open/Status/CloseSession run inline on the reactor thread.  Status is
//     cheap; Open parses, instantiates and propagates a whole scenario, and
//     every connection waits while it does.
//
// Failures round-trip the util/error.hpp taxonomy by name (see
// net/protocol.hpp): a queued-too-long command fails with Timeout *without
// executing* (and counts in the store's timeouts()), and a rolled-back WAL
// append that the store's retries did not absorb fails Transient, which
// the *client* retries in turn.
//
// Shutdown is graceful by default: stop accepting, announce Shutdown to
// every peer (which stop submitting), drain the strands, flush and close
// the connections.  shutdown() reports whether the drain completed within
// its deadline — the CLI turns that into the exit code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dpm/scenario.hpp"
#include "net/reactor.hpp"
#include "service/store.hpp"
#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace adpm::net {

class Server {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; start() returns the bound port.
    std::uint16_t port = 0;
    /// Allow clients to open sessions (Open frames).  Off = the operator
    /// pre-opens sessions (or recovers them) and clients only drive them.
    bool allowOpen = true;
    /// Resolves an Open frame's scenario *name*; null = only DDDL-carrying
    /// opens are accepted.  (The net layer does not link the scenario
    /// registry; the CLI wires this up.)
    std::function<const dpm::ScenarioSpec*(const std::string&)> scenarioByName;
    Reactor::Options reactor{};
  };

  struct Stats {
    std::size_t accepted = 0;
    std::size_t closed = 0;
    std::size_t frames = 0;
    std::size_t results = 0;
    std::size_t errors = 0;          ///< Error frames sent (typed failures)
    std::size_t protocolErrors = 0;  ///< malformed frames/payloads (conn dropped)
    std::size_t pushes = 0;          ///< Notification frames sent
    std::size_t subscriptions = 0;
  };

  Server(service::SessionStore& store, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the reactor thread.  Returns the port.
  std::uint16_t start();

  /// Graceful shutdown: stop accepting, push a Shutdown frame to every
  /// connection, wait up to `drainDeadline` for the strands to drain, then
  /// flush and close everything.  Returns true when the drain completed in
  /// time (a clean stop), false when the deadline forced the stop.
  bool shutdown(std::chrono::milliseconds drainDeadline);

  /// Forced stop: no drain, no farewell.
  void kill();

  std::uint16_t port() const noexcept { return port_.load(); }
  bool running() const noexcept { return running_.load(); }
  Stats stats() const;

 private:
  /// One Subscribe: the session id (for the push payload) and its queue.
  using Subscription =
      std::pair<std::string, std::shared_ptr<service::NotificationBus::Queue>>;

  void handleAccept(Reactor::ConnId conn);
  void handleFrame(Reactor::ConnId conn, Frame&& frame);
  void handleClose(Reactor::ConnId conn);
  /// The reactor's onLoop hook: turns queued notifications into frames for
  /// every connection below writeHighWater, and forgets closed, drained
  /// queues.
  void drainSubscriptions();

  void dispatch(Reactor::ConnId conn, FrameType type,
                const util::json::Value& req, double reqId);
  /// Runs a session command on its strand under the store's
  /// CommandPolicy; `fn` returns the Result body, and the strand sends it
  /// (or the Error frame) itself.
  template <typename F>
  void command(Reactor::ConnId conn, double reqId, const util::json::Value& req,
               const char* what, F fn);
  void sendResult(Reactor::ConnId conn, util::json::Value body);
  void sendError(Reactor::ConnId conn, double reqId, const std::exception& e);
  void protocolFailure(Reactor::ConnId conn, const std::string& message);
  void retireConn(Reactor::ConnId conn);
  util::json::Value statusJson();

  service::SessionStore& store_;
  Options options_;
  std::unique_ptr<Reactor> reactor_;
  std::thread reactorThread_;
  /// Atomic: start() publishes the bound port while other threads (CLI
  /// status printers, tests) may already be polling port().
  std::atomic<std::uint16_t> port_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  mutable util::Mutex mutex_;
  std::map<Reactor::ConnId, std::vector<Subscription>> conns_
      ADPM_GUARDED_BY(mutex_);

  std::atomic<std::size_t> accepted_{0}, closed_{0}, frames_{0}, results_{0},
      errors_{0}, protocolErrors_{0}, pushes_{0},
      subscriptions_{0};
};

}  // namespace adpm::net
