// Synchronous wire-protocol client.
//
// One Client is one TCP connection to a net::Server, offering the typed
// command surface of service::SessionStore over the wire: open / apply /
// guidance / verify / snapshot / subscribe / status / closeSession.  Calls
// are synchronous request/response; server pushes (Notification, Shutdown)
// that arrive while a response is awaited are dispatched inline, and pump()
// drains them between requests — so a subscriber never needs a second
// thread, and a single-threaded driver loop (the load generator, the CLI)
// stays single-threaded.
//
// Failure semantics mirror service::CommandPolicy from the far side of the
// wire: an Error frame re-throws the *typed* exception it encodes
// (net/protocol.hpp), and TransientError responses are retried here — with
// the store's util::RetryPolicy backoff and seeded jitter — because a
// Transient failure is, by its contract, one where the command did NOT
// execute.  A ConnectionError is never silently retried: whether
// the in-flight command executed is unknown, and the caller must
// reconnect() and resynchronize from a snapshot (wireHost's load target
// shows the stage-comparison resync).
//
// Not thread-safe: one Client, one driving thread.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dpm/notification.hpp"
#include "dpm/operation.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/load.hpp"
#include "service/session.hpp"
#include "util/json.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

namespace adpm::net {

class Client {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    int connectTimeoutMs = 5000;
    /// Per-attempt deadline for one response (TimeoutError past it).
    std::chrono::milliseconds requestTimeout{10000};
    /// Retries for TransientError responses — the store's policy type,
    /// but 3 attempts by default where the store makes 1.
    util::RetryPolicy retry{.maxAttempts = 3};
    /// connectWithRetry(): total connection attempts before giving up —
    /// rides out a supervised server restart (crash → respawn) without the
    /// driver seeing more than latency.  1 = plain connect().
    unsigned reconnectAttempts = 1;
  };

  using NotificationHandler =
      std::function<void(const std::string& sessionId,
                         const dpm::Notification& notification)>;

  explicit Client(Options options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects (or reconnects — any previous socket is dropped first, and
  /// the shutdown flag resets).  Throws ConnectionError.
  void connect();

  /// connect() with up to Options::reconnectAttempts tries; the backoff
  /// before retry k (1-based) is 50 ms·2^(k-1) capped at 2 s, without
  /// jitter (reconnects race a restarting listener, not each other).
  /// Throws the *last* ConnectionError when the attempts are exhausted.
  /// Reconnecting never resynchronizes state by itself — the caller still
  /// compares a fresh snapshot() against its shadow (the resync in
  /// wireHost's load target).
  void connectWithRetry();
  void close();
  bool connected() const noexcept { return fd_.valid(); }

  /// The server announced it is draining; submit no further mutations.
  bool serverShuttingDown() const noexcept { return shutdownSeen_; }

  /// Handler for pushed notifications (invoked inline from pump() and from
  /// response waits).  Set before subscribe().
  void onNotification(NotificationHandler handler) {
    handler_ = std::move(handler);
  }

  // -- typed commands ----------------------------------------------------------

  struct OpenResult {
    std::string session;
    bool adpm = true;
    /// The server's canonical DDDL rendering of the scenario — parse this
    /// (not your original text) to build a bit-identical local shadow.
    std::string dddl;
  };
  OpenResult openScenario(const std::string& session,
                          const std::string& scenario, bool adpm);
  OpenResult openDddl(const std::string& session, const std::string& dddl,
                      bool adpm);

  dpm::OperationRecord apply(const std::string& session,
                             const dpm::Operation& op);

  struct GuidanceSummary {
    bool present = false;
    std::size_t properties = 0;
    std::size_t violated = 0;
    std::size_t extraEvaluations = 0;
  };
  GuidanceSummary guidance(const std::string& session);

  struct VerifySummary {
    std::vector<constraint::ConstraintId> violated;
    std::size_t evaluations = 0;
  };
  VerifySummary verify(const std::string& session);

  service::SessionSnapshot snapshot(const std::string& session, bool withText);

  void subscribe(const std::string& session, const std::string& designer);

  /// The server's Status document (sessions, store/bus/server counters,
  /// per-subscriber queue stats).
  util::json::Value status();

  void closeSession(const std::string& session);

  /// Drains pushed frames, waiting up to waitMs (0 = only what is already
  /// buffered/readable) for the first one.  Returns frames dispatched.
  std::size_t pump(int waitMs);

  // -- counters ---------------------------------------------------------------

  std::size_t transientRetries() const noexcept { return transientRetries_; }
  std::size_t notificationsReceived() const noexcept { return notifications_; }
  /// connectWithRetry() attempts that failed before one succeeded.
  std::size_t reconnectRetries() const noexcept { return reconnectRetries_; }

 private:
  util::json::Value request(FrameType type, util::json::Value body);
  util::json::Value awaitResponse(double reqId,
                                  std::chrono::steady_clock::time_point deadline);
  void writeAll(const std::string& bytes);
  /// One complete frame; throws TimeoutError at the deadline and
  /// ConnectionError when the stream dies.
  Frame readFrame(std::chrono::steady_clock::time_point deadline);
  /// Dispatches a pushed frame; false when the frame is not a push.
  bool handlePush(const Frame& frame);
  [[noreturn]] void failConnection(const std::string& why);

  Options options_;
  ScopedFd fd_;
  FrameParser parser_;
  double nextReq_ = 0;
  NotificationHandler handler_;
  bool shutdownSeen_ = false;
  std::size_t transientRetries_ = 0;
  std::size_t notifications_ = 0;
  std::size_t reconnectRetries_ = 0;
  util::Rng rng_;
};

/// service::runLoad's wire host: one Client connection per session, which
/// opens the session with `dddl` and hands the driver the server's
/// canonical rendering for its shadow.  A ConnectionError inside apply or
/// snapshot reconnects (at most `maxReconnects` times per session),
/// re-subscribes and fetches the server's snapshot, whose stage settles the
/// in-flight apply: the shadow's stage + 1 means it committed, the shadow's
/// stage means it never ran and is resent.
service::LoadHost wireHost(Client::Options options, std::string dddl,
                           unsigned maxReconnects = 3);

}  // namespace adpm::net
