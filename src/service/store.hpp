// The concurrent design-session service: N live sessions on one fixed
// thread pool.
//
// Each session gets a strand (util/executor.hpp), so its operations
// serialize in submission order while distinct sessions propagate in
// parallel — the paper's collaborative setting (many designers, many
// concurrent sessions) hosted behind a typed command API:
//
//   ApplyOperation  → applyOperation(id, op)   future<ExecResult>
//   QueryGuidance   → queryGuidance(id)        future<optional<Guidance>>
//   Verify          → verify(id)               future<VerifyResult>
//   Snapshot        → snapshot(id)             future<SessionSnapshot>
//   Subscribe       → subscribe(id, designer)  bounded notification queue
//
// With a WAL directory configured every session is durable: open() writes a
// self-contained log header (scenario embedded as DDDL), every applied
// operation is journaled write-ahead, and recover() rebuilds all sessions
// found in the directory after a crash, verifying snapshot digests along
// the way.
//
// Determinism: Options.executor.deterministic = true runs every command
// inline on the calling thread (single-threaded, seeded by the caller's
// submission order) — the mode the bit-stable replay tests run under.
#pragma once

#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "service/bus.hpp"
#include "service/session.hpp"
#include "util/error.hpp"
#include "util/executor.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace adpm::service {

/// Resilience knobs for the typed command API (applyOperation,
/// queryGuidance, verify, snapshot).  Defaults are the pre-existing
/// behaviour: no deadline, no retry.
struct CommandPolicy {
  /// Longest a command may spend *queued* on its session's strand; when the
  /// strand finally dequeues an expired command, the future fails with
  /// TimeoutError and the command is NOT executed.  This is admission
  /// control (an overloaded session sheds stale work), not preemption — a
  /// running command is never interrupted.  0 = no deadline.
  std::chrono::milliseconds timeout{0};
  /// Retries for a command failing with TransientError (WAL append rolled
  /// back, injected fault, ...).
  util::RetryPolicy retry{};
};

/// One recover() decision about one log file.
struct RecoveryEvent {
  std::string path;
  /// The error (sessionLost) or what salvage had to drop.
  std::string detail;
  /// The whole log was refused; no session was rebuilt from it.
  bool sessionLost = false;
  /// Salvage trimmed/rolled back the log but reopened the session.
  bool salvaged = false;
  std::size_t keptStage = 0;
  std::size_t droppedOperations = 0;
  std::size_t droppedBytes = 0;
  /// Recovery restored a checkpoint and replayed only the tail segments.
  bool checkpointUsed = false;
  std::size_t checkpointSeq = 0;
  std::size_t checkpointStage = 0;
  /// Damaged checkpoints that degraded to an older one / full replay.
  std::size_t checkpointFallbacks = 0;
  std::size_t segmentsReplayed = 0;
  std::size_t operationsReplayed = 0;
};

class SessionStore {
 public:
  struct Options {
    util::Executor::Options executor{};
    Session::Options session{};
    CommandPolicy command{};
    /// Directory for per-session operation logs ("<id>.wal"); empty =
    /// volatile sessions (no journal, no recovery).
    std::string walDir;
    /// How recover() treats damaged logs: Strict refuses them whole,
    /// Salvage reopens the longest trustworthy prefix (see wal.hpp).
    RecoveryPolicy recovery = RecoveryPolicy::Strict;
  };

  SessionStore();
  explicit SessionStore(Options options);
  ~SessionStore();

  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;

  // -- lifecycle -------------------------------------------------------------

  /// Creates a session from a scenario spec.  The id must be unique and
  /// filesystem-safe ([A-Za-z0-9._-]).  Throws on duplicates, and on ids
  /// whose WAL file already exists (close() keeps logs, crashes leave them;
  /// appending a second header would corrupt the log — recover() it or
  /// remove the file first).
  void open(const std::string& id, const dpm::ScenarioSpec& spec, bool adpm);

  /// Rebuilds every session found in walDir — discovered from any of its
  /// chain files (`<id>.wal`, `<id>.wal.<N>`, `<id>.ckpt.<N>`), so a
  /// session whose seq-0 segment was compacted away still recovers from
  /// its newest checkpoint plus tail segments.  Returns the recovered ids.
  /// A session that fails to rebuild is skipped — recovery of the rest
  /// continues — and reported via recoverErrors().  Sessions already live
  /// in the store are skipped *before* any replay, and each call clears
  /// the previous call's errors/report: calling recover() twice never
  /// double-replays or double-reports.
  std::vector<std::string> recover();

  /// "<path>: <reason>" for every log the most recent recover() skipped.
  std::vector<std::string> recoverErrors() const;

  /// Everything notable the most recent recover() did: logs refused
  /// (sessionLost) and logs salvage had to trim or roll back.
  std::vector<RecoveryEvent> recoverReport() const;

  /// Closes a session: waits for its queued commands, closes its
  /// notification queues, and forgets it.  The WAL file stays on disk.
  void close(const std::string& id);

  std::vector<std::string> ids() const;
  std::size_t sessionCount() const;
  bool has(const std::string& id) const;

  // -- typed command API (each command runs on the session's strand) ---------

  std::future<dpm::DesignProcessManager::ExecResult> applyOperation(
      const std::string& id, dpm::Operation op);

  /// λ=F sessions resolve to nullopt (no mined guidance in that flow).
  std::future<std::optional<constraint::GuidanceReport>> queryGuidance(
      const std::string& id);

  std::future<Session::VerifyResult> verify(const std::string& id);

  std::future<SessionSnapshot> snapshot(const std::string& id);

  /// `wake` is forwarded to NotificationBus::subscribe.
  std::shared_ptr<NotificationBus::Queue> subscribe(
      const std::string& id, const std::string& designer,
      NotificationBus::Wake wake = {});

  /// Runs `fn(session)` on the session's strand under the command policy:
  /// a command still queued past CommandPolicy::timeout fails with
  /// TimeoutError without running, and a TransientError is retried per
  /// CommandPolicy::retry, so `fn` must be safe to run again after one.
  /// The default policy has no deadline and makes one attempt.  `what`
  /// names the command in the timeout message.
  template <typename F>
  auto withSession(const std::string& id, F fn, const char* what = "command")
      -> std::future<std::invoke_result_t<F&, Session&>> {
    using R = std::invoke_result_t<F&, Session&>;
    std::shared_ptr<Entry> entry = entryOf(id);
    auto task = std::make_shared<std::packaged_task<R()>>(
        underPolicy(entry, id, what, std::move(fn)));
    std::future<R> future = task->get_future();
    entry->strand->post([task] { (*task)(); });
    return future;
  }

  /// Callback form for callers that must not block on a future (the wire
  /// server): `done` runs on the strand with the settled future — fn's
  /// result, or the policy's or fn's exception.
  template <typename F, typename Done>
  void withSession(const std::string& id, F fn, const char* what, Done done) {
    using R = std::invoke_result_t<F&, Session&>;
    std::shared_ptr<Entry> entry = entryOf(id);
    auto task = std::make_shared<std::packaged_task<R()>>(
        underPolicy(entry, id, what, std::move(fn)));
    entry->strand->post([task, done = std::move(done)]() mutable {
      (*task)();
      done(task->get_future());
    });
  }

  /// TransientError retries performed by the command policy (monotonic).
  std::size_t retries() const;
  /// Commands shed by the queued-too-long deadline (monotonic).
  std::size_t timeouts() const;

  /// Blocks until every queued command (across all sessions) has run.
  void drain() { executor_.drain(); }

  util::Executor& executor() noexcept { return executor_; }
  NotificationBus& bus() noexcept { return bus_; }
  const Options& options() const noexcept { return options_; }

 private:
  struct Entry {
    std::unique_ptr<Session> session;
    std::shared_ptr<util::Executor::Strand> strand;
  };

  std::shared_ptr<Entry> entryOf(const std::string& id) const;
  /// Wires up and inserts a session entry (the annotation enforces the
  /// caller already holds the store lock).
  void adoptLocked(const std::string& id, std::unique_ptr<Session> session)
      ADPM_REQUIRES(mutex_);
  std::string walPathOf(const std::string& id) const;

  /// Sleeps the policy backoff before retry `attempt` (1-based), with
  /// deterministic jitter from the store's seeded stream.
  void backoffBeforeRetry(unsigned attempt);

  /// `fn` wrapped in the command policy: the queue-time deadline (checked
  /// when the strand dequeues it) and capped exponential
  /// retry-with-jitter for TransientError.
  template <typename F>
  auto underPolicy(std::shared_ptr<Entry> entry, std::string id,
                   const char* what, F fn) {
    return [this, entry = std::move(entry), id = std::move(id), what,
            fn = std::move(fn),
            posted = std::chrono::steady_clock::now()]() mutable {
      const CommandPolicy& policy = options_.command;
      if (policy.timeout.count() > 0 &&
          std::chrono::steady_clock::now() - posted >= policy.timeout) {
        noteTimeout();
        throw adpm::TimeoutError("command '" + std::string(what) +
                                 "' on session '" + id +
                                 "' exceeded its deadline while queued");
      }
      for (unsigned attempt = 1;; ++attempt) {
        try {
          return fn(*entry->session);
        } catch (const adpm::TransientError&) {
          if (attempt >= policy.retry.maxAttempts) throw;
          backoffBeforeRetry(attempt);
        }
      }
    };
  }

  void noteTimeout();

  Options options_;
  mutable util::Mutex mutex_;
  std::map<std::string, std::shared_ptr<Entry>> sessions_
      ADPM_GUARDED_BY(mutex_);
  std::vector<std::string> recoverErrors_ ADPM_GUARDED_BY(mutex_);
  std::vector<RecoveryEvent> recoverEvents_ ADPM_GUARDED_BY(mutex_);
  mutable util::Mutex retryMutex_;
  util::Rng retryRng_ ADPM_GUARDED_BY(retryMutex_){0};
  std::size_t retries_ ADPM_GUARDED_BY(retryMutex_) = 0;
  std::size_t timeouts_ ADPM_GUARDED_BY(retryMutex_) = 0;
  NotificationBus bus_;
  /// Last member: its destructor drains/joins while sessions and bus are
  /// still alive for in-flight strand tasks.
  util::Executor executor_;
};

}  // namespace adpm::service
