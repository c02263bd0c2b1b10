#include "service/store.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>

#include "dddl/writer.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace adpm::service {

namespace {

bool safeId(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  return std::all_of(id.begin(), id.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
  });
}

}  // namespace

SessionStore::SessionStore() : SessionStore(Options{}) {}

SessionStore::SessionStore(Options options)
    : options_(std::move(options)),
      retryRng_(options_.command.retry.jitterSeed),
      executor_(options_.executor) {
  if (!options_.walDir.empty()) {
    std::filesystem::create_directories(options_.walDir);
  }
}

SessionStore::~SessionStore() {
  // Close every subscriber queue first: strand tasks still draining below
  // publish into closed queues, which refuse the push instead of growing a
  // queue no consumer will read.
  bus_.closeAll();
  executor_.drain();
}

std::string SessionStore::walPathOf(const std::string& id) const {
  return options_.walDir + "/" + id + ".wal";
}

void SessionStore::open(const std::string& id, const dpm::ScenarioSpec& spec,
                        bool adpm) {
  if (ADPM_FAULT_POINT("store.open") != util::FaultAction::None) {
    throw adpm::FaultInjectedError("injected failure opening session '" + id +
                                   "'");
  }
  if (!safeId(id)) {
    throw adpm::InvalidArgumentError("session id '" + id +
                                     "' is not filesystem-safe");
  }
  SessionConfig config;
  config.id = id;
  config.adpm = adpm;
  config.scenarioName = spec.name;
  // The log must be self-contained, so the scenario rides along as DDDL —
  // also pins the exact spec replay will instantiate.
  config.scenarioDddl = dddl::write(spec);

  // One critical section covers the duplicate-id check, the WAL-exists
  // check, the header write, and the map insertion: two racing open("x")
  // calls must not both write a header (OperationLog::read rejects a
  // two-header log as corrupt, which would make the session unrecoverable).
  util::LockGuard lock(mutex_);
  if (sessions_.contains(id)) {
    throw adpm::InvalidArgumentError("session '" + id + "' already open");
  }
  std::unique_ptr<SegmentedLog> log;
  if (!options_.walDir.empty()) {
    const std::string path = walPathOf(id);
    const SessionFiles existing = listSessionFiles(path);
    if (!existing.segments.empty() || !existing.checkpoints.empty()) {
      // close() keeps WALs and crashes leave them; a fresh open() always
      // writes a fresh header, so appending to a leftover chain would
      // corrupt it.  The caller decides: recover() the session or remove
      // its files (segments *and* checkpoints) first.
      throw adpm::InvalidArgumentError(
          "session '" + id + "' has existing log/checkpoint files at '" +
          path + "'; recover() it or remove them before reopening the id");
    }
    SegmentedLog::Options logOptions;
    logOptions.sync = options_.session.walSync;
    logOptions.segmentBytes = options_.session.segmentBytes;
    logOptions.segmentOps = options_.session.segmentOps;
    log = std::make_unique<SegmentedLog>(path, config, logOptions);
  }
  adoptLocked(id, std::make_unique<Session>(std::move(config), spec,
                                            std::move(log), options_.session));
}

std::vector<std::string> SessionStore::recover() {
  std::vector<std::string> recovered;
  std::vector<std::string> errors;
  std::vector<RecoveryEvent> events;
  {
    // Each call owns the whole report: a second recover() must not stack
    // its outcome on top of the first one's.
    util::LockGuard lock(mutex_);
    recoverErrors_.clear();
    recoverEvents_.clear();
  }
  if (options_.walDir.empty()) return recovered;

  // Discover session ids from every chain file (segments *and*
  // checkpoints): a session whose seq-0 segment was compacted away is
  // still recoverable from its newest checkpoint plus tail segments.
  std::set<std::string> idsOnDisk;  // deterministic recovery order
  {
    std::error_code ec;
    std::filesystem::directory_iterator dir(options_.walDir, ec);
    if (!ec) {
      for (const auto& entry : dir) {
        if (!entry.is_regular_file()) continue;
        const std::optional<WalFileName> parsed =
            parseWalFileName(entry.path().filename().string());
        if (parsed) idsOnDisk.insert(parsed->sessionId);
      }
    }
  }

  for (const std::string& id : idsOnDisk) {
    const std::string path = walPathOf(id);
    {
      // Skip live sessions *before* touching their files: re-replaying the
      // chain under a live session would re-report (and under Salvage
      // re-mutate) a log that is actively being appended to.
      util::LockGuard lock(mutex_);
      if (sessions_.contains(id)) continue;
    }
    // One bad session (corrupt, diverged, id raced in) must not abort
    // recovery of the remaining ones; it is skipped and reported instead.
    try {
      if (ADPM_FAULT_POINT("store.recover") != util::FaultAction::None) {
        throw adpm::FaultInjectedError("injected failure recovering '" +
                                       path + "'");
      }
      SalvageOutcome salvage;
      std::unique_ptr<Session> session = recoverSession(
          path, options_.session, options_.recovery, &salvage);
      {
        util::LockGuard lock(mutex_);
        if (sessions_.contains(id)) continue;  // open(id) raced in
        adoptLocked(id, std::move(session));
      }
      recovered.push_back(id);
      if (salvage.salvaged || salvage.checkpointFallbacks > 0 ||
          salvage.checkpointUsed) {
        RecoveryEvent event;
        event.path = path;
        event.detail = salvage.reason;
        event.salvaged = salvage.salvaged;
        event.keptStage = salvage.keptStage;
        event.droppedOperations = salvage.droppedOperations;
        event.droppedBytes = salvage.droppedBytes;
        event.checkpointUsed = salvage.checkpointUsed;
        event.checkpointSeq = salvage.checkpointSeq;
        event.checkpointStage = salvage.checkpointStage;
        event.checkpointFallbacks = salvage.checkpointFallbacks;
        event.segmentsReplayed = salvage.segmentsReplayed;
        event.operationsReplayed = salvage.operationsReplayed;
        events.push_back(std::move(event));
      }
    } catch (const adpm::Error& e) {
      errors.push_back(path + ": " + e.what());
      RecoveryEvent event;
      event.path = path;
      event.detail = e.what();
      event.sessionLost = true;
      events.push_back(std::move(event));
    }
  }
  util::LockGuard lock(mutex_);
  recoverErrors_ = std::move(errors);
  recoverEvents_ = std::move(events);
  return recovered;
}

std::vector<std::string> SessionStore::recoverErrors() const {
  util::LockGuard lock(mutex_);
  return recoverErrors_;
}

std::vector<RecoveryEvent> SessionStore::recoverReport() const {
  util::LockGuard lock(mutex_);
  return recoverEvents_;
}

void SessionStore::backoffBeforeRetry(unsigned attempt) {
  std::chrono::microseconds delay;
  {
    util::LockGuard lock(retryMutex_);
    ++retries_;
    delay = options_.command.retry.backoff(attempt, retryRng_);
  }
  if (delay.count() > 0) std::this_thread::sleep_for(delay);
}

void SessionStore::noteTimeout() {
  util::LockGuard lock(retryMutex_);
  ++timeouts_;
}

std::size_t SessionStore::retries() const {
  util::LockGuard lock(retryMutex_);
  return retries_;
}

std::size_t SessionStore::timeouts() const {
  util::LockGuard lock(retryMutex_);
  return timeouts_;
}

void SessionStore::adoptLocked(const std::string& id,
                               std::unique_ptr<Session> session) {
  auto entry = std::make_shared<Entry>();
  entry->session = std::move(session);
  entry->strand = executor_.makeStrand();
  entry->session->setNotificationSink(
      [this, id](const std::vector<dpm::Notification>& batch) {
        bus_.publish(id, batch);
      });
  sessions_.emplace(id, std::move(entry));  // caller checked for duplicates
}

void SessionStore::close(const std::string& id) {
  std::shared_ptr<Entry> entry;
  {
    util::LockGuard lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    entry = std::move(it->second);
    sessions_.erase(it);
  }
  bus_.closeSession(id);
  // Queued commands still hold the entry via their captures; the session
  // object dies with the last of them.
}

std::shared_ptr<SessionStore::Entry> SessionStore::entryOf(
    const std::string& id) const {
  util::LockGuard lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw adpm::InvalidArgumentError("unknown session '" + id + "'");
  }
  return it->second;
}

std::vector<std::string> SessionStore::ids() const {
  util::LockGuard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [id, entry] : sessions_) out.push_back(id);
  return out;
}

std::size_t SessionStore::sessionCount() const {
  util::LockGuard lock(mutex_);
  return sessions_.size();
}

bool SessionStore::has(const std::string& id) const {
  util::LockGuard lock(mutex_);
  return sessions_.contains(id);
}

std::future<dpm::DesignProcessManager::ExecResult>
SessionStore::applyOperation(const std::string& id, dpm::Operation op) {
  // The lambda keeps ownership of `op` and applies a *copy* per attempt, so
  // a TransientError retry replays the identical operation.
  return withSession(
      id,
      [op = std::move(op)](Session& session) {
        if (ADPM_FAULT_POINT("store.apply") != util::FaultAction::None) {
          throw adpm::FaultInjectedError("injected failure applying operation");
        }
        return session.apply(dpm::Operation(op));
      },
      "applyOperation");
}

std::future<std::optional<constraint::GuidanceReport>>
SessionStore::queryGuidance(const std::string& id) {
  return withSession(
      id,
      [](Session& session) -> std::optional<constraint::GuidanceReport> {
        const constraint::GuidanceReport* g =
            session.manager().latestGuidance();
        if (g == nullptr) return std::nullopt;
        return *g;
      },
      "queryGuidance");
}

std::future<Session::VerifyResult> SessionStore::verify(
    const std::string& id) {
  return withSession(
      id, [](Session& session) { return session.verify(); }, "verify");
}

std::future<SessionSnapshot> SessionStore::snapshot(const std::string& id) {
  return withSession(
      id, [](Session& session) { return session.snapshot(); }, "snapshot");
}

std::shared_ptr<NotificationBus::Queue> SessionStore::subscribe(
    const std::string& id, const std::string& designer,
    NotificationBus::Wake wake) {
  // Hold the store lock across the existence check *and* the bus
  // registration: a concurrent close(id) then either runs after us (and
  // closes the new queue with the rest) or before us (and we throw) — never
  // a live queue left on a dead session, which nothing would ever close.
  // Lock order store→bus is consistent everywhere; the bus never calls back
  // into the store.
  util::LockGuard lock(mutex_);
  if (!sessions_.contains(id)) {
    throw adpm::InvalidArgumentError("unknown session '" + id + "'");
  }
  return bus_.subscribe(id, designer, std::move(wake));
}

}  // namespace adpm::service
