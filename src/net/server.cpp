#include "net/server.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "dddl/parser.hpp"
#include "dddl/writer.hpp"
#include "dpm/operation_io.hpp"
#include "net/protocol.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace adpm::net {

namespace json = util::json;

Server::Server(service::SessionStore& store, Options options)
    : store_(store), options_(std::move(options)) {
  Reactor::Handlers handlers;
  handlers.onAccept = [this](Reactor::ConnId id) { handleAccept(id); };
  handlers.onFrame = [this](Reactor::ConnId id, Frame&& frame) {
    handleFrame(id, std::move(frame));
  };
  handlers.onClose = [this](Reactor::ConnId id, const std::string&) {
    handleClose(id);
  };
  handlers.onLoop = [this] { drainSubscriptions(); };
  reactor_ = std::make_unique<Reactor>(options_.reactor, std::move(handlers));
}

Server::~Server() {
  if (running_.load()) kill();
}

std::uint16_t Server::start() {
  port_ = reactor_->listen(options_.host, options_.port);
  running_.store(true);
  reactorThread_ = std::thread([this] { reactor_->run(); });
  return port_;
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_.load();
  s.closed = closed_.load();
  s.frames = frames_.load();
  s.results = results_.load();
  s.errors = errors_.load();
  s.protocolErrors = protocolErrors_.load();
  s.pushes = pushes_.load();
  s.subscriptions = subscriptions_.load();
  return s;
}

// -- connection lifecycle -----------------------------------------------------

void Server::handleAccept(Reactor::ConnId conn) {
  ++accepted_;
  {
    util::LockGuard lock(mutex_);
    conns_.emplace(conn, std::vector<Subscription>{});
  }
}

void Server::handleClose(Reactor::ConnId conn) {
  ++closed_;
  retireConn(conn);
}

void Server::retireConn(Reactor::ConnId conn) {
  std::vector<Subscription> subs;
  {
    util::LockGuard lock(mutex_);
    const auto it = conns_.find(conn);
    if (it == conns_.end()) return;
    subs = std::move(it->second);
    conns_.erase(it);
  }
  for (const auto& [sessionId, queue] : subs) queue->close();
}

void Server::drainSubscriptions() {
  const std::size_t budget = options_.reactor.writeHighWater;
  util::LockGuard lock(mutex_);
  for (auto& entry : conns_) {
    const Reactor::ConnId conn = entry.first;
    std::erase_if(entry.second, [&](const Subscription& sub) {
      const auto& [sessionId, queue] = sub;
      while (reactor_->queuedBytes(conn) < budget) {
        // Read closed() first: a queue closed before an empty tryPop() is
        // drained for good, so the subscription can be forgotten.
        const bool closed = queue->closed();
        const std::optional<dpm::Notification> n = queue->tryPop();
        if (!n) return closed;
        // A refused send means the connection is closing; its queues are
        // closed when it is retired.
        if (!reactor_->send(
                conn, FrameType::Notification,
                json::serialize(notificationToJson(sessionId, *n)))) {
          return false;
        }
        ++pushes_;
      }
      return false;
    });
  }
}

// -- frame dispatch (reactor thread) ------------------------------------------

void Server::handleFrame(Reactor::ConnId conn, Frame&& frame) {
  ++frames_;
  if (!isRequestFrame(frame.type)) {
    protocolFailure(conn, std::string("unexpected frame type ") +
                              frameTypeName(frame.type));
    return;
  }
  json::Value req;
  try {
    req = json::parse(frame.payload);
  } catch (const std::exception& e) {
    protocolFailure(conn,
                    std::string("unparseable request payload: ") + e.what());
    return;
  }
  const json::Value* reqField = req.find("req");
  if (reqField == nullptr || reqField->kind() != json::Kind::Number) {
    protocolFailure(conn, "request payload has no numeric 'req' id");
    return;
  }
  const double reqId = reqField->asNumber();
  try {
    dispatch(conn, frame.type, req, reqId);
  } catch (const std::exception& e) {
    sendError(conn, reqId, e);
  }
}

void Server::dispatch(Reactor::ConnId conn, FrameType type,
                      const json::Value& req, double reqId) {
  const bool mutating = type == FrameType::Open || type == FrameType::Apply ||
                        type == FrameType::Subscribe ||
                        type == FrameType::CloseSession;
  if (draining_.load() && mutating) {
    // The peer already got (or is about to get) the Shutdown frame; refuse
    // new work as Transient so a retrying client fails over, while reads
    // keep answering during the drain window.
    throw adpm::TransientError("server is draining");
  }

  switch (type) {
    case FrameType::Open: {
      if (!options_.allowOpen) {
        throw adpm::InvalidArgumentError(
            "remote session open is disabled on this server");
      }
      const std::string id = req.at("session").asString();
      bool adpm = true;
      if (const json::Value* a = req.find("adpm")) adpm = a->asBool();
      dpm::ScenarioSpec parsed;
      const dpm::ScenarioSpec* spec = nullptr;
      if (const json::Value* d = req.find("dddl")) {
        parsed = dddl::parse(d->asString());
        spec = &parsed;
      } else if (const json::Value* s = req.find("scenario")) {
        if (!options_.scenarioByName) {
          throw adpm::InvalidArgumentError(
              "this server has no scenario registry; open with 'dddl'");
        }
        spec = options_.scenarioByName(s->asString());
        if (spec == nullptr) {
          throw adpm::InvalidArgumentError("unknown scenario '" +
                                           s->asString() + "'");
        }
      } else {
        throw adpm::InvalidArgumentError(
            "open needs a 'dddl' or 'scenario' field");
      }
      // The canonical DDDL rendering is the contract that lets the client
      // build a bit-identical local shadow of the server's session.
      const std::string canonical = dddl::write(*spec);
      store_.open(id, *spec, adpm);
      json::Value body{json::Object{}};
      body.set("req", reqId);
      body.set("session", id);
      body.set("adpm", adpm);
      body.set("dddl", canonical);
      sendResult(conn, std::move(body));
      return;
    }

    case FrameType::Apply: {
      dpm::Operation op = dpm::operationFromJson(req.at("op"));
      // Applies a copy per attempt, as applyOperation does, so a retried
      // TransientError replays the identical operation.
      command(conn, reqId, req, "applyOperation",
              [reqId, op = std::move(op)](service::Session& session) {
                const auto result = session.apply(dpm::Operation(op));
                json::Value body{json::Object{}};
                body.set("req", reqId);
                body.set("record", operationRecordToJson(result.record));
                body.set("notifications", result.notifications.size());
                return body;
              });
      return;
    }

    case FrameType::Guidance: {
      command(conn, reqId, req, "queryGuidance",
              [reqId](service::Session& session) {
                json::Value body{json::Object{}};
                body.set("req", reqId);
                const constraint::GuidanceReport* g =
                    session.manager().latestGuidance();
                body.set("present", g != nullptr);
                if (g != nullptr) {
                  body.set("properties", g->properties.size());
                  body.set("violated", g->violated.size());
                  body.set("extraEvaluations", g->extraEvaluations);
                }
                return body;
              });
      return;
    }

    case FrameType::Verify: {
      command(conn, reqId, req, "verify", [reqId](service::Session& session) {
        const service::Session::VerifyResult result = session.verify();
        json::Array violated;
        violated.reserve(result.violated.size());
        for (const constraint::ConstraintId c : result.violated) {
          violated.push_back(json::Value(static_cast<std::size_t>(c.value)));
        }
        json::Value body{json::Object{}};
        body.set("req", reqId);
        body.set("violated", std::move(violated));
        body.set("evaluations", result.evaluations);
        return body;
      });
      return;
    }

    case FrameType::Snapshot: {
      bool withText = false;
      if (const json::Value* t = req.find("text")) withText = t->asBool();
      command(conn, reqId, req, "snapshot",
              [reqId, withText](service::Session& session) {
                json::Value body{json::Object{}};
                body.set("req", reqId);
                body.set("snapshot",
                         snapshotToJson(session.snapshot(), withText));
                return body;
              });
      return;
    }

    case FrameType::Subscribe: {
      const std::string id = req.at("session").asString();
      const std::string designer = req.at("designer").asString();
      // The bus keeps this callback past the Server's lifetime; it is safe
      // because retireConn closes the queue first, and a closed queue
      // accepts nothing, so publish() never calls it again.
      auto queue =
          store_.subscribe(id, designer, [this] { reactor_->wakeup(); });
      {
        util::LockGuard lock(mutex_);
        conns_[conn].emplace_back(id, std::move(queue));
      }
      ++subscriptions_;
      json::Value body{json::Object{}};
      body.set("req", reqId);
      body.set("session", id);
      body.set("designer", designer);
      body.set("subscribed", true);
      sendResult(conn, std::move(body));
      return;
    }

    case FrameType::Status: {
      json::Value body = statusJson();
      body.set("req", reqId);
      sendResult(conn, std::move(body));
      return;
    }

    case FrameType::CloseSession: {
      const std::string id = req.at("session").asString();
      store_.close(id);
      json::Value body{json::Object{}};
      body.set("req", reqId);
      body.set("session", id);
      body.set("closed", true);
      sendResult(conn, std::move(body));
      return;
    }

    default:
      protocolFailure(conn, std::string("unhandled request frame type ") +
                                frameTypeName(type));
  }
}

template <typename F>
void Server::command(Reactor::ConnId conn, double reqId, const json::Value& req,
                     const char* what, F fn) {
  store_.withSession(
      req.at("session").asString(), std::move(fn), what,
      [this, conn, reqId](std::future<json::Value> settled) {
        try {
          sendResult(conn, settled.get());
        } catch (const std::exception& e) {
          sendError(conn, reqId, e);
        }
      });
}

json::Value Server::statusJson() {
  json::Value v{json::Object{}};

  json::Array ids;
  for (const std::string& id : store_.ids()) ids.push_back(json::Value(id));
  v.set("sessions", std::move(ids));
  v.set("draining", draining_.load());

  json::Value store{json::Object{}};
  store.set("retries", store_.retries());
  store.set("timeouts", store_.timeouts());
  v.set("store", std::move(store));

  const service::NotificationBus& bus = store_.bus();
  json::Value busJson{json::Object{}};
  busJson.set("published", bus.published());
  busJson.set("delivered", bus.delivered());
  busJson.set("unrouted", bus.unrouted());
  busJson.set("dropped", bus.dropped());
  busJson.set("downgrades", bus.downgrades());
  busJson.set("coalesced", bus.coalesced());
  json::Array subscribers;
  for (const service::NotificationBus::SubscriberStats& s :
       bus.subscriberStats()) {
    json::Value sub{json::Object{}};
    sub.set("session", s.sessionId);
    sub.set("designer", s.designer);
    sub.set("depth", s.queueDepth);
    sub.set("capacity", s.queueCapacity);
    sub.set("dropped", s.dropped);
    sub.set("degraded", s.degraded);
    sub.set("downgrades", s.downgrades);
    sub.set("coalesced", s.coalesced);
    subscribers.push_back(std::move(sub));
  }
  busJson.set("subscribers", std::move(subscribers));
  v.set("bus", std::move(busJson));

  const Stats s = stats();
  json::Value server{json::Object{}};
  server.set("accepted", s.accepted);
  server.set("closed", s.closed);
  server.set("frames", s.frames);
  server.set("results", s.results);
  server.set("errors", s.errors);
  server.set("protocolErrors", s.protocolErrors);
  server.set("pushes", s.pushes);
  server.set("subscriptions", s.subscriptions);
  v.set("server", std::move(server));
  return v;
}

// -- responses ----------------------------------------------------------------

void Server::sendResult(Reactor::ConnId conn, json::Value body) {
  if (reactor_->send(conn, FrameType::Result, json::serialize(body))) {
    ++results_;
  }
}

void Server::sendError(Reactor::ConnId conn, double reqId,
                       const std::exception& e) {
  const char* name = wireErrorName(e);
  json::Value body{json::Object{}};
  body.set("req", reqId);
  body.set("error", name);
  body.set("message", std::string(e.what()));
  if (reactor_->send(conn, FrameType::Error, json::serialize(body))) {
    ++errors_;
  }
}

void Server::protocolFailure(Reactor::ConnId conn, const std::string& message) {
  ++protocolErrors_;
  json::Value body{json::Object{}};
  body.set("error", "Protocol");
  body.set("message", message);
  reactor_->send(conn, FrameType::Error, json::serialize(body));
  reactor_->close(conn, /*flushFirst=*/true);
}

// -- shutdown -----------------------------------------------------------------

bool Server::shutdown(std::chrono::milliseconds drainDeadline) {
  if (!running_.load()) return true;
  draining_.store(true);
  reactor_->stopListening();

  // Announce the stop: peers that see the Shutdown frame stop submitting,
  // which (together with the draining_ refusal above) bounds the drain.
  json::Value farewell{json::Object{}};
  farewell.set("reason", "drain");
  const std::string payload = json::serialize(farewell);
  std::vector<Reactor::ConnId> ids;
  {
    util::LockGuard lock(mutex_);
    ids.reserve(conns_.size());
    for (const auto& [id, subs] : conns_) ids.push_back(id);
  }
  for (const Reactor::ConnId id : ids) {
    reactor_->send(id, FrameType::Shutdown, payload);
  }

  // Drain the strands with a deadline.  drain() blocks unconditionally, so
  // it runs on a helper thread; when the deadline forces the stop the helper
  // is detached — it finishes as soon as the stuck strand does, and the
  // process (this is the forced-exit path) is about to end anyway.
  struct DrainState {
    util::Mutex mutex;
    util::CondVar cv;
    bool done ADPM_GUARDED_BY(mutex) = false;
  };
  auto state = std::make_shared<DrainState>();
  std::thread drainer([this, state] {
    store_.drain();
    {
      util::LockGuard lock(state->mutex);
      state->done = true;
    }
    state->cv.notify_all();
  });
  bool drained;
  {
    const auto deadline = std::chrono::steady_clock::now() + drainDeadline;
    util::UniqueLock lock(state->mutex);
    while (!state->done &&
           state->cv.wait_until(lock, deadline) != std::cv_status::timeout) {
    }
    drained = state->done;
  }
  if (drained) {
    drainer.join();
  } else {
    drainer.detach();
  }

  // Close every connection — flushing queued responses and farewells when
  // the drain completed, dropping them when it didn't.
  {
    util::LockGuard lock(mutex_);
    ids.clear();
    for (const auto& [id, subs] : conns_) ids.push_back(id);
  }
  for (const Reactor::ConnId id : ids) {
    reactor_->close(id, /*flushFirst=*/drained);
  }
  const auto flushDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (reactor_->connectionCount() > 0 &&
         std::chrono::steady_clock::now() < flushDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  reactor_->stop();
  if (reactorThread_.joinable()) reactorThread_.join();
  running_.store(false);
  return drained;
}

void Server::kill() {
  if (!running_.load()) return;
  draining_.store(true);
  reactor_->stop();
  if (reactorThread_.joinable()) reactorThread_.join();
  // In-flight strand commands capture `this` to send their responses; wait
  // for them (they finish promptly — their sends hit dead connections and
  // drop) so destroying the Server right after kill() is safe.
  store_.drain();
  running_.store(false);
}

}  // namespace adpm::net
