#include "net/client.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "dddl/parser.hpp"
#include "dpm/operation_io.hpp"
#include "net/protocol.hpp"
#include "util/error.hpp"

namespace adpm::net {

namespace json = util::json;
using Clock = std::chrono::steady_clock;

Client::Client(Options options)
    : options_(std::move(options)), rng_(options_.retry.jitterSeed) {}

Client::~Client() { close(); }

void Client::connect() {
  close();
  fd_ = connectTcp(options_.host, options_.port, options_.connectTimeoutMs);
  parser_ = FrameParser();
  shutdownSeen_ = false;
}

void Client::connectWithRetry() {
  // Jitter 0: the backoff draws nothing from rng_, the retry jitter stream.
  static constexpr util::RetryPolicy kReconnect{
      .backoffBase = std::chrono::milliseconds(50),
      .backoffCap = std::chrono::seconds(2),
      .jitter = 0.0};
  const unsigned attempts = std::max(1u, options_.reconnectAttempts);
  for (unsigned attempt = 1;; ++attempt) {
    try {
      connect();
      return;
    } catch (const ConnectionError&) {
      if (attempt >= attempts) throw;
      ++reconnectRetries_;
      std::this_thread::sleep_for(kReconnect.backoff(attempt, rng_));
    }
  }
}

void Client::close() { fd_.reset(); }

void Client::failConnection(const std::string& why) {
  close();
  throw ConnectionError(why);
}

// -- transport ----------------------------------------------------------------

void Client::writeAll(const std::string& bytes) {
  if (!fd_.valid()) failConnection("client is not connected");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    IoResult r;
    try {
      r = writeSome(fd_.get(), bytes.data() + sent, bytes.size() - sent);
    } catch (const ConnectionError&) {
      close();
      throw;
    }
    if (r.status == IoStatus::WouldBlock) {
      // The socket is blocking; WouldBlock can only mean a transient stall.
      waitFd(fd_.get(), /*forWrite=*/true, /*timeoutMs=*/-1);
      continue;
    }
    sent += r.n;
  }
}

Frame Client::readFrame(Clock::time_point deadline) {
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = parser_.next();
    } catch (const ProtocolError&) {
      close();  // the stream cannot be resynchronized
      throw;
    }
    if (frame) return std::move(*frame);
    if (!fd_.valid()) failConnection("client is not connected");
    const auto now = Clock::now();
    if (now >= deadline) {
      throw adpm::TimeoutError("no response from " + options_.host +
                               " within the request timeout");
    }
    const auto leftMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now)
                            .count();
    bool readable;
    try {
      readable = waitFd(fd_.get(), /*forWrite=*/false,
                        static_cast<int>(std::max<long long>(1, leftMs)));
    } catch (const ConnectionError&) {
      close();
      throw;
    }
    if (!readable) continue;  // deadline re-checked at loop top
    char buf[64 * 1024];
    IoResult r;
    try {
      r = readSome(fd_.get(), buf, sizeof buf);
    } catch (const ConnectionError&) {
      close();
      throw;
    }
    if (r.status == IoStatus::Eof) {
      failConnection("server closed the connection");
    }
    if (r.status == IoStatus::Ok) parser_.feed(buf, r.n);
  }
}

bool Client::handlePush(const Frame& frame) {
  switch (frame.type) {
    case FrameType::Notification: {
      ++notifications_;
      if (handler_) {
        const json::Value v = json::parse(frame.payload);
        handler_(v.at("session").asString(), notificationFromJson(v));
      }
      return true;
    }
    case FrameType::Shutdown:
      shutdownSeen_ = true;
      return true;
    default:
      return false;
  }
}

std::size_t Client::pump(int waitMs) {
  std::size_t dispatched = 0;
  auto deadline = Clock::now() + std::chrono::milliseconds(waitMs);
  for (;;) {
    // Drain everything already buffered without blocking.
    for (;;) {
      std::optional<Frame> frame;
      try {
        frame = parser_.next();
      } catch (const ProtocolError&) {
        close();
        throw;
      }
      if (!frame) break;
      if (handlePush(*frame)) {
        ++dispatched;
      }
      // A response frame here is stale (its request timed out); drop it.
    }
    if (!fd_.valid()) return dispatched;
    const auto now = Clock::now();
    const auto leftMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    if (dispatched > 0 || leftMs <= 0) {
      // One non-blocking sweep for bytes that raced the drain above.
      if (!waitFd(fd_.get(), /*forWrite=*/false, 0)) return dispatched;
    } else if (!waitFd(fd_.get(), /*forWrite=*/false,
                       static_cast<int>(leftMs))) {
      return dispatched;
    }
    char buf[64 * 1024];
    IoResult r;
    try {
      r = readSome(fd_.get(), buf, sizeof buf);
    } catch (const ConnectionError&) {
      close();
      throw;
    }
    if (r.status == IoStatus::Eof) {
      close();
      return dispatched;
    }
    if (r.status == IoStatus::Ok) parser_.feed(buf, r.n);
  }
}

// -- request/response ---------------------------------------------------------

util::json::Value Client::awaitResponse(double reqId,
                                        Clock::time_point deadline) {
  for (;;) {
    Frame frame = readFrame(deadline);
    if (handlePush(frame)) continue;
    if (frame.type != FrameType::Result && frame.type != FrameType::Error) {
      failConnection(std::string("unexpected frame type ") +
                     frameTypeName(frame.type) + " while awaiting a response");
    }
    json::Value v;
    try {
      v = json::parse(frame.payload);
    } catch (const std::exception& e) {
      failConnection(std::string("unparseable response payload: ") + e.what());
    }
    if (frame.type == FrameType::Error) {
      const json::Value* rf = v.find("req");
      const json::Value* name = v.find("error");
      const json::Value* message = v.find("message");
      const std::string text =
          message != nullptr ? message->asString() : "remote error";
      if (rf == nullptr) {
        // An uncorrelated error is a protocol-level farewell: the server is
        // about to drop this connection.
        close();
        throw ProtocolError(text);
      }
      if (rf->asNumber() != reqId) continue;  // stale response: drop
      throwWireError(name != nullptr ? name->asString() : "Error", text);
    }
    const json::Value* rf = v.find("req");
    if (rf == nullptr || rf->asNumber() != reqId) continue;  // stale: drop
    return v;
  }
}

util::json::Value Client::request(FrameType type, json::Value body) {
  const double reqId = ++nextReq_;
  body.set("req", reqId);
  const std::string bytes = encodeFrame(type, json::serialize(body));
  for (unsigned attempt = 1;; ++attempt) {
    try {
      writeAll(bytes);
      return awaitResponse(reqId, Clock::now() + options_.requestTimeout);
    } catch (const adpm::TransientError&) {
      // The command did not execute (that is what Transient means on the
      // wire); retry with the store's backoff policy, client-side.
      if (attempt >= options_.retry.maxAttempts) throw;
      ++transientRetries_;
      const auto delay = options_.retry.backoff(attempt, rng_);
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
    }
  }
}

// -- typed commands -----------------------------------------------------------

namespace {

std::size_t asCount(const json::Value& v) {
  const double n = v.asNumber();
  if (n < 0 || n != std::floor(n)) {
    throw adpm::InvalidArgumentError("wire json: bad count");
  }
  return static_cast<std::size_t>(n);
}

}  // namespace

Client::OpenResult Client::openScenario(const std::string& session,
                                        const std::string& scenario,
                                        bool adpm) {
  json::Value body{json::Object{}};
  body.set("session", session);
  body.set("scenario", scenario);
  body.set("adpm", adpm);
  const json::Value v = request(FrameType::Open, std::move(body));
  return OpenResult{v.at("session").asString(), v.at("adpm").asBool(),
                    v.at("dddl").asString()};
}

Client::OpenResult Client::openDddl(const std::string& session,
                                    const std::string& dddl, bool adpm) {
  json::Value body{json::Object{}};
  body.set("session", session);
  body.set("dddl", dddl);
  body.set("adpm", adpm);
  const json::Value v = request(FrameType::Open, std::move(body));
  return OpenResult{v.at("session").asString(), v.at("adpm").asBool(),
                    v.at("dddl").asString()};
}

dpm::OperationRecord Client::apply(const std::string& session,
                                   const dpm::Operation& op) {
  json::Value body{json::Object{}};
  body.set("session", session);
  body.set("op", dpm::operationToJson(op));
  const json::Value v = request(FrameType::Apply, std::move(body));
  return operationRecordFromJson(v.at("record"));
}

Client::GuidanceSummary Client::guidance(const std::string& session) {
  json::Value body{json::Object{}};
  body.set("session", session);
  const json::Value v = request(FrameType::Guidance, std::move(body));
  GuidanceSummary summary;
  summary.present = v.at("present").asBool();
  if (summary.present) {
    summary.properties = asCount(v.at("properties"));
    summary.violated = asCount(v.at("violated"));
    summary.extraEvaluations = asCount(v.at("extraEvaluations"));
  }
  return summary;
}

Client::VerifySummary Client::verify(const std::string& session) {
  json::Value body{json::Object{}};
  body.set("session", session);
  const json::Value v = request(FrameType::Verify, std::move(body));
  VerifySummary summary;
  for (const json::Value& id : v.at("violated").asArray()) {
    summary.violated.push_back(
        constraint::ConstraintId{static_cast<std::uint32_t>(asCount(id))});
  }
  summary.evaluations = asCount(v.at("evaluations"));
  return summary;
}

service::SessionSnapshot Client::snapshot(const std::string& session,
                                          bool withText) {
  json::Value body{json::Object{}};
  body.set("session", session);
  body.set("text", withText);
  const json::Value v = request(FrameType::Snapshot, std::move(body));
  return snapshotFromJson(v.at("snapshot"));
}

void Client::subscribe(const std::string& session,
                       const std::string& designer) {
  json::Value body{json::Object{}};
  body.set("session", session);
  body.set("designer", designer);
  (void)request(FrameType::Subscribe, std::move(body));
}

util::json::Value Client::status() {
  return request(FrameType::Status, json::Value{json::Object{}});
}

void Client::closeSession(const std::string& session) {
  json::Value body{json::Object{}};
  body.set("session", session);
  (void)request(FrameType::CloseSession, std::move(body));
}

// -- load target --------------------------------------------------------------

namespace {

class WireTarget final : public service::LoadTarget {
 public:
  WireTarget(const Client::Options& options, std::string dddl,
             unsigned maxReconnects)
      : client_(options), dddl_(std::move(dddl)),
        reconnectsLeft_(maxReconnects) {
    client_.onNotification(
        [this](const std::string&, const dpm::Notification& n) {
          pending_.push_back(n);
        });
  }

  const dpm::ScenarioSpec& open(const std::string& id, bool adpm) override {
    id_ = id;
    client_.connectWithRetry();
    spec_ = dddl::parse(client_.openDddl(id, dddl_, adpm).dddl);
    return spec_;
  }

  void subscribe(const std::string& designer) override {
    client_.subscribe(id_, designer);
    designers_.push_back(designer);
  }

  bool apply(const dpm::Operation& op, std::size_t stageBefore) override {
    if (client_.serverShuttingDown()) return false;
    for (;;) {
      try {
        (void)client_.apply(id_, op);
        break;
      } catch (const ConnectionError&) {
        const std::size_t stage = resync().stage;
        if (stage == stageBefore + 1) break;  // it committed server-side
        if (stage != stageBefore) {
          throw adpm::Error("session '" + id_ +
                            "' diverged across reconnect (server at " +
                            std::to_string(stage) + ", shadow at " +
                            std::to_string(stageBefore) + ")");
        }
        // It never committed: resend.
      }
    }
    transientRetries = client_.transientRetries();
    return true;
  }

  std::vector<dpm::Notification> drain() override {
    try {
      client_.pump(0);
    } catch (const ConnectionError&) {
      // The last apply was acknowledged, so nothing is in flight; the next
      // request reconnects.
    }
    return std::exchange(pending_, {});
  }

  service::SessionSnapshot snapshot() override {
    service::SessionSnapshot snap;
    try {
      snap = client_.snapshot(id_, false);
    } catch (const ConnectionError&) {
      snap = resync();
    }
    transientRetries = client_.transientRetries();
    return snap;
  }

 private:
  /// Reconnects, re-subscribes and fetches the authoritative snapshot, as
  /// one step: a connection that dies anywhere in it spends one unit of the
  /// budget and starts over rather than failing the session.  Right after a
  /// server crash the kernel can hand out connections the dying listener
  /// had completed into its backlog — they look established and reset on
  /// first use.
  service::SessionSnapshot resync() {
    for (;;) {
      if (reconnectsLeft_ == 0) {
        throw ConnectionError("reconnect budget spent");
      }
      --reconnectsLeft_;
      ++reconnects;
      try {
        client_.connectWithRetry();
      } catch (const std::exception& e) {
        throw ConnectionError(std::string("reconnect failed: ") + e.what());
      }
      try {
        for (const std::string& designer : designers_) {
          client_.subscribe(id_, designer);
        }
        return client_.snapshot(id_, false);
      } catch (const ConnectionError&) {
        // stillborn connection or the server died again; spend another
      }
    }
  }

  Client client_;
  std::string dddl_;
  unsigned reconnectsLeft_;
  std::string id_;
  dpm::ScenarioSpec spec_;
  std::vector<std::string> designers_;
  std::vector<dpm::Notification> pending_;
};

}  // namespace

service::LoadHost wireHost(Client::Options options, std::string dddl,
                           unsigned maxReconnects) {
  return {.target = [options = std::move(options), dddl = std::move(dddl),
                     maxReconnects] {
    return std::make_unique<WireTarget>(options, dddl, maxReconnects);
  }};
}

}  // namespace adpm::net
