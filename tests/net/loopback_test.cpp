// End-to-end wire tests: a real net::Server on a loopback socket, driven by
// net::Client and service::runLoad over net::wireHost.  Covers concurrent
// clients with digest verification, WAL recovery bit-identity across the
// process boundary (simulated by a fresh store), graceful shutdown
// semantics, the typed error taxonomy and the store's command deadline over
// the wire, Open by scenario name, subscription pushes (no thread per
// subscription, slow-consumer degradation, pushes from in-process
// publishers), and malformed-frame handling.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dddl/writer.hpp"
#include "dpm/scenario.hpp"
#include "gen/registry.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/load.hpp"
#include "service/store.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace adpm::net {
namespace {

namespace fs = std::filesystem;
namespace json = util::json;
using namespace std::chrono_literals;

std::string sensingDddl() {
  static const std::string text = dddl::write(gen::scenarioByName("sensing"));
  return text;
}

/// `Threads:` from /proc/self/status.
std::size_t processThreads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

/// Line count of /proc/self/maps: one line per memory mapping.
std::size_t processMappings() {
  std::ifstream in("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

/// Two designers sharing one budget constraint x + y <= cap (cap = 50):
/// ana's x alternating between 30 and 5 against ben's y = 40 flips the
/// constraint between violated and satisfied, so every such op notifies
/// both designers.
dpm::ScenarioSpec budgetScenario() {
  using constraint::Relation;
  using interval::Domain;
  dpm::ScenarioSpec s;
  s.name = "budget";
  s.addObject("sys");
  s.addObject("a", "sys");
  s.addObject("b", "sys");
  const auto cap = s.addProperty("cap", "sys", Domain::continuous(10, 100));
  const auto x = s.addProperty("x", "a", Domain::continuous(0, 100));
  const auto y = s.addProperty("y", "b", Domain::continuous(0, 100));
  s.addConstraint(
      {"budget", s.pvar(x) + s.pvar(y), Relation::Le, s.pvar(cap), {}});
  s.addProblem({"Top", "sys", "lead", {}, {cap}, {0}, std::nullopt, {}, true});
  s.addProblem({"A", "a", "ana", {cap}, {x}, {0},
                std::optional<std::size_t>{0}, {}, true});
  s.addProblem({"B", "b", "ben", {cap}, {y}, {0},
                std::optional<std::size_t>{0}, {}, true});
  s.require(cap, 50.0);
  return s;
}

dpm::Operation synth(std::uint32_t prob, const char* designer,
                     std::uint32_t pid, double v) {
  dpm::Operation op;
  op.kind = dpm::OperatorKind::Synthesis;
  op.problem = dpm::ProblemId{prob};
  op.designer = designer;
  op.assignments.emplace_back(constraint::PropertyId{pid}, v);
  return op;
}

class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("adpm_loopback_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static service::SessionStore::Options storeOptions(
      const std::string& walDir = {}) {
    service::SessionStore::Options o;
    o.executor.threads = 2;
    o.walDir = walDir;
    return o;
  }

  static Client::Options clientOptions(std::uint16_t port) {
    Client::Options o;
    o.port = port;
    return o;
  }

  fs::path dir_;
};

TEST_F(LoopbackTest, PortIsPublishedSafelyToConcurrentPollers) {
  // Regression for an unsynchronized publish found by the thread-safety
  // migration: start() wrote the bound port into a plain uint16_t while
  // other threads (CLI status printers, tests) could already be polling
  // port().  The field is atomic now; a poller must observe exactly 0 (not
  // yet bound) or the final bound port — never a torn or stale-forever
  // value — and must see the bound port once start() has returned.
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});

  std::atomic<bool> stop{false};
  std::atomic<std::uint16_t> seen{0};
  std::thread poller([&] {
    while (!stop.load()) {
      const std::uint16_t p = server.port();
      if (p != 0) seen.store(p);
    }
  });

  const std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  // The poller must converge on the bound port now that start() returned.
  while (seen.load() != port) std::this_thread::yield();
  stop.store(true);
  poller.join();
  EXPECT_EQ(seen.load(), port);
  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, ConnectWithRetryBacksOffThenRethrows) {
  // A port that was bound and released: every connect is refused at once,
  // so the elapsed time is the backoff alone (50 ms, then 100 ms).
  std::uint16_t port = 0;
  {
    const ScopedFd listener = listenTcp("127.0.0.1", 0);
    port = localPort(listener.get());
  }
  Client::Options o = clientOptions(port);
  o.reconnectAttempts = 3;
  Client client(o);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.connectWithRetry(), ConnectionError);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 150ms);
  EXPECT_EQ(client.reconnectRetries(), 2u);
  EXPECT_FALSE(client.connected());
}

TEST_F(LoopbackTest, FourConcurrentClientsCompleteAndMatchDigests) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  service::LoadOptions load;
  load.sessions = 4;
  load.sim.seed = 11;
  const service::LoadReport report =
      service::runLoad(wireHost(clientOptions(port), sensingDddl()), load);

  EXPECT_EQ(report.sessions, 4u);
  EXPECT_EQ(report.completedSessions, 4u);
  EXPECT_EQ(report.failedSessions, 0u);
  EXPECT_EQ(report.digestMismatches, 0u);
  EXPECT_GT(report.operations, 0u);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, WalRecoveryIsBitIdenticalAfterWireLoad) {
  const std::string walDir = dir_.string();
  std::map<std::string, std::string> digests;
  {
    service::SessionStore store{storeOptions(walDir)};
    Server server(store, Server::Options{});
    const std::uint16_t port = server.start();

    service::LoadOptions load;
    load.sessions = 2;
    load.sim.seed = 5;
    const service::LoadReport report =
        service::runLoad(wireHost(clientOptions(port), sensingDddl()), load);
    ASSERT_EQ(report.failedSessions, 0u);
    ASSERT_EQ(report.digestMismatches, 0u);

    for (const std::string& id : store.ids()) {
      digests[id] = store.snapshot(id).get().digest;
    }
    ASSERT_EQ(digests.size(), 2u);
    EXPECT_TRUE(server.shutdown(5s));
  }

  // A fresh store replaying the WALs must land on bit-identical state —
  // the digest is a content hash of the full snapshot text.
  service::SessionStore fresh{storeOptions(walDir)};
  const std::vector<std::string> ids = fresh.recover();
  ASSERT_EQ(ids.size(), digests.size());
  EXPECT_TRUE(fresh.recoverErrors().empty());
  for (const auto& [id, digest] : digests) {
    EXPECT_EQ(fresh.snapshot(id).get().digest, digest) << id;
  }
}

TEST_F(LoopbackTest, GracefulShutdownAnnouncesAndRefusesMutations) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  Client::Options copts = clientOptions(port);
  copts.retry.maxAttempts = 1;  // surface the drain refusal instead of retrying
  Client client{copts};
  client.connect();
  client.openDddl("drain-0", sensingDddl(), /*adpm=*/true);

  // Park the session strand so the drain window stays open long enough for
  // the refused Apply below to be deterministic.
  (void)store.withSession("drain-0", [](service::Session&) {
    std::this_thread::sleep_for(700ms);
  });

  bool drained = false;
  std::thread stopper(
      [&server, &drained] { drained = server.shutdown(10s); });
  std::this_thread::sleep_for(100ms);  // draining_ set at shutdown() entry

  dpm::Operation op;
  op.designer = "ana";
  EXPECT_THROW(client.apply("drain-0", op), adpm::TransientError);

  stopper.join();
  EXPECT_TRUE(drained);

  // The farewell was flushed before the close; pump() dispatches it.
  client.pump(/*waitMs=*/500);
  EXPECT_TRUE(client.serverShuttingDown());
}

TEST_F(LoopbackTest, TypedErrorsRoundTripOverTheWire) {
  service::SessionStore store{storeOptions()};
  Server::Options opts;
  Server server(store, opts);  // no scenario registry on this server
  const std::uint16_t port = server.start();

  Client client{clientOptions(port)};
  client.connect();

  dpm::Operation op;
  op.designer = "ana";
  EXPECT_THROW(client.apply("no-such-session", op),
               adpm::InvalidArgumentError);
  EXPECT_THROW(client.openScenario("s", "sensing", true),
               adpm::InvalidArgumentError);

  // The connection survives typed failures — they are responses, not
  // protocol violations.
  client.openDddl("s", sensingDddl(), true);
  const service::SessionSnapshot snap = client.snapshot("s", false);
  EXPECT_EQ(snap.id, "s");

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, RemoteApplyQueuedPastTheDeadlineIsShedAndCounted) {
  // Wire commands run under the store's CommandPolicy, like in-process
  // ones: an Apply queued behind a busy strand past the deadline is shed
  // without executing, and the shed shows in the store's own counter.
  service::SessionStore::Options so = storeOptions();
  so.command.timeout = 50ms;
  service::SessionStore store{so};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();
  store.open("busy", budgetScenario(), /*adpm=*/true);

  // Posted first, so the remote Apply below queues behind it.
  auto sleeper = store.withSession(
      "busy", [](service::Session&) { std::this_thread::sleep_for(500ms); });
  Client client{clientOptions(port)};
  client.connect();
  EXPECT_THROW(client.apply("busy", synth(1, "ana", 1, 30.0)),
               adpm::TimeoutError);
  sleeper.get();

  EXPECT_EQ(store.timeouts(), 1u);
  EXPECT_EQ(store.snapshot("busy").get().stage, 0u);  // never executed
  EXPECT_EQ(client.status().at("store").at("timeouts").asNumber(), 1.0);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, OpenByNameReturnsTheScenarioAsCanonicalDddl) {
  service::SessionStore store{storeOptions()};
  const dpm::ScenarioSpec sensing = gen::scenarioByName("sensing");
  Server::Options opts;
  opts.scenarioByName =
      [&sensing](const std::string& name) -> const dpm::ScenarioSpec* {
    return name == "sensing" ? &sensing : nullptr;
  };
  Server server(store, opts);
  const std::uint16_t port = server.start();

  Client client{clientOptions(port)};
  client.connect();
  const Client::OpenResult open =
      client.openScenario("named", "sensing", /*adpm=*/true);
  EXPECT_EQ(open.session, "named");
  EXPECT_TRUE(open.adpm);
  EXPECT_EQ(open.dddl, sensingDddl());
  EXPECT_TRUE(store.has("named"));
  EXPECT_THROW(client.openScenario("other", "no-such-scenario", true),
               adpm::InvalidArgumentError);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, SubscriptionStreamsNotifications) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  service::LoadOptions load;
  load.sessions = 1;
  load.sim.seed = 3;
  const service::LoadReport report =
      service::runLoad(wireHost(clientOptions(port), sensingDddl()), load);
  EXPECT_EQ(report.failedSessions, 0u);
  EXPECT_GT(report.notificationsReceived, 0u);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, StatusReportsSessionsAndSubscriberQueues) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  Client client{clientOptions(port)};
  client.connect();
  client.openDddl("st-0", sensingDddl(), true);
  client.subscribe("st-0", "watcher");

  const json::Value v = client.status();
  bool found = false;
  for (const json::Value& id : v.at("sessions").asArray()) {
    if (id.asString() == "st-0") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(v.at("draining").asBool());
  const json::Value& subs = v.at("bus").at("subscribers");
  ASSERT_EQ(subs.asArray().size(), 1u);
  const json::Value& sub = subs.asArray()[0];
  EXPECT_EQ(sub.at("session").asString(), "st-0");
  EXPECT_EQ(sub.at("designer").asString(), "watcher");
  EXPECT_GT(sub.at("capacity").asNumber(), 0.0);
  EXPECT_GT(v.at("server").at("frames").asNumber(), 0.0);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, SubscriptionsStartNoThreadsAndLeaveNoMappings) {
  // Subscription queues drain on the reactor thread: subscribing starts no
  // thread, and a long-lived connection that keeps opening, subscribing to
  // and closing sessions leaves no per-subscription state (thread stacks
  // in particular) behind.
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  Client client{clientOptions(port)};
  client.connect();
  client.openDddl("live", sensingDddl(), true);
  const std::size_t threadsBefore = processThreads();
  for (int i = 0; i < 8; ++i) {
    client.subscribe("live", "watcher-" + std::to_string(i));
  }
  EXPECT_EQ(processThreads(), threadsBefore);
  client.closeSession("live");

  // Warm-up cycle so allocator arenas and lazily mapped code settle.
  client.openDddl("churn", sensingDddl(), true);
  client.subscribe("churn", "watcher");
  client.closeSession("churn");
  const std::size_t mappingsBefore = processMappings();
  for (int i = 0; i < 300; ++i) {
    const std::string id = "churn-" + std::to_string(i);
    client.openDddl(id, sensingDddl(), true);
    for (int k = 0; k < 3; ++k) {
      client.subscribe(id, "watcher-" + std::to_string(k));
    }
    client.closeSession(id);
  }
  EXPECT_LE(processMappings(), mappingsBefore + 16);
  EXPECT_EQ(processThreads(), threadsBefore);
  EXPECT_EQ(server.stats().subscriptions, 8u + 1u + 300u * 3u);

  EXPECT_TRUE(server.shutdown(5s));
}

// -- raw-socket protocol violations -------------------------------------------

namespace {

void writeRaw(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const IoResult r = writeSome(fd, bytes.data() + sent, bytes.size() - sent);
    if (r.status == IoStatus::WouldBlock) {
      waitFd(fd, /*forWrite=*/true, /*timeoutMs=*/-1);
      continue;
    }
    sent += r.n;
  }
}

/// Reads frames until EOF or the deadline; returns them.
std::vector<Frame> readUntilEof(int fd, bool& sawEof, int timeoutMs) {
  std::vector<Frame> frames;
  FrameParser parser;
  sawEof = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    while (std::optional<Frame> f = parser.next()) {
      frames.push_back(std::move(*f));
    }
    if (!waitFd(fd, /*forWrite=*/false, 100)) continue;
    char buf[4096];
    const IoResult r = readSome(fd, buf, sizeof buf);
    if (r.status == IoStatus::Eof) {
      sawEof = true;
      break;
    }
    if (r.status == IoStatus::Ok) parser.feed(buf, r.n);
  }
  while (std::optional<Frame> f = parser.next()) {
    frames.push_back(std::move(*f));
  }
  return frames;
}

}  // namespace

TEST_F(LoopbackTest, MalformedPayloadGetsErrorFrameThenClose) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  ScopedFd fd = connectTcp("127.0.0.1", port, 2000);
  writeRaw(fd.get(), encodeFrame(FrameType::Apply, "this is not json"));

  bool sawEof = false;
  const std::vector<Frame> frames = readUntilEof(fd.get(), sawEof, 3000);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::Error);
  const json::Value v = json::parse(frames[0].payload);
  EXPECT_EQ(v.at("error").asString(), "Protocol");
  EXPECT_TRUE(sawEof) << "server must drop the connection after a "
                         "protocol violation";
  EXPECT_GE(server.stats().protocolErrors, 1u);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, NonRequestFrameTypeIsAProtocolViolation) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  ScopedFd fd = connectTcp("127.0.0.1", port, 2000);
  // A client must never send a response/push type at the server.
  writeRaw(fd.get(), encodeFrame(FrameType::Notification, "{}"));

  bool sawEof = false;
  const std::vector<Frame> frames = readUntilEof(fd.get(), sawEof, 3000);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::Error);
  EXPECT_TRUE(sawEof);

  EXPECT_TRUE(server.shutdown(5s));
}

// -- subscription delivery over a raw socket ----------------------------------

namespace {

/// A wire subscriber that only reads when told to.
struct RawSubscriber {
  ScopedFd fd;
  FrameParser parser;

  RawSubscriber(std::uint16_t port, const std::string& session,
                const std::string& designer)
      : fd(connectTcp("127.0.0.1", port, 2000)) {
    json::Value req{json::Object{}};
    req.set("req", 1);
    req.set("session", session);
    req.set("designer", designer);
    writeRaw(fd.get(), encodeFrame(FrameType::Subscribe, json::serialize(req)));
    const std::vector<Frame> reply = readUntil(
        3000, [](const Frame& f) { return f.type == FrameType::Result; });
    EXPECT_FALSE(reply.empty()) << "no Subscribe result";
  }

  /// Reads frames until one satisfies `stop` or `timeoutMs` passes; returns
  /// every frame read.
  template <typename Pred>
  std::vector<Frame> readUntil(int timeoutMs, Pred stop) {
    std::vector<Frame> frames;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    for (;;) {
      while (std::optional<Frame> f = parser.next()) {
        frames.push_back(std::move(*f));
        if (stop(frames.back())) return frames;
      }
      if (std::chrono::steady_clock::now() >= deadline) return frames;
      if (!waitFd(fd.get(), /*forWrite=*/false, 50)) continue;
      char buf[64 * 1024];
      const IoResult r = readSome(fd.get(), buf, sizeof buf);
      if (r.status == IoStatus::Eof) return frames;
      if (r.status == IoStatus::Ok) parser.feed(buf, r.n);
    }
  }
};

bool isNotificationOfKind(const Frame& f, const char* kind) {
  return f.type == FrameType::Notification &&
         json::parse(f.payload).at("kind").asString() == kind;
}

}  // namespace

TEST_F(LoopbackTest, SlowWireConsumerDegradesInsteadOfParkingAStrand) {
  // A subscriber that stops reading fills its socket buffers, then the
  // connection's write buffer past the reactor's high-water mark; from then
  // on its bus queue is not drained, so the bus downgrades it to one
  // coalesced ResyncRequired marker.  The publishing strand never waits on
  // the slow reader.  The bus runs with its shipped thresholds: degraded
  // delivery is not an opt-in.
  service::SessionStore::Options so = storeOptions();
  so.command.timeout = 5s;
  service::SessionStore store{so};
  Server::Options opts;
  opts.reactor.writeHighWater = 4096;
  Server server(store, opts);
  const std::uint16_t port = server.start();

  store.open("slow", budgetScenario(), /*adpm=*/true);
  RawSubscriber sub(port, "slow", "ana");

  store.applyOperation("slow", synth(2, "ben", 2, 40.0)).get();
  const auto deadline = store.options().command.timeout;
  for (int i = 0; i < 200000 && store.bus().downgrades() == 0; ++i) {
    auto done = store.applyOperation(
        "slow", synth(1, "ana", 1, i % 2 == 0 ? 30.0 : 5.0));
    ASSERT_EQ(done.wait_for(deadline), std::future_status::ready)
        << "apply " << i << " parked behind the slow subscriber";
    done.get();
  }
  EXPECT_GT(store.bus().downgrades(), 0u);

  const std::vector<Frame> frames = sub.readUntil(5000, [](const Frame& f) {
    return isNotificationOfKind(f, "ResyncRequired");
  });
  ASSERT_FALSE(frames.empty());
  EXPECT_TRUE(isNotificationOfKind(frames.back(), "ResyncRequired"))
      << "read " << frames.size() << " frames without a ResyncRequired";

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, PushesFromAnInProcessPublisherReachTheWire) {
  // The subscriber sends nothing after subscribing, and the operations are
  // applied in-process, not over the wire: only the bus waking the reactor
  // can get these notifications onto the socket.
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  store.open("local", budgetScenario(), /*adpm=*/true);
  RawSubscriber sub(port, "local", "ana");

  store
      .withSession("local",
                   [](service::Session& s) {
                     (void)s.apply(synth(2, "ben", 2, 40.0));
                     (void)s.apply(synth(1, "ana", 1, 30.0));
                   })
      .get();

  const std::vector<Frame> frames = sub.readUntil(
      2000, [](const Frame& f) { return f.type == FrameType::Notification; });
  ASSERT_FALSE(frames.empty()) << "no Notification within 2 s";
  EXPECT_EQ(frames.back().type, FrameType::Notification);
  EXPECT_EQ(json::parse(frames.back().payload).at("session").asString(),
            "local");

  EXPECT_TRUE(server.shutdown(5s));
}

}  // namespace
}  // namespace adpm::net
