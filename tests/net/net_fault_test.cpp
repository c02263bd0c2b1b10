// Socket failpoint torture (ISSUE-6): the net.read / net.write / net.accept
// failpoints in the socket wrappers must surface as ConnectionError, the
// client's reconnect-and-resync path must disambiguate the in-flight
// command, and — the load-bearing invariant — injected socket chaos must
// NEVER produce silent divergence between a client's shadow and the
// server's session.  Needs -DADPM_FAULT_INJECTION=ON; skips without it.
#include <gtest/gtest.h>

#if defined(ADPM_FAULT_INJECTION) && ADPM_FAULT_INJECTION

#include <chrono>
#include <optional>
#include <string>

#include "dddl/writer.hpp"
#include "dpm/scenario.hpp"
#include "gen/registry.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "service/load.hpp"
#include "service/store.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace adpm::net {
namespace {

using namespace std::chrono_literals;
using constraint::PropertyId;
using constraint::Relation;
using interval::Domain;

dpm::ScenarioSpec twoTeamScenario() {
  dpm::ScenarioSpec s;
  s.name = "two-team";
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
  op.assignments.emplace_back(PropertyId{pid}, v);
  return op;
}

class NetFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultRegistry::instance().reset(); }
  void TearDown() override { util::FaultRegistry::instance().reset(); }

  static util::FaultPlan once(util::FaultAction action) {
    util::FaultPlan plan;
    plan.action = action;
    plan.everyNth = 1;
    plan.maxFires = 1;
    return plan;
  }
};

TEST_F(NetFaultTest, ShortWriteTearsTheFrameAndTheResendLands) {
  service::SessionStore store{{}};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  Client::Options copts;
  copts.port = port;
  Client client{copts};
  client.connect();
  client.openDddl("f", dddl::write(twoTeamScenario()), true);
  client.apply("f", synth(1, "ana", 1, 30.0));
  ASSERT_EQ(client.snapshot("f", false).stage, 1u);

  {
    // The very next write anywhere in the process is the client's Apply
    // frame: half of it reaches the server (a torn frame its parser must
    // hold, then discard at EOF), the rest dies with the connection.
    util::ScopedFault fault("net.write", once(util::FaultAction::ShortWrite));
    EXPECT_THROW(client.apply("f", synth(2, "ben", 2, 15.0)), ConnectionError);
    EXPECT_EQ(util::FaultRegistry::instance().fired("net.write"), 1u);
  }

  // The torn frame never decoded, so the operation never executed: the
  // reconnect sees the old stage and the resend commits exactly once.
  client.connect();
  ASSERT_EQ(client.snapshot("f", false).stage, 1u);
  client.apply("f", synth(2, "ben", 2, 15.0));
  EXPECT_EQ(client.snapshot("f", false).stage, 2u);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(NetFaultTest, ReadFaultDropsTheConnectionWithoutExecuting) {
  service::SessionStore store{{}};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  Client::Options copts;
  copts.port = port;
  Client client{copts};
  client.connect();
  client.openDddl("f", dddl::write(twoTeamScenario()), true);
  client.apply("f", synth(1, "ana", 1, 30.0));

  {
    // The server's reactor is the next reader of actual socket data (the
    // client only reads after the server reacted), so the fault lands on
    // the server's read of the Apply frame — before it ever parses.
    util::ScopedFault fault("net.read", once(util::FaultAction::Error));
    EXPECT_THROW(client.apply("f", synth(2, "ben", 2, 15.0)), ConnectionError);
    EXPECT_EQ(util::FaultRegistry::instance().fired("net.read"), 1u);
  }

  client.connect();
  ASSERT_EQ(client.snapshot("f", false).stage, 1u);
  client.apply("f", synth(2, "ben", 2, 15.0));
  EXPECT_EQ(client.snapshot("f", false).stage, 2u);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(NetFaultTest, AcceptFaultResetsThePeerButTheServerKeepsServing) {
  service::SessionStore store{{}};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  Client::Options copts;
  copts.port = port;
  Client client{copts};

  {
    util::ScopedFault fault("net.accept", once(util::FaultAction::Error));
    // The TCP handshake completes from the backlog, so connect() succeeds;
    // the injected accept failure then closes the socket server-side and
    // the first request dies.
    client.connect();
    EXPECT_THROW(client.openDddl("f", dddl::write(twoTeamScenario()), true),
                 ConnectionError);
    EXPECT_EQ(util::FaultRegistry::instance().fired("net.accept"), 1u);
  }

  client.connect();
  client.openDddl("f", dddl::write(twoTeamScenario()), true);
  EXPECT_EQ(client.snapshot("f", false).stage, 0u);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(NetFaultTest, WireLoadUnderSocketFaultsNeverDivergesSilently) {
  service::SessionStore::Options so;
  so.executor.threads = 2;
  service::SessionStore store{so};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  // Periodic short-writes tear connections on both sides of the wire while
  // two sessions run the full workload.  The contract under chaos: every
  // session either completes with a bit-identical shadow or fails LOUDLY —
  // digestMismatches (silent divergence) must stay zero no matter what.
  util::FaultRegistry::instance().armFromSpec(
      "net.write=short-write:every=60:max=4");

  Client::Options client;
  client.port = port;
  const service::LoadHost host = wireHost(
      client, dddl::write(gen::scenarioByName("sensing")), /*maxReconnects=*/16);
  service::LoadOptions load;
  load.sessions = 2;
  load.sim.seed = 17;
  load.idPrefix = "chaos-";
  const service::LoadReport report = service::runLoad(host, load);

  EXPECT_GE(util::FaultRegistry::instance().fired("net.write"), 1u);
  EXPECT_EQ(report.digestMismatches, 0u);
  EXPECT_EQ(report.completedSessions + report.failedSessions, report.sessions);

  // Disarm and prove the service recovered fully: a clean load on the same
  // server must succeed end to end.
  util::FaultRegistry::instance().reset();
  service::LoadOptions clean = load;
  clean.idPrefix = "after-";
  const service::LoadReport after = service::runLoad(host, clean);
  EXPECT_EQ(after.completedSessions, after.sessions);
  EXPECT_EQ(after.failedSessions, 0u);
  EXPECT_EQ(after.digestMismatches, 0u);

  EXPECT_TRUE(server.shutdown(5s));
}

}  // namespace
}  // namespace adpm::net

#else  // !ADPM_FAULT_INJECTION

namespace adpm::net {
namespace {

TEST(NetFaultTest, RequiresFaultInjectionBuild) {
  GTEST_SKIP() << "needs -DADPM_FAULT_INJECTION=ON";
}

}  // namespace
}  // namespace adpm::net

#endif
