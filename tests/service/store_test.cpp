// SessionStore's typed command API, exercised in deterministic mode (every
// command runs inline, so futures are ready on return and assertions are
// bit-stable).
#include "service/store.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dpm/scenario.hpp"
#include "util/error.hpp"

namespace adpm::service {
namespace {

namespace fs = std::filesystem;

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

SessionStore deterministicStore() {
  SessionStore::Options o;
  o.executor.deterministic = true;
  return SessionStore(std::move(o));
}

TEST(SessionStore, OpenApplySnapshot) {
  SessionStore store = deterministicStore();
  store.open("s1", twoTeamScenario(), /*adpm=*/true);
  EXPECT_TRUE(store.has("s1"));
  EXPECT_EQ(store.sessionCount(), 1u);
  EXPECT_EQ(store.ids(), (std::vector<std::string>{"s1"}));

  const auto result = store.applyOperation("s1", synth(1, "ana", 1, 30.0)).get();
  EXPECT_EQ(result.record.stage, 1u);
  const SessionSnapshot snap = store.snapshot("s1").get();
  EXPECT_EQ(snap.id, "s1");
  EXPECT_EQ(snap.stage, 1u);
  EXPECT_FALSE(snap.text.empty());
  EXPECT_EQ(snap.digest.size(), 16u);
}

TEST(SessionStore, DuplicateAndUnsafeIdsAreRejected) {
  SessionStore store = deterministicStore();
  store.open("s1", twoTeamScenario(), true);
  EXPECT_THROW(store.open("s1", twoTeamScenario(), true),
               adpm::InvalidArgumentError);
  EXPECT_THROW(store.open("", twoTeamScenario(), true),
               adpm::InvalidArgumentError);
  EXPECT_THROW(store.open("../escape", twoTeamScenario(), true),
               adpm::InvalidArgumentError);
  EXPECT_THROW(store.open("a/b", twoTeamScenario(), true),
               adpm::InvalidArgumentError);
  EXPECT_THROW(store.open(std::string(200, 'x'), twoTeamScenario(), true),
               adpm::InvalidArgumentError);
}

TEST(SessionStore, UnknownSessionThrowsOnCommand) {
  SessionStore store = deterministicStore();
  EXPECT_THROW(store.snapshot("ghost"), adpm::InvalidArgumentError);
  EXPECT_THROW(store.applyOperation("ghost", synth(1, "ana", 1, 1.0)),
               adpm::InvalidArgumentError);
  EXPECT_THROW(store.subscribe("ghost", "ana"), adpm::InvalidArgumentError);
}

TEST(SessionStore, QueryGuidanceReflectsLambda) {
  SessionStore store = deterministicStore();
  store.open("t", twoTeamScenario(), /*adpm=*/true);
  store.open("f", twoTeamScenario(), /*adpm=*/false);
  store.applyOperation("t", synth(1, "ana", 1, 30.0)).get();
  store.applyOperation("f", synth(1, "ana", 1, 30.0)).get();

  const auto guidanceT = store.queryGuidance("t").get();
  ASSERT_TRUE(guidanceT.has_value());
  EXPECT_FALSE(guidanceT->properties.empty());
  // λ=F runs no propagation/mining: guidance is empty by construction.
  EXPECT_FALSE(store.queryGuidance("f").get().has_value());
}

TEST(SessionStore, VerifyReportsViolationsOfBoundConstraints) {
  SessionStore store = deterministicStore();
  store.open("s", twoTeamScenario(), /*adpm=*/false);
  store.applyOperation("s", synth(1, "ana", 1, 30.0)).get();
  store.applyOperation("s", synth(2, "ben", 2, 40.0)).get();  // 30+40 > 50

  const Session::VerifyResult verdict = store.verify("s").get();
  ASSERT_EQ(verdict.violated.size(), 1u);
  EXPECT_EQ(verdict.violated[0].value, 0u);
  EXPECT_GT(verdict.evaluations, 0u);
}

TEST(SessionStore, SubscribersReceiveNotificationFanOut) {
  SessionStore store = deterministicStore();
  store.open("s", twoTeamScenario(), /*adpm=*/true);
  auto ana = store.subscribe("s", "ana");
  auto ben = store.subscribe("s", "ben");

  store.applyOperation("s", synth(1, "ana", 1, 30.0)).get();
  store.applyOperation("s", synth(2, "ben", 2, 40.0)).get();

  // The budget violation involves x (ana) and y (ben): both seats hear it.
  bool anaViolation = false;
  while (auto n = ana->tryPop()) {
    if (n->kind == dpm::NotificationKind::ViolationDetected) {
      anaViolation = true;
    }
  }
  bool benViolation = false;
  while (auto n = ben->tryPop()) {
    if (n->kind == dpm::NotificationKind::ViolationDetected) {
      benViolation = true;
    }
  }
  EXPECT_TRUE(anaViolation);
  EXPECT_TRUE(benViolation);
  EXPECT_GT(store.bus().published(), 0u);
  EXPECT_GT(store.bus().delivered(), 0u);
}

TEST(SessionStore, CloseForgetsTheSessionButKeepsTheWal) {
  const fs::path dir =
      fs::temp_directory_path() / "adpm_store_test_close";
  fs::remove_all(dir);
  {
    SessionStore::Options o;
    o.executor.deterministic = true;
    o.walDir = dir.string();
    SessionStore store{std::move(o)};
    store.open("s", twoTeamScenario(), true);
    auto queue = store.subscribe("s", "ana");
    store.applyOperation("s", synth(1, "ana", 1, 30.0)).get();

    store.close("s");
    EXPECT_FALSE(store.has("s"));
    EXPECT_TRUE(queue->closed());
    EXPECT_THROW(store.snapshot("s"), adpm::InvalidArgumentError);
    store.close("s");  // idempotent
    EXPECT_TRUE(fs::exists(dir / "s.wal"));

    // The id cannot be reused while the old WAL exists: open() always
    // writes a fresh header, and a two-header log is unrecoverable, so the
    // store refuses instead of silently corrupting the file.
    EXPECT_THROW(store.open("s", twoTeamScenario(), true),
                 adpm::InvalidArgumentError);
    EXPECT_FALSE(store.has("s"));

    // After removing the leftover log the id is free again.
    fs::remove(dir / "s.wal");
    store.open("s", twoTeamScenario(), true);
    EXPECT_EQ(store.snapshot("s").get().stage, 0u);
  }
  fs::remove_all(dir);
}

TEST(SessionStore, QueuedTooLongCommandFailsWithTimeoutError) {
  SessionStore::Options o;
  o.executor.threads = 1;  // one worker: the sleeper blocks the strand
  o.command.timeout = std::chrono::milliseconds(20);
  SessionStore store{std::move(o)};
  store.open("s", twoTeamScenario(), true);

  // Occupy the session's strand (dequeued at once, so well within its own
  // deadline), then queue a typed command behind it; by the time the
  // strand dequeues the command its deadline has long passed.
  auto sleeper = store.withSession("s", [](Session&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return 0;
  });
  auto late = store.applyOperation("s", synth(1, "ana", 1, 30.0));
  sleeper.get();
  EXPECT_THROW(late.get(), adpm::TimeoutError);
  EXPECT_EQ(store.timeouts(), 1u);

  // The shed command was never executed: the session is still at stage 0
  // and a fresh command (queued while the strand is idle) runs normally.
  EXPECT_EQ(store.snapshot("s").get().stage, 0u);
  EXPECT_EQ(store.retries(), 0u);
}

TEST(SessionStore, RecoverReportIsEmptyOnCleanRecovery) {
  const fs::path dir = fs::temp_directory_path() / "adpm_store_test_report";
  fs::remove_all(dir);
  {
    SessionStore::Options o;
    o.executor.deterministic = true;
    o.walDir = dir.string();
    {
      SessionStore store{SessionStore::Options(o)};
      store.open("s", twoTeamScenario(), true);
      store.applyOperation("s", synth(1, "ana", 1, 30.0)).get();
    }
    SessionStore store{std::move(o)};
    EXPECT_EQ(store.recover(), (std::vector<std::string>{"s"}));
    EXPECT_TRUE(store.recoverErrors().empty());
    EXPECT_TRUE(store.recoverReport().empty());
  }
  fs::remove_all(dir);
}

TEST(SessionStore, VolatileStoreHasNoLog) {
  SessionStore store = deterministicStore();
  store.open("s", twoTeamScenario(), true);
  EXPECT_TRUE(store.recover().empty());
  store.applyOperation("s", synth(1, "ana", 1, 30.0)).get();
  EXPECT_EQ(store.snapshot("s").get().stage, 1u);
}

}  // namespace
}  // namespace adpm::service
