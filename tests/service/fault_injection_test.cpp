// Deterministic fault injection through the service stack: armed failpoints
// must reproduce identical error sequences across runs, transient WAL
// failures must be retried to success by the store's command policy, and
// injected recovery/bus failures must be counted and reported — never
// silent.  The whole suite needs the failpoints compiled in
// (-DADPM_FAULT_INJECTION=ON); without them it skips.
#include <gtest/gtest.h>

#if defined(ADPM_FAULT_INJECTION) && ADPM_FAULT_INJECTION

#include <filesystem>
#include <string>
#include <vector>

#include "dpm/scenario.hpp"
#include "service/store.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

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

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FaultRegistry::instance().reset();
    dir_ = fs::temp_directory_path() /
           ("adpm_fault_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    util::FaultRegistry::instance().reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(FaultInjectionTest, SeededFaultPlanReproducesIdenticalErrorSequence) {
  // The acceptance property: the same fault plan against the same command
  // script yields the *identical* error sequence, run after run.
  const fs::path walDir = dir_ / "seq";
  auto run = [&] {
    fs::remove_all(walDir);
    util::FaultRegistry::instance().reset();
    util::FaultRegistry::instance().armFromSpec(
        "wal.append=error:every=3");

    SessionStore::Options o;
    o.executor.deterministic = true;
    o.walDir = walDir.string();
    std::vector<std::string> events;
    {
      SessionStore store{std::move(o)};
      auto attempt = [&](const char* tag, auto fn) {
        try {
          fn();
          events.push_back(std::string(tag) + ":ok");
        } catch (const adpm::Error& e) {
          events.push_back(std::string(tag) + ":" + e.what());
        }
      };
      attempt("open", [&] { store.open("s", twoTeamScenario(), true); });
      attempt("x", [&] {  // wal hit 2
        store.applyOperation("s", synth(1, "ana", 1, 30.0)).get();
      });
      attempt("y", [&] {  // wal hit 3: injected failure, op NOT applied
        store.applyOperation("s", synth(2, "ben", 2, 15.0)).get();
      });
      attempt("y2", [&] {  // wal hit 4: the re-issued command lands
        store.applyOperation("s", synth(2, "ben", 2, 15.0)).get();
      });
      attempt("snap", [&] {
        events.push_back("stage=" +
                         std::to_string(store.snapshot("s").get().stage));
      });
    }
    util::FaultRegistry::instance().reset();
    return events;
  };

  const std::vector<std::string> first = run();
  const std::vector<std::string> second = run();
  EXPECT_EQ(first, second);

  // And the sequence is the one the plan dictates: hit 3 fails, rest pass.
  ASSERT_EQ(first.size(), 6u);
  EXPECT_EQ(first[0], "open:ok");
  EXPECT_EQ(first[1], "x:ok");
  EXPECT_NE(first[2].find("injected failure appending"), std::string::npos);
  EXPECT_EQ(first[3], "y2:ok");
  EXPECT_EQ(first[4], "stage=2");
  EXPECT_EQ(first[5], "snap:ok");
}

TEST_F(FaultInjectionTest, CommandPolicyRetriesTransientFaultsToSuccess) {
  SessionStore::Options o;
  o.executor.deterministic = true;
  o.command.retry.maxAttempts = 3;
  o.command.retry.backoffBase = std::chrono::microseconds(10);  // fast test
  SessionStore store{std::move(o)};
  store.open("s", twoTeamScenario(), true);

  // First two attempts hit the injected fault; the third lands.
  util::FaultRegistry::instance().armFromSpec("store.apply=error:every=1:max=2");
  const auto result = store.applyOperation("s", synth(1, "ana", 1, 30.0)).get();
  EXPECT_EQ(result.record.stage, 1u);
  EXPECT_EQ(store.retries(), 2u);
  EXPECT_EQ(store.snapshot("s").get().stage, 1u);
}

TEST_F(FaultInjectionTest, NonRetryingPolicySurfacesTheTypedError) {
  SessionStore store = [] {
    SessionStore::Options o;
    o.executor.deterministic = true;
    return SessionStore{std::move(o)};
  }();
  store.open("s", twoTeamScenario(), true);

  util::FaultRegistry::instance().armFromSpec("store.apply=error:every=1:max=1");
  auto future = store.applyOperation("s", synth(1, "ana", 1, 30.0));
  EXPECT_THROW(future.get(), adpm::FaultInjectedError);
  EXPECT_EQ(store.retries(), 0u);
  EXPECT_EQ(store.snapshot("s").get().stage, 0u);  // op never applied
}

TEST_F(FaultInjectionTest, InjectedRecoveryFailureIsReportedNotFatal) {
  const fs::path walDir = dir_ / "rec";
  {
    SessionStore::Options o;
    o.executor.deterministic = true;
    o.walDir = walDir.string();
    SessionStore store{std::move(o)};
    store.open("s1", twoTeamScenario(), true);
    store.open("s2", twoTeamScenario(), true);
    store.applyOperation("s1", synth(1, "ana", 1, 30.0)).get();
    store.applyOperation("s2", synth(1, "ana", 1, 30.0)).get();
  }

  // The recover() of the second log (sorted order) fails by injection; the
  // first still comes back and the loss is reported.
  util::FaultRegistry::instance().armFromSpec("store.recover=error:every=2");
  SessionStore::Options o;
  o.executor.deterministic = true;
  o.walDir = walDir.string();
  SessionStore store{std::move(o)};
  EXPECT_EQ(store.recover(), (std::vector<std::string>{"s1"}));

  const std::vector<std::string> errors = store.recoverErrors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("s2.wal"), std::string::npos);
  const auto report = store.recoverReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_TRUE(report[0].sessionLost);
  EXPECT_NE(report[0].detail.find("injected"), std::string::npos);
}

TEST_F(FaultInjectionTest, ShortWriteTearsTheLogAndSalvageTrimsIt) {
  const std::string path = (dir_ / "torn.wal").string();
  SessionConfig config;
  config.id = "s";
  config.scenarioName = "two-team";
  config.scenarioDddl = "object sys {}\n";
  dpm::Operation op = synth(1, "ana", 1, 30.0);
  {
    OperationLog log(path);
    log.appendOpen(config);
    log.appendOperation(op);

    // The injected short write persists a prefix of the record — a real
    // torn tail — and poisons the log against further appends.
    util::FaultRegistry::instance().armFromSpec(
        "wal.append=short-write:every=1:max=1");
    EXPECT_THROW(log.appendOperation(op), adpm::Error);
    EXPECT_THROW(log.appendOperation(op), adpm::Error);  // poisoned
    EXPECT_EQ(log.recordsWritten(), 2u);
  }
  EXPECT_THROW(OperationLog::read(path, RecoveryPolicy::Strict), adpm::Error);
  const OperationLog::Replay replay =
      OperationLog::read(path, RecoveryPolicy::Salvage);
  EXPECT_TRUE(replay.truncatedTail);
  EXPECT_GT(replay.droppedBytes, 0u);
  ASSERT_EQ(replay.operations.size(), 1u);
}

TEST_F(FaultInjectionTest, FailedFlushRollsBackSoTheAppendIsRetryable) {
  const std::string path = (dir_ / "flush.wal").string();
  SessionConfig config;
  config.id = "s";
  config.scenarioName = "two-team";
  config.scenarioDddl = "object sys {}\n";
  dpm::Operation op = synth(1, "ana", 1, 30.0);

  OperationLog log(path);
  log.appendOpen(config);
  const std::size_t durable = log.tailOffset();

  util::FaultRegistry::instance().armFromSpec("wal.flush=error:every=1:max=1");
  EXPECT_THROW(log.appendOperation(op), adpm::TransientError);
  EXPECT_EQ(log.tailOffset(), durable);                 // rolled back
  EXPECT_EQ(fs::file_size(path), durable);              // really rolled back
  log.appendOperation(op);                              // retry succeeds
  EXPECT_EQ(fs::file_size(path), log.tailOffset());
  const OperationLog::Replay replay = OperationLog::read(path);
  ASSERT_EQ(replay.operations.size(), 1u);  // exactly one, not a torn pair
}

TEST_F(FaultInjectionTest, FsyncFailurePoisonsTheLog) {
  const std::string path = (dir_ / "fsync.wal").string();
  SessionConfig config;
  config.id = "s";
  config.scenarioName = "two-team";
  config.scenarioDddl = "object sys {}\n";

  OperationLog log(path, /*sync=*/true);
  util::FaultRegistry::instance().armFromSpec("wal.fsync=error:every=1:max=1");
  // Not a TransientError: after a failed fsync the page-cache state is
  // unknowable, so no retry can honestly re-establish durability.
  try {
    log.appendOpen(config);
    FAIL() << "expected the injected fsync failure to throw";
  } catch (const adpm::TransientError&) {
    FAIL() << "fsync failure must not be retryable";
  } catch (const adpm::Error&) {
  }
  EXPECT_THROW(log.appendOperation(synth(1, "ana", 1, 30.0)), adpm::Error);
}

TEST_F(FaultInjectionTest, InjectedBusFailuresAreCountedNeverThrown) {
  SessionStore::Options o;
  o.executor.deterministic = true;
  SessionStore store{std::move(o)};
  store.open("s", twoTeamScenario(), true);
  auto queue = store.subscribe("s", "ana");

  util::FaultRegistry::instance().armFromSpec("bus.publish=error:every=1");
  // The ops themselves succeed — only the notification fan-out evaporates.
  // 30 + 40 > 50 violates the budget, which is guaranteed to fan out.
  store.applyOperation("s", synth(1, "ana", 1, 30.0)).get();
  const auto result = store.applyOperation("s", synth(2, "ben", 2, 40.0)).get();
  EXPECT_EQ(result.record.stage, 2u);
  EXPECT_EQ(queue->size(), 0u);
  EXPECT_GT(store.bus().injectedFailures(), 0u);
  EXPECT_EQ(store.bus().delivered(), 0u);
}

TEST_F(FaultInjectionTest, InjectedPostFailureIsTypedAndImmediate) {
  SessionStore::Options o;
  o.executor.deterministic = true;
  SessionStore store{std::move(o)};
  store.open("s", twoTeamScenario(), true);

  util::FaultRegistry::instance().armFromSpec("executor.post=error:every=1");
  EXPECT_THROW(store.snapshot("s"), adpm::FaultInjectedError);
  util::FaultRegistry::instance().reset();
  EXPECT_EQ(store.snapshot("s").get().stage, 0u);  // store still healthy
}

TEST_F(FaultInjectionTest, InjectedOpenFailureLeavesNoHalfSession) {
  const fs::path walDir = dir_ / "open";
  SessionStore::Options o;
  o.executor.deterministic = true;
  o.walDir = walDir.string();
  SessionStore store{std::move(o)};

  util::FaultRegistry::instance().armFromSpec("store.open=error:every=1:max=1");
  EXPECT_THROW(store.open("s", twoTeamScenario(), true),
               adpm::FaultInjectedError);
  EXPECT_FALSE(store.has("s"));
  EXPECT_FALSE(fs::exists(walDir / "s.wal"));  // no orphaned log either
  store.open("s", twoTeamScenario(), true);    // the id is still usable
  EXPECT_TRUE(store.has("s"));
}

}  // namespace
}  // namespace adpm::service

#else  // !ADPM_FAULT_INJECTION

namespace adpm::service {
namespace {

TEST(FaultInjectionTest, RequiresFaultInjectionBuild) {
  GTEST_SKIP() << "needs -DADPM_FAULT_INJECTION=ON";
}

}  // namespace
}  // namespace adpm::service

#endif
