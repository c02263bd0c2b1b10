// Concurrency: eight live sessions (three designers each) on a real thread
// pool, driven by the TeamSim load driver (one driver thread and shadow
// manager per session).  Run under ThreadSanitizer in
// CI (the ADPM_TSAN build) — the assertions here are the functional half,
// TSan provides the race-freedom half.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "gen/registry.hpp"
#include "service/load.hpp"
#include "service/session.hpp"
#include "service/store.hpp"

namespace adpm::service {
namespace {

namespace fs = std::filesystem;

class ServiceConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("adpm_concurrency_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ServiceConcurrencyTest, EightSessionsOnFourWorkers) {
  SessionStore::Options options;
  options.executor.threads = 4;
  options.walDir = dir_.string();
  SessionStore store{std::move(options)};

  LoadOptions load;
  load.sessions = 8;  // > workers: strands must multiplex fairly
  load.sim.adpm = true;
  load.sim.seed = 42;
  const dpm::ScenarioSpec spec = gen::scenarioByName("sensing");
  const LoadReport report = runLoad(store, spec, load);

  EXPECT_EQ(report.sessions, 8u);
  EXPECT_EQ(report.completedSessions, 8u);  // every design finished
  EXPECT_EQ(report.failedSessions, 0u);
  EXPECT_EQ(report.digestMismatches, 0u);  // every shadow matched its session
  EXPECT_GT(report.operations, 0u);
  EXPECT_GT(store.bus().published(), 0u);
  EXPECT_GT(store.bus().delivered(), 0u);
  EXPECT_GT(report.notificationsReceived, 0u);
  EXPECT_EQ(store.sessionCount(), 8u);

  // Every concurrent session journaled a WAL that replays to the exact
  // state the live session ended in — the strand serialized its operations
  // correctly even with 8 sessions contending for 4 workers.
  std::size_t evaluations = 0;
  for (const std::string& id : store.ids()) {
    const SessionSnapshot live = store.snapshot(id).get();
    evaluations += live.evaluations;
    EXPECT_TRUE(live.complete);
    const auto replayed =
        recoverSession((dir_ / (id + ".wal")).string());
    EXPECT_EQ(replayed->snapshot().text, live.text) << id;
    EXPECT_EQ(replayed->snapshot().digest, live.digest) << id;
  }
  EXPECT_GT(evaluations, 0u);
}

TEST_F(ServiceConcurrencyTest, ConcurrentRunMatchesDeterministicRun) {
  const dpm::ScenarioSpec spec = gen::scenarioByName("sensing");

  // Deterministic single-thread reference fleet.
  SessionStore::Options ref;
  ref.executor.deterministic = true;
  SessionStore refStore{std::move(ref)};
  LoadOptions load;
  load.sessions = 4;
  load.sim.seed = 7;
  const LoadReport refReport = runLoad(refStore, spec, load);

  // Same fleet on real threads: per-session streams are independent, so
  // every session must land in the same final state.
  SessionStore::Options conc;
  conc.executor.threads = 4;
  SessionStore concStore{std::move(conc)};
  const LoadReport concReport = runLoad(concStore, spec, load);

  EXPECT_EQ(refReport.digestMismatches, 0u);
  EXPECT_EQ(concReport.digestMismatches, 0u);
  EXPECT_EQ(concReport.operations, refReport.operations);
  EXPECT_EQ(concReport.completedSessions, refReport.completedSessions);
  for (const std::string& id : refStore.ids()) {
    EXPECT_EQ(concStore.snapshot(id).get().text,
              refStore.snapshot(id).get().text)
        << id;
  }
}

TEST_F(ServiceConcurrencyTest, MixedFlowsSideBySide) {
  SessionStore::Options options;
  options.executor.threads = 2;
  SessionStore store{std::move(options)};
  const dpm::ScenarioSpec spec = gen::scenarioByName("sensing");

  LoadOptions adpmLoad;
  adpmLoad.sessions = 2;
  adpmLoad.sim.adpm = true;
  adpmLoad.idPrefix = "t-";
  LoadOptions convLoad;
  convLoad.sessions = 2;
  convLoad.sim.adpm = false;
  convLoad.idPrefix = "f-";

  const LoadReport a = runLoad(store, spec, adpmLoad);
  const LoadReport b = runLoad(store, spec, convLoad);
  EXPECT_EQ(a.completedSessions, 2u);
  EXPECT_EQ(b.completedSessions, 2u);
  EXPECT_EQ(store.sessionCount(), 4u);
}

}  // namespace
}  // namespace adpm::service
