// Deterministic replay: a session rebuilt from its operation log must land
// in a bit-identical observable state — network hull, violation set, and
// (λ=T) the full GuidanceReport — for both flows.  This is the durability
// guarantee the WAL exists for.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "gen/registry.hpp"
#include "service/load.hpp"
#include "service/session.hpp"
#include "service/store.hpp"
#include "util/error.hpp"

namespace adpm::service {
namespace {

namespace fs = std::filesystem;

class SessionReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("adpm_replay_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  SessionStore::Options storeOptions(const char* sub) const {
    SessionStore::Options o;
    o.executor.deterministic = true;
    o.session.markEvery = 1;  // a digest check after every operation
    o.walDir = (dir_ / sub).string();
    return o;
  }

  /// Drives one full session (TeamSim designers as clients) and returns its
  /// final snapshot.  The WAL lands in dir_/<sub>/<prefix>0.wal.
  SessionSnapshot runOne(const char* sub, bool adpm, std::uint64_t seed) {
    SessionStore store(storeOptions(sub));
    LoadOptions load;
    load.sessions = 1;
    load.sim.adpm = adpm;
    load.sim.seed = seed;
    const LoadReport report =
        runLoad(store, gen::scenarioByName("sensing"), load);
    EXPECT_EQ(report.sessions, 1u);
    EXPECT_GT(report.operations, 0u);
    return store.snapshot("load-0").get();
  }

  std::string walPath(const char* sub) const {
    return (dir_ / sub / "load-0.wal").string();
  }

  fs::path dir_;
};

TEST_F(SessionReplayTest, ReplayIsBitIdenticalForAdpmFlow) {
  const SessionSnapshot live = runOne("t", /*adpm=*/true, 7);
  ASSERT_FALSE(live.text.empty());
  // λ=T snapshots embed the mined guidance (the "g " lines).
  EXPECT_NE(live.text.find("\ng "), std::string::npos);

  const auto recovered = recoverSession(walPath("t"));
  const SessionSnapshot replayed = recovered->snapshot();
  EXPECT_EQ(replayed.stage, live.stage);
  EXPECT_EQ(replayed.violations, live.violations);
  EXPECT_EQ(replayed.text, live.text);  // bit-identical state
  EXPECT_EQ(replayed.digest, live.digest);
}

TEST_F(SessionReplayTest, ReplayIsBitIdenticalForConventionalFlow) {
  const SessionSnapshot live = runOne("f", /*adpm=*/false, 7);
  ASSERT_FALSE(live.text.empty());
  // λ=F mines no guidance; the snapshot must say so too.
  EXPECT_EQ(live.text.find("\ng "), std::string::npos);

  const auto recovered = recoverSession(walPath("f"));
  const SessionSnapshot replayed = recovered->snapshot();
  EXPECT_EQ(replayed.stage, live.stage);
  EXPECT_EQ(replayed.text, live.text);
  EXPECT_EQ(replayed.digest, live.digest);
}

TEST_F(SessionReplayTest, IdenticalSeedsProduceIdenticalRuns) {
  const SessionSnapshot a = runOne("a", /*adpm=*/true, 11);
  const SessionSnapshot b = runOne("b", /*adpm=*/true, 11);
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.digest, b.digest);
}

TEST_F(SessionReplayTest, FlowsDiverge) {
  // Sanity: λ actually changes the process (else the two flow tests above
  // would be testing the same thing twice).
  const SessionSnapshot t = runOne("dt", /*adpm=*/true, 7);
  const SessionSnapshot f = runOne("df", /*adpm=*/false, 7);
  EXPECT_NE(t.text, f.text);
}

TEST_F(SessionReplayTest, RecoveryDetectsDivergence) {
  runOne("tamper", /*adpm=*/true, 7);

  // Corrupt one mark digest; replay must refuse the log.
  const std::string path = walPath("tamper");
  std::stringstream buffer;
  {
    std::ifstream in(path);
    buffer << in.rdbuf();
  }
  std::string content = buffer.str();
  const std::string needle = "\"digest\":\"";
  const std::size_t at = content.find(needle);
  ASSERT_NE(at, std::string::npos);
  content[at + needle.size()] =
      content[at + needle.size()] == '0' ? '1' : '0';
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }
  EXPECT_THROW(recoverSession(path), adpm::Error);
}

TEST_F(SessionReplayTest, TeardownSealsTheLogWithAFinalMark) {
  // With the default markEvery (32) a short sensing run never reaches a
  // periodic boundary; the seal mark written on session teardown is what
  // lets recovery validate the *final* state of every WAL.
  SessionStore::Options o = storeOptions("seal");
  o.session.markEvery = 32;
  std::size_t operations = 0;
  {
    SessionStore store(o);
    LoadOptions load;
    load.sessions = 1;
    load.sim.adpm = true;
    load.sim.seed = 7;
    operations =
        runLoad(store, gen::scenarioByName("sensing"), load).operations;
  }
  ASSERT_GT(operations, 0u);
  ASSERT_LT(operations, 32u);  // else this test exercises nothing

  const OperationLog::Replay replay = OperationLog::read(walPath("seal"));
  ASSERT_EQ(replay.marks.size(), 1u);  // no periodic marks, one seal
  EXPECT_EQ(replay.marks.back().stage, operations);

  // The seal digest is live: recovery checks it...
  { const auto recovered = recoverSession(walPath("seal")); }

  // ...and a recover → destroy cycle must not stack duplicate seals.
  EXPECT_EQ(OperationLog::read(walPath("seal")).marks.size(), 1u);

  // Tampering with the seal is caught even though no periodic mark exists.
  const std::string path = walPath("seal");
  std::stringstream buffer;
  {
    std::ifstream in(path);
    buffer << in.rdbuf();
  }
  std::string content = buffer.str();
  const std::string needle = "\"digest\":\"";
  const std::size_t at = content.find(needle);
  ASSERT_NE(at, std::string::npos);
  content[at + needle.size()] =
      content[at + needle.size()] == '0' ? '1' : '0';
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }
  EXPECT_THROW(recoverSession(path), adpm::Error);
}

TEST_F(SessionReplayTest, StoreRecoverRebuildsAllSessions) {
  SessionSnapshot liveT;
  SessionSnapshot liveF;
  {
    SessionStore store(storeOptions("multi"));
    LoadOptions load;
    load.sessions = 1;
    load.sim.seed = 3;
    load.sim.adpm = true;
    load.idPrefix = "t-";
    runLoad(store, gen::scenarioByName("sensing"), load);
    load.sim.adpm = false;
    load.idPrefix = "f-";
    runLoad(store, gen::scenarioByName("sensing"), load);
    liveT = store.snapshot("t-0").get();
    liveF = store.snapshot("f-0").get();
  }

  SessionStore fresh(storeOptions("multi"));
  const std::vector<std::string> recovered = fresh.recover();
  EXPECT_EQ(recovered,
            (std::vector<std::string>{"f-0", "t-0"}));  // sorted by path
  EXPECT_TRUE(fresh.recoverErrors().empty());
  EXPECT_EQ(fresh.snapshot("t-0").get().text, liveT.text);
  EXPECT_EQ(fresh.snapshot("f-0").get().text, liveF.text);

  // Recovery skips ids that are already live instead of clobbering them.
  EXPECT_TRUE(fresh.recover().empty());
}

TEST_F(SessionReplayTest, RecoverSkipsBadLogsAndRecoversTheRest) {
  {
    SessionStore store(storeOptions("part"));
    LoadOptions load;
    load.sessions = 1;
    load.sim.seed = 3;
    load.sim.adpm = true;
    load.idPrefix = "t-";
    runLoad(store, gen::scenarioByName("sensing"), load);
  }
  // A corrupt sibling log (no header) sorts before the good one.
  const fs::path bad = dir_ / "part" / "a-bad.wal";
  {
    std::ofstream out(bad);
    out << "{not json\n";
  }

  SessionStore fresh(storeOptions("part"));
  const std::vector<std::string> recovered = fresh.recover();
  EXPECT_EQ(recovered, (std::vector<std::string>{"t-0"}));
  EXPECT_GT(fresh.snapshot("t-0").get().stage, 0u);  // fully rebuilt
  const std::vector<std::string> errors = fresh.recoverErrors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("a-bad.wal"), std::string::npos);
}

}  // namespace
}  // namespace adpm::service
