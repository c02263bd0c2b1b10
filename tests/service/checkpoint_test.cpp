// Bounded crash recovery: durable state checkpoints + tail-only replay.
//
// The universal oracle everywhere below: a recovered session's canonical
// snapshot text must be bit-identical to a clean replay of the same
// operation prefix — checkpoints may only change how *much* is replayed,
// never what state comes out.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dddl/writer.hpp"
#include "dpm/manager.hpp"
#include "dpm/state_io.hpp"
#include "gen/registry.hpp"
#include "service/session.hpp"
#include "service/store.hpp"
#include "service/wal.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace adpm::service {
namespace {

namespace fs = std::filesystem;

/// Deterministic synthetic operation stream: round-robin property rebinds.
/// applySynthesis accepts any in-range property for any problem, so this is
/// a legal (if designerless-ly mechanical) collaborative-design transcript.
dpm::Operation synthOp(std::size_t i, std::size_t propertyCount) {
  dpm::Operation op;
  op.kind = dpm::OperatorKind::Synthesis;
  op.problem = dpm::ProblemId{0};
  op.designer = "gen";
  op.assignments.emplace_back(
      constraint::PropertyId{static_cast<std::uint32_t>(i % propertyCount)},
      0.25 + 0.125 * static_cast<double>(i % 7));
  return op;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("adpm_ckpt_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    spec_ = gen::scenarioByName("sensing");
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string basePath(const char* id) const {
    return (dir_ / (std::string(id) + ".wal")).string();
  }

  SessionConfig makeConfig(const char* id, bool adpm) const {
    SessionConfig c;
    c.id = id;
    c.adpm = adpm;
    c.scenarioName = spec_.name;
    c.scenarioDddl = dddl::write(spec_);
    return c;
  }

  /// Options for the checkpointed tests: segments of 8 ops, checkpoint at
  /// every segment boundary, keep 2 — 30 ops land checkpoints at stages
  /// 8/16/24 and compaction deletes segments 0 and 1.
  static Session::Options checkpointedOptions() {
    Session::Options o;
    o.markEvery = 2;
    o.segmentOps = 8;
    o.checkpointEvery = 8;
    o.checkpointKeep = 2;
    return o;
  }

  /// Runs `count` synthetic ops through a journaled session and returns the
  /// final snapshot text (the bit-identity oracle).
  std::string runJournaled(const char* id, bool adpm, std::size_t count,
                           const Session::Options& options) {
    const SessionConfig cfg = makeConfig(id, adpm);
    SegmentedLog::Options lo;
    lo.segmentBytes = options.segmentBytes;
    lo.segmentOps = options.segmentOps;
    auto log = std::make_unique<SegmentedLog>(basePath(id), cfg, lo);
    Session session(cfg, spec_, std::move(log), options);
    const std::size_t props = session.manager().network().propertyCount();
    for (std::size_t i = 0; i < count; ++i) {
      session.apply(synthOp(i, props));
    }
    return session.snapshot().text;
  }

  static void flipByte(const std::string& path, std::size_t at) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekg(static_cast<std::streamoff>(at));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(at));
    f.put(static_cast<char>(c ^ 0x10));
  }

  fs::path dir_;
  dpm::ScenarioSpec spec_;
};

// -- ManagerState serialization ----------------------------------------------

TEST_F(CheckpointTest, ManagerStateJsonRoundTripIsBitIdentical) {
  for (const bool adpm : {true, false}) {
    const SessionConfig cfg = makeConfig(adpm ? "rt-t" : "rt-f", adpm);
    Session live(cfg, spec_, nullptr);
    const std::size_t props = live.manager().network().propertyCount();
    for (std::size_t i = 0; i < 13; ++i) live.replayApply(synthOp(i, props));

    // export → json → text → json → restore must reproduce the state
    // bit-for-bit (the snapshot text renders every double as %.17g).
    const std::string wire =
        util::json::serialize(dpm::managerStateToJson(live.manager().exportState()));
    Session restored(cfg, spec_, nullptr);
    restored.manager().restoreState(
        dpm::managerStateFromJson(util::json::parse(wire)));
    EXPECT_EQ(restored.snapshot().text, live.snapshot().text)
        << "λ=" << (adpm ? "T" : "F");
    EXPECT_EQ(restored.stage(), 13u);

    // ...and δ continues identically from the restored state.
    for (std::size_t i = 13; i < 21; ++i) {
      live.replayApply(synthOp(i, props));
      restored.replayApply(synthOp(i, props));
    }
    EXPECT_EQ(restored.snapshot().text, live.snapshot().text)
        << "λ=" << (adpm ? "T" : "F") << " after continuation";
  }
}

// -- bounded recovery ---------------------------------------------------------

TEST_F(CheckpointTest, CheckpointedRecoveryReplaysOnlyTheTail) {
  for (const bool adpm : {true, false}) {
    const char* id = adpm ? "tail-t" : "tail-f";
    const Session::Options opts = checkpointedOptions();
    const std::string liveText = runJournaled(id, adpm, 30, opts);

    // Compaction ran at the stage-24 checkpoint: segments 0 and 1 are gone,
    // so recovery *cannot* be replaying from stage 0.
    EXPECT_FALSE(fs::exists(segmentPath(basePath(id), 0)));
    EXPECT_FALSE(fs::exists(segmentPath(basePath(id), 1)));

    SalvageOutcome out;
    std::unique_ptr<Session> recovered =
        recoverSession(basePath(id), opts, RecoveryPolicy::Strict, &out);
    EXPECT_TRUE(out.checkpointUsed);
    EXPECT_EQ(out.checkpointSeq, 3u);
    EXPECT_EQ(out.checkpointStage, 24u);
    EXPECT_EQ(out.operationsReplayed, 6u);  // ops 25..30 only
    EXPECT_EQ(out.segmentsReplayed, 1u);
    EXPECT_EQ(out.checkpointFallbacks, 0u);
    EXPECT_FALSE(out.salvaged);
    EXPECT_EQ(recovered->stage(), 30u);
    EXPECT_EQ(recovered->snapshot().text, liveText)
        << "λ=" << (adpm ? "T" : "F");
  }
}

TEST_F(CheckpointTest, CorruptNewestCheckpointFallsBackToRunnerUp) {
  const char* id = "fallback";
  const Session::Options opts = checkpointedOptions();
  const std::string liveText = runJournaled(id, /*adpm=*/true, 30, opts);

  const std::string newest = checkpointPath(basePath(id), 3);
  ASSERT_TRUE(fs::exists(newest));
  flipByte(newest, fs::file_size(newest) / 2);

  SalvageOutcome out;
  std::unique_ptr<Session> recovered =
      recoverSession(basePath(id), opts, RecoveryPolicy::Salvage, &out);
  EXPECT_TRUE(out.checkpointUsed);
  EXPECT_EQ(out.checkpointSeq, 2u);  // the runner-up, not the damaged one
  EXPECT_EQ(out.checkpointStage, 16u);
  EXPECT_EQ(out.checkpointFallbacks, 1u);
  EXPECT_EQ(out.operationsReplayed, 14u);  // ops 17..30
  EXPECT_EQ(out.segmentsReplayed, 2u);
  EXPECT_EQ(recovered->stage(), 30u);
  EXPECT_EQ(recovered->snapshot().text, liveText);
  // Salvage discards the file it could not trust; Strict would have left it.
  EXPECT_FALSE(fs::exists(newest));
}

TEST_F(CheckpointTest, CorruptCheckpointDegradesUnderStrictToo) {
  const char* id = "strict-fb";
  const Session::Options opts = checkpointedOptions();
  const std::string liveText = runJournaled(id, /*adpm=*/true, 30, opts);

  const std::string newest = checkpointPath(basePath(id), 3);
  flipByte(newest, fs::file_size(newest) / 2);

  // Checkpoints are an optimization, never a correctness dependency: even
  // Strict (which refuses any *segment* damage) degrades checkpoint damage.
  SalvageOutcome out;
  std::unique_ptr<Session> recovered =
      recoverSession(basePath(id), opts, RecoveryPolicy::Strict, &out);
  EXPECT_EQ(out.checkpointSeq, 2u);
  EXPECT_EQ(out.checkpointFallbacks, 1u);
  EXPECT_EQ(recovered->snapshot().text, liveText);
  EXPECT_TRUE(fs::exists(newest));  // Strict never mutates the disk
}

TEST_F(CheckpointTest, EveryCheckpointCorruptAfterCompactionLosesSession) {
  const char* id = "lost";
  const Session::Options opts = checkpointedOptions();
  runJournaled(id, /*adpm=*/true, 30, opts);

  // Compaction deleted segments 0 and 1 because checkpoints 2 and 3 cover
  // them; with *both* checkpoints destroyed the surviving segments start at
  // stage 16 and there is genuinely nothing to rebuild from.
  flipByte(checkpointPath(basePath(id), 2), 40);
  flipByte(checkpointPath(basePath(id), 3), 40);
  EXPECT_THROW(recoverSession(basePath(id), opts, RecoveryPolicy::Strict),
               adpm::Error);
  EXPECT_THROW(recoverSession(basePath(id), opts, RecoveryPolicy::Salvage),
               adpm::Error);
}

TEST_F(CheckpointTest, DigestMismatchFallsBackToFullReplay) {
  const char* id = "digest";
  Session::Options opts;
  opts.markEvery = 2;
  opts.segmentOps = 8;
  opts.checkpointEvery = 16;  // exactly one checkpoint over 20 ops
  opts.checkpointKeep = 2;
  const std::string liveText = runJournaled(id, /*adpm=*/true, 20, opts);

  // One checkpoint < checkpointKeep, so compaction must not have deleted
  // any segment: the full-replay fallback is still possible.
  ASSERT_TRUE(fs::exists(segmentPath(basePath(id), 0)));

  // Forge a crc-valid checkpoint whose digest does not match its own state:
  // the only way to catch it is to restore and verify, which recovery does
  // before trusting any checkpoint.
  const std::string ckPath = checkpointPath(basePath(id), 1);
  Checkpoint forged = readCheckpoint(ckPath);
  forged.digest = "0000000000000bad";
  writeCheckpoint(basePath(id), forged, /*sync=*/false);

  SalvageOutcome out;
  std::unique_ptr<Session> recovered =
      recoverSession(basePath(id), opts, RecoveryPolicy::Salvage, &out);
  EXPECT_FALSE(out.checkpointUsed);
  EXPECT_EQ(out.checkpointFallbacks, 1u);
  EXPECT_EQ(out.operationsReplayed, 20u);  // the whole log
  EXPECT_EQ(out.segmentsReplayed, 3u);
  EXPECT_EQ(recovered->stage(), 20u);
  EXPECT_EQ(recovered->snapshot().text, liveText);
  EXPECT_FALSE(fs::exists(ckPath));
}

// -- store-level recovery -----------------------------------------------------

SessionStore::Options storeOptions(const fs::path& dir, bool salvage) {
  SessionStore::Options o;
  o.executor.deterministic = true;
  o.walDir = dir.string();
  o.session.markEvery = 2;
  o.session.segmentOps = 8;
  o.session.checkpointEvery = 8;
  o.session.checkpointKeep = 2;
  if (salvage) o.recovery = RecoveryPolicy::Salvage;
  return o;
}

TEST_F(CheckpointTest, StoreRecoversFromCheckpointAndReportsIt) {
  std::string liveDigest;
  {
    SessionStore store{storeOptions(dir_, false)};
    store.open("s", spec_, /*adpm=*/true);
    for (std::size_t i = 0; i < 30; ++i) {
      store.applyOperation("s", synthOp(i, spec_.properties.size())).get();
    }
    liveDigest = store.snapshot("s").get().digest;
  }
  // Segments 0 and 1 were compacted away: this recovery is checkpoint-based
  // by construction, not by luck.
  EXPECT_FALSE(fs::exists(segmentPath((dir_ / "s.wal").string(), 0)));

  SessionStore store{storeOptions(dir_, false)};
  const std::vector<std::string> ids = store.recover();
  ASSERT_EQ(ids, (std::vector<std::string>{"s"}));
  EXPECT_EQ(store.snapshot("s").get().digest, liveDigest);
  EXPECT_EQ(store.snapshot("s").get().stage, 30u);

  const std::vector<RecoveryEvent> report = store.recoverReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_TRUE(report[0].checkpointUsed);
  EXPECT_EQ(report[0].checkpointSeq, 3u);
  EXPECT_EQ(report[0].checkpointStage, 24u);
  EXPECT_EQ(report[0].operationsReplayed, 6u);
  EXPECT_EQ(report[0].segmentsReplayed, 1u);
  EXPECT_FALSE(report[0].sessionLost);
}

TEST_F(CheckpointTest, StoreReportsCheckpointFallbackEvents) {
  {
    SessionStore store{storeOptions(dir_, false)};
    store.open("s", spec_, true);
    for (std::size_t i = 0; i < 30; ++i) {
      store.applyOperation("s", synthOp(i, spec_.properties.size())).get();
    }
  }
  const std::string newest = checkpointPath((dir_ / "s.wal").string(), 3);
  flipByte(newest, fs::file_size(newest) / 2);

  SessionStore store{storeOptions(dir_, true)};
  store.recover();
  const std::vector<RecoveryEvent> report = store.recoverReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].checkpointFallbacks, 1u);
  EXPECT_TRUE(report[0].checkpointUsed);
  EXPECT_EQ(report[0].checkpointSeq, 2u);
  EXPECT_EQ(store.snapshot("s").get().stage, 30u);
}

TEST_F(CheckpointTest, StoreRecoverTwiceDoesNotDoubleReport) {
  std::string liveDigest;
  {
    SessionStore store{storeOptions(dir_, true)};
    store.open("s", spec_, true);
    for (std::size_t i = 0; i < 30; ++i) {
      store.applyOperation("s", synthOp(i, spec_.properties.size())).get();
    }
    liveDigest = store.snapshot("s").get().digest;
  }
  // Damage the newest checkpoint so the first recover() has something to
  // report; the second recover() must report *nothing* — not the same event
  // again (the regression this test pins down).
  const std::string newest = checkpointPath((dir_ / "s.wal").string(), 3);
  flipByte(newest, fs::file_size(newest) / 2);

  SessionStore store{storeOptions(dir_, true)};
  EXPECT_EQ(store.recover().size(), 1u);
  EXPECT_EQ(store.recoverReport().size(), 1u);

  EXPECT_TRUE(store.recover().empty());  // "s" is live: nothing to do
  EXPECT_TRUE(store.recoverReport().empty());
  EXPECT_TRUE(store.recoverErrors().empty());
  EXPECT_EQ(store.snapshot("s").get().stage, 30u);
  EXPECT_EQ(store.snapshot("s").get().digest, liveDigest);
}

}  // namespace
}  // namespace adpm::service
