// Crash torture: a recorded WAL is damaged at every record boundary (and at
// sampled mid-record offsets and bit-flip positions), then recovered with
// RecoveryPolicy::Salvage.  The recovered session must be *bit-identical* —
// network hull, violation set, and (λ=T) the full GuidanceReport, all
// embedded in the canonical snapshot text — to a clean replay of the
// surviving operation prefix on a fresh session.  Both flows are swept.
//
// The fork/abort driver at the bottom (fault-injection builds on unix only)
// kills a *real process* at an exact WAL append via an armed Abort failpoint
// and recovers the log it left behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#define ADPM_TORTURE_FORK 1
#else
#define ADPM_TORTURE_FORK 0
#endif

#include "dddl/parser.hpp"
#include "dddl/writer.hpp"
#include "gen/registry.hpp"
#include "service/load.hpp"
#include "service/session.hpp"
#include "service/store.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace adpm::service {
namespace {

namespace fs = std::filesystem;

class CrashTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("adpm_torture_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Records one full session (TeamSim designers as clients, capped so the
  /// sweep stays fast) with a digest mark every 2 operations; returns the
  /// WAL path.
  std::string record(const char* sub, bool adpm) {
    SessionStore::Options o;
    o.executor.deterministic = true;
    o.session.markEvery = 2;
    o.walDir = (dir_ / sub).string();
    SessionStore store{std::move(o)};
    LoadOptions load;
    load.sessions = 1;
    load.sim.adpm = adpm;
    load.sim.seed = 7;
    load.maxOperationsPerSession = 12;
    runLoad(store, gen::scenarioByName("sensing"), load);
    return (dir_ / sub / "load-0.wal").string();
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in), {}};
  }

  static void spit(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  /// Offsets just past each record line (candidate truncation points).
  static std::vector<std::size_t> boundaries(const std::string& content) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < content.size(); ++i) {
      if (content[i] == '\n') out.push_back(i + 1);
    }
    return out;
  }

  /// Ground truth: a fresh session replaying the first `k` logged operations
  /// with no log attached — what any salvaged recovery must match exactly.
  static SessionSnapshot cleanReplay(const OperationLog::Replay& intact,
                                     const dpm::ScenarioSpec& spec,
                                     std::size_t k) {
    Session session(intact.config, spec, nullptr);
    for (std::size_t i = 0; i < k; ++i) {
      session.replayApply(dpm::Operation(intact.operations[i]));
    }
    return session.snapshot();
  }

  /// Salvage-recovers `path` and asserts bit-identical state against the
  /// clean replay of however many operations the salvage kept.
  void expectSalvageMatchesCleanReplay(const std::string& path,
                                       const OperationLog::Replay& intact,
                                       const dpm::ScenarioSpec& spec,
                                       std::size_t expectKept,
                                       SalvageOutcome* outcomeOut = nullptr) {
    SalvageOutcome outcome;
    const auto recovered =
        recoverSession(path, {}, RecoveryPolicy::Salvage, &outcome);
    EXPECT_EQ(outcome.keptStage, expectKept);
    const SessionSnapshot got = recovered->snapshot();
    const SessionSnapshot want = cleanReplay(intact, spec, outcome.keptStage);
    EXPECT_EQ(got.stage, want.stage);
    EXPECT_EQ(got.violations, want.violations);
    EXPECT_EQ(got.text, want.text);  // hull + violations + guidance
    EXPECT_EQ(got.digest, want.digest);
    if (outcomeOut != nullptr) *outcomeOut = outcome;
  }

  /// Operations whose record ends at or before `cut` survive any trim to a
  /// boundary <= cut.
  static std::size_t opsWithin(const OperationLog::Replay& intact,
                               std::size_t cut) {
    std::size_t n = 0;
    for (const std::size_t end : intact.opEndOffsets) n += end <= cut ? 1 : 0;
    return n;
  }

  void sweepEveryRecordBoundary(const std::string& orig) {
    const OperationLog::Replay intact = OperationLog::read(orig);
    const dpm::ScenarioSpec spec = dddl::parse(intact.config.scenarioDddl);
    const std::string content = slurp(orig);
    ASSERT_GT(intact.operations.size(), 4u);  // else the sweep proves little
    ASSERT_GT(intact.marks.size(), 1u);

    const std::string copy = (dir_ / "cut.wal").string();
    std::size_t swept = 0;
    for (const std::size_t b : boundaries(content)) {
      if (b < intact.headerEndOffset) continue;  // header damage: no salvage
      SCOPED_TRACE("truncated at record boundary " + std::to_string(b));
      spit(copy, content.substr(0, b));

      SalvageOutcome outcome;
      expectSalvageMatchesCleanReplay(copy, intact, spec,
                                      opsWithin(intact, b), &outcome);
      // A boundary cut leaves only whole records: nothing to trim or drop.
      EXPECT_FALSE(outcome.salvaged);
      EXPECT_EQ(outcome.droppedBytes, 0u);
      // The reopened log is structurally sound (teardown seal included).
      EXPECT_NO_THROW(OperationLog::read(copy));
      ++swept;
    }
    EXPECT_EQ(swept, boundaries(content).size());
  }

  void sweepMidRecordCuts(const std::string& orig) {
    const OperationLog::Replay intact = OperationLog::read(orig);
    const dpm::ScenarioSpec spec = dddl::parse(intact.config.scenarioDddl);
    const std::string content = slurp(orig);
    std::vector<bool> isBoundary(content.size() + 1, false);
    for (const std::size_t b : boundaries(content)) isBoundary[b] = true;

    const std::string copy = (dir_ / "cut.wal").string();
    std::size_t swept = 0;
    // Deterministic stride over mid-record byte offsets past the header:
    // each cut leaves a genuinely torn tail that salvage must trim.
    for (std::size_t c = intact.headerEndOffset + 1; c < content.size();
         c += 23) {
      if (isBoundary[c]) continue;
      SCOPED_TRACE("truncated mid-record at byte " + std::to_string(c));
      spit(copy, content.substr(0, c));

      EXPECT_THROW(OperationLog::read(copy, RecoveryPolicy::Strict),
                   adpm::Error);
      SalvageOutcome outcome;
      expectSalvageMatchesCleanReplay(copy, intact, spec,
                                      opsWithin(intact, c), &outcome);
      EXPECT_TRUE(outcome.salvaged);
      EXPECT_GT(outcome.droppedBytes, 0u);
      ++swept;
    }
    EXPECT_GT(swept, 10u);
  }

  fs::path dir_;
};

TEST_F(CrashTortureTest, EveryRecordBoundaryTruncationRecoversAdpmFlow) {
  sweepEveryRecordBoundary(record("t", /*adpm=*/true));
}

TEST_F(CrashTortureTest, EveryRecordBoundaryTruncationRecoversConventional) {
  sweepEveryRecordBoundary(record("f", /*adpm=*/false));
}

TEST_F(CrashTortureTest, MidRecordTruncationSalvagesAdpmFlow) {
  sweepMidRecordCuts(record("t", /*adpm=*/true));
}

TEST_F(CrashTortureTest, MidRecordTruncationSalvagesConventional) {
  sweepMidRecordCuts(record("f", /*adpm=*/false));
}

TEST_F(CrashTortureTest, SampledBitFlipsNeverResurrectCorruptState) {
  const std::string orig = record("t", /*adpm=*/true);
  const OperationLog::Replay intact = OperationLog::read(orig);
  const dpm::ScenarioSpec spec = dddl::parse(intact.config.scenarioDddl);
  const std::string content = slurp(orig);

  const std::string copy = (dir_ / "flip.wal").string();
  std::size_t swept = 0;
  for (std::size_t at = intact.headerEndOffset; at < content.size();
       at += 31) {
    SCOPED_TRACE("bit-flipped byte " + std::to_string(at));
    std::string damaged = content;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
    spit(copy, damaged);

    SalvageOutcome outcome;
    const auto recovered =
        recoverSession(copy, {}, RecoveryPolicy::Salvage, &outcome);
    // The invariant: whatever recovery returns is exactly a clean prefix of
    // the intact history, never corrupt state.  Every flip is caught and
    // salvaged away: one inside the `"crc"` key name too (a record without
    // a crc is corrupt), and one in the last digit of a double that parses
    // to the same value (the crc covers the bytes as written).
    EXPECT_TRUE(outcome.salvaged);
    const SessionSnapshot got = recovered->snapshot();
    const SessionSnapshot want = cleanReplay(intact, spec, outcome.keptStage);
    EXPECT_EQ(got.text, want.text);
    EXPECT_EQ(got.digest, want.digest);
    ++swept;
  }
  EXPECT_GT(swept, 10u);
}

TEST_F(CrashTortureTest, HeaderDamageIsUnrecoverableUnderEitherPolicy) {
  const std::string orig = record("t", /*adpm=*/true);
  const OperationLog::Replay intact = OperationLog::read(orig);
  const std::string content = slurp(orig);
  const std::string copy = (dir_ / "head.wal").string();

  // Truncation inside the header record.
  spit(copy, content.substr(0, intact.headerEndOffset / 2));
  EXPECT_THROW(recoverSession(copy, {}, RecoveryPolicy::Salvage), adpm::Error);
  // Bit flip inside the header record.
  std::string damaged = content;
  damaged[intact.headerEndOffset / 2] ^= 0x01;
  spit(copy, damaged);
  EXPECT_THROW(recoverSession(copy, {}, RecoveryPolicy::Salvage), adpm::Error);
}

TEST_F(CrashTortureTest, DamagedLogNeverAbortsSiblingRecovery) {
  SessionStore::Options o;
  o.executor.deterministic = true;
  o.session.markEvery = 2;
  o.walDir = (dir_ / "sib").string();
  {
    SessionStore store{SessionStore::Options(o)};
    LoadOptions load;
    load.sessions = 2;
    load.sim.adpm = true;
    load.sim.seed = 7;
    load.maxOperationsPerSession = 8;
    runLoad(store, gen::scenarioByName("sensing"), load);
  }
  // Tear load-0's tail mid-record; load-1 stays pristine.
  const std::string victim = (dir_ / "sib" / "load-0.wal").string();
  const std::string content = slurp(victim);
  spit(victim, content.substr(0, content.size() - 3));

  {
    // Strict: the damaged log is refused whole, the sibling still recovers.
    SessionStore store{SessionStore::Options(o)};
    EXPECT_EQ(store.recover(), (std::vector<std::string>{"load-1"}));
    const auto report = store.recoverReport();
    ASSERT_EQ(report.size(), 1u);
    EXPECT_TRUE(report[0].sessionLost);
    EXPECT_NE(report[0].path.find("load-0.wal"), std::string::npos);
  }
  fs::remove(dir_ / "sib" / "load-1.wal");  // id now live in no store
  {
    // Salvage: both sessions come back; the trim is reported, not silent.
    SessionStore::Options so{o};
    so.recovery = RecoveryPolicy::Salvage;
    SessionStore store{std::move(so)};
    EXPECT_EQ(store.recover(), (std::vector<std::string>{"load-0"}));
    EXPECT_TRUE(store.recoverErrors().empty());  // nothing lost
    const auto report = store.recoverReport();
    ASSERT_EQ(report.size(), 1u);
    EXPECT_TRUE(report[0].salvaged);
    EXPECT_FALSE(report[0].sessionLost);
    EXPECT_GT(report[0].droppedBytes, 0u);
    EXPECT_GT(store.snapshot("load-0").get().stage, 0u);
  }
}

#if defined(ADPM_FAULT_INJECTION) && ADPM_FAULT_INJECTION && ADPM_TORTURE_FORK
TEST_F(CrashTortureTest, ForkedProcessAbortedMidAppendLeavesRecoverableLog) {
  const fs::path walDir = dir_ / "kill";
  const std::string logPath = (walDir / "load-0.wal").string();

  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: arm an Abort on the 6th WAL append — header, four op records
    // and one periodic mark land; the process dies *inside* the next append
    // (an exact, reproducible death point, unlike timed kills).
    util::FaultPlan plan;
    plan.action = util::FaultAction::Abort;
    plan.everyNth = 6;
    util::FaultRegistry::instance().arm("wal.append", plan);

    SessionStore::Options o;
    o.executor.deterministic = true;
    o.session.markEvery = 2;
    o.walDir = walDir.string();
    SessionStore store{std::move(o)};
    LoadOptions load;
    load.sessions = 1;
    load.sim.adpm = true;
    load.sim.seed = 7;
    runLoad(store, gen::scenarioByName("sensing"), load);
    ::_exit(0);  // unreachable when the failpoint fires
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of aborting";
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  // Appends: open(1), op(2), op(3), mark@2(4), op(5), op(6 → abort before
  // any byte).  Three whole op records are durable.
  SalvageOutcome outcome;
  const auto recovered =
      recoverSession(logPath, {}, RecoveryPolicy::Salvage, &outcome);
  EXPECT_EQ(recovered->stage(), 3u);
  EXPECT_EQ(outcome.droppedOperations, 0u);  // abort-before-write is clean

  // The recovered state equals a clean replay of the surviving prefix.
  const OperationLog::Replay replay = OperationLog::read(logPath);
  const dpm::ScenarioSpec spec = dddl::parse(replay.config.scenarioDddl);
  Session fresh(replay.config, spec, nullptr);
  for (std::size_t i = 0; i < 3; ++i) {
    fresh.replayApply(dpm::Operation(replay.operations[i]));
  }
  EXPECT_EQ(recovered->snapshot().text, fresh.snapshot().text);
}
#else
TEST_F(CrashTortureTest, ForkedProcessAbortedMidAppendLeavesRecoverableLog) {
  GTEST_SKIP() << "needs -DADPM_FAULT_INJECTION=ON and fork()";
}
#endif

// -- multi-segment chains -----------------------------------------------------
//
// The same torture, applied to a rotated + checkpointed chain: cuts at every
// record boundary of every surviving segment, bit flips in segments *and*
// checkpoint files, and fork/abort inside rotation and checkpoint install.
// The oracle is unchanged — whatever recovery keeps must be bit-identical to
// a clean replay of that prefix — plus one new clause: with an intact newest
// checkpoint, recovery never keeps less than the checkpoint's stage.

/// Deterministic synthetic op stream (applySynthesis accepts any in-range
/// property rebind, so this is a legal transcript of arbitrary length).
dpm::Operation chainOp(std::size_t i, std::size_t propertyCount) {
  dpm::Operation op;
  op.kind = dpm::OperatorKind::Synthesis;
  op.problem = dpm::ProblemId{0};
  op.designer = "gen";
  op.assignments.emplace_back(
      constraint::PropertyId{static_cast<std::uint32_t>(i % propertyCount)},
      0.25 + 0.125 * static_cast<double>(i % 7));
  return op;
}

Session::Options chainOptions() {
  Session::Options o;
  o.markEvery = 2;
  o.segmentOps = 4;
  o.checkpointEvery = 8;
  o.checkpointKeep = 2;
  return o;
}

class ChainTortureTest : public CrashTortureTest {
 protected:
  static constexpr std::size_t kOps = 18;
  /// Stage of the newest checkpoint the recording leaves on disk.
  static constexpr std::size_t kCkptStage = 16;

  /// Sets up config/spec/op-stream without touching the disk (the fork
  /// drivers record in a child process instead).
  void prepareChain(bool adpm) {
    spec_ = gen::scenarioByName("sensing");
    config_ = SessionConfig{};
    config_.id = "chain";
    config_.adpm = adpm;
    config_.scenarioName = spec_.name;
    config_.scenarioDddl = dddl::write(spec_);
    ops_.clear();
    for (std::size_t i = 0; i < kOps; ++i) {
      ops_.push_back(chainOp(i, spec_.properties.size()));
    }
  }

  /// Records the 18-op chained session.  With segments of 4 ops, a
  /// checkpoint every 8, and keep=2, the disk afterwards holds segments
  /// 2 (ops 9..12), 3 (13..16), 4 (17..18) — 0 and 1 were compacted away —
  /// plus checkpoints 1 (stage 8) and 2 (stage 16).
  void recordChain(bool adpm) {
    prepareChain(adpm);
    srcDir_ = dir_ / (adpm ? "src-t" : "src-f");
    fs::create_directories(srcDir_);
    SegmentedLog::Options lo;
    lo.segmentOps = 4;
    auto log = std::make_unique<SegmentedLog>((srcDir_ / "chain.wal").string(),
                                              config_, lo);
    Session session(config_, spec_, std::move(log), chainOptions());
    for (const dpm::Operation& op : ops_) session.apply(dpm::Operation(op));
  }

  /// Fresh copy of the recording (Salvage recovery mutates the files).
  std::string scratchChain() {
    const fs::path scratch = dir_ / "scratch";
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    for (const fs::directory_entry& e : fs::directory_iterator(srcDir_)) {
      fs::copy_file(e.path(), scratch / e.path().filename());
    }
    return (scratch / "chain.wal").string();
  }

  SessionSnapshot chainCleanReplay(std::size_t k) const {
    Session session(config_, spec_, nullptr);
    for (std::size_t i = 0; i < k; ++i) {
      session.replayApply(dpm::Operation(ops_[i]));
    }
    return session.snapshot();
  }

  void expectChainSalvage(const std::string& base, std::size_t expectKept,
                          SalvageOutcome* outcomeOut = nullptr) {
    SalvageOutcome outcome;
    const auto recovered =
        recoverSession(base, chainOptions(), RecoveryPolicy::Salvage, &outcome);
    EXPECT_EQ(outcome.keptStage, expectKept);
    const SessionSnapshot got = recovered->snapshot();
    const SessionSnapshot want = chainCleanReplay(outcome.keptStage);
    EXPECT_EQ(got.stage, want.stage);
    EXPECT_EQ(got.text, want.text);
    EXPECT_EQ(got.digest, want.digest);
    if (outcomeOut != nullptr) *outcomeOut = outcome;
  }

  void sweepChainBoundaries(bool adpm) {
    recordChain(adpm);
    const SessionFiles files =
        listSessionFiles((srcDir_ / "chain.wal").string());
    ASSERT_EQ(files.segments.size(), 3u);
    ASSERT_EQ(files.checkpoints.size(), 2u);

    std::size_t swept = 0;
    for (const SegmentRef& ref : files.segments) {
      const OperationLog::Replay replay = OperationLog::read(ref.path);
      const std::string content = slurp(ref.path);
      for (const std::size_t b : boundaries(content)) {
        if (b < replay.headerEndOffset) continue;
        SCOPED_TRACE("segment " + std::to_string(ref.seq) +
                     " cut at record boundary " + std::to_string(b));
        const std::string base = scratchChain();
        spit(segmentPath(base, ref.seq), content.substr(0, b));

        // A cut that keeps every op of the segment (it only loses a
        // trailing mark, or nothing) leaves the chain continuous: all later
        // segments still apply.  A shorter cut breaks the chain there; the
        // newest intact checkpoint still recovers through stage 16, so
        // whichever reaches further wins.
        const std::size_t stageAtCut =
            replay.segmentStartStage + opsWithin(replay, b);
        const std::size_t expect =
            opsWithin(replay, b) == replay.operations.size()
                ? kOps
                : std::max(kCkptStage, stageAtCut);
        expectChainSalvage(base, expect);
        ++swept;
      }
    }
    EXPECT_GT(swept, 12u);
  }

  fs::path srcDir_;
  dpm::ScenarioSpec spec_;
  SessionConfig config_;
  std::vector<dpm::Operation> ops_;
};

TEST_F(ChainTortureTest, BoundaryCutsInEverySegmentRecoverAdpmFlow) {
  sweepChainBoundaries(/*adpm=*/true);
}

TEST_F(ChainTortureTest, BoundaryCutsInEverySegmentRecoverConventional) {
  sweepChainBoundaries(/*adpm=*/false);
}

TEST_F(ChainTortureTest, SegmentBitFlipsNeverLoseCheckpointedPrefix) {
  recordChain(/*adpm=*/true);
  const SessionFiles files = listSessionFiles((srcDir_ / "chain.wal").string());

  std::size_t swept = 0;
  for (const SegmentRef& ref : files.segments) {
    const OperationLog::Replay replay = OperationLog::read(ref.path);
    const std::string content = slurp(ref.path);
    for (std::size_t at = replay.headerEndOffset; at < content.size();
         at += 13) {
      SCOPED_TRACE("segment " + std::to_string(ref.seq) + " flipped byte " +
                   std::to_string(at));
      const std::string base = scratchChain();
      std::string damaged = content;
      damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
      spit(segmentPath(base, ref.seq), damaged);

      SalvageOutcome outcome;
      const auto recovered =
          recoverSession(base, chainOptions(), RecoveryPolicy::Salvage,
                         &outcome);
      // Both checkpoints are intact, so no segment flip can push recovery
      // below the newest checkpoint's stage — and whatever is kept must be
      // a clean prefix, bit for bit.
      EXPECT_GE(outcome.keptStage, kCkptStage);
      const SessionSnapshot got = recovered->snapshot();
      const SessionSnapshot want = chainCleanReplay(outcome.keptStage);
      EXPECT_EQ(got.text, want.text);
      EXPECT_EQ(got.digest, want.digest);
      ++swept;
    }
  }
  EXPECT_GT(swept, 10u);
}

TEST_F(ChainTortureTest, CheckpointBitFlipsDegradeWithoutDataLoss) {
  recordChain(/*adpm=*/true);
  const SessionFiles files = listSessionFiles((srcDir_ / "chain.wal").string());
  ASSERT_EQ(files.checkpoints.size(), 2u);

  std::size_t swept = 0;
  for (const SegmentRef& ref : files.checkpoints) {
    const std::string content = slurp(ref.path);
    // Checkpoint files embed the full manager state, so they are orders of
    // magnitude larger than a WAL record: scale the stride to sweep ~40
    // positions per file instead of thousands.
    const std::size_t stride = std::max<std::size_t>(11, content.size() / 40);
    for (std::size_t at = 0; at < content.size(); at += stride) {
      SCOPED_TRACE("checkpoint " + std::to_string(ref.seq) +
                   " flipped byte " + std::to_string(at));
      const std::string base = scratchChain();
      std::string damaged = content;
      damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
      spit(checkpointPath(base, ref.seq), damaged);

      // The surviving segments cover stages 8..18 and the *other*
      // checkpoint is intact, so every flip — wherever it lands — must
      // recover the full 18-op history: via the undamaged checkpoint plus
      // tail replay, or via the damaged-but-benign record itself.
      expectChainSalvage(base, kOps);
      ++swept;
    }
  }
  EXPECT_GT(swept, 10u);
}

#if defined(ADPM_FAULT_INJECTION) && ADPM_FAULT_INJECTION && ADPM_TORTURE_FORK
/// Child driver for the fork tests: runs the 18-op chained session with one
/// failpoint armed to Abort, dying mid-structure exactly where the plan says.
[[noreturn]] void runChainChildAndDie(const fs::path& walDir,
                                      const char* failpoint, unsigned nth) {
  util::FaultPlan plan;
  plan.action = util::FaultAction::Abort;
  plan.everyNth = nth;
  util::FaultRegistry::instance().arm(failpoint, plan);

  const dpm::ScenarioSpec spec = gen::scenarioByName("sensing");
  SessionConfig cfg;
  cfg.id = "chain";
  cfg.adpm = true;
  cfg.scenarioName = spec.name;
  cfg.scenarioDddl = dddl::write(spec);
  SegmentedLog::Options lo;
  lo.segmentOps = 4;
  auto log = std::make_unique<SegmentedLog>((walDir / "chain.wal").string(),
                                            cfg, lo);
  Session session(cfg, spec, std::move(log), chainOptions());
  for (std::size_t i = 0; i < 18; ++i) {
    session.apply(chainOp(i, spec.properties.size()));
  }
  ::_exit(0);  // unreachable when the failpoint fires
}

TEST_F(ChainTortureTest, ForkedProcessAbortedInsideRotationRecoversCleanly) {
  prepareChain(/*adpm=*/true);
  const fs::path walDir = dir_ / "rot";
  fs::create_directories(walDir);
  const std::string base = (walDir / "chain.wal").string();

  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Rotation #1 happens appending op 5; #2 is the stage-8 checkpoint's
    // rotate-before-write — the child dies there, before the new segment
    // or any checkpoint file exists.
    runChainChildAndDie(walDir, "wal.rotate", /*nth=*/2);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of aborting";
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  // Death inside rotate() leaves the chain ending exactly at a segment
  // boundary: segments 0 and 1 complete, nothing else.
  EXPECT_TRUE(fs::exists(segmentPath(base, 1)));
  EXPECT_FALSE(fs::exists(segmentPath(base, 2)));
  EXPECT_FALSE(fs::exists(checkpointPath(base, 1)));

  SalvageOutcome outcome;
  expectChainSalvage(base, 8, &outcome);
  EXPECT_FALSE(outcome.checkpointUsed);
  EXPECT_EQ(outcome.droppedOperations, 0u);  // abort-before-write is clean
}

TEST_F(ChainTortureTest, ForkedProcessAbortedInstallingCheckpointRecovers) {
  prepareChain(/*adpm=*/true);
  const fs::path walDir = dir_ / "inst";
  fs::create_directories(walDir);
  const std::string base = (walDir / "chain.wal").string();

  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // The stage-8 checkpoint rotates to segment 2, writes + fsyncs the temp
    // file, then dies at the install failpoint: the temp is durable litter,
    // the checkpoint was never installed.
    runChainChildAndDie(walDir, "ckpt.rename", /*nth=*/1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of aborting";
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  // The torn install left a *.tmp recovery must ignore, and no checkpoint.
  EXPECT_TRUE(fs::exists(checkpointPath(base, 1) + ".tmp"));
  EXPECT_FALSE(fs::exists(checkpointPath(base, 1)));
  EXPECT_TRUE(
      listSessionFiles(base).checkpoints.empty());

  SalvageOutcome outcome;
  expectChainSalvage(base, 8, &outcome);
  EXPECT_FALSE(outcome.checkpointUsed);
  EXPECT_EQ(outcome.checkpointFallbacks, 0u);  // *.tmp is not a checkpoint
}
#else
TEST_F(ChainTortureTest, ForkedProcessAbortedInsideRotationRecoversCleanly) {
  GTEST_SKIP() << "needs -DADPM_FAULT_INJECTION=ON and fork()";
}
TEST_F(ChainTortureTest, ForkedProcessAbortedInstallingCheckpointRecovers) {
  GTEST_SKIP() << "needs -DADPM_FAULT_INJECTION=ON and fork()";
}
#endif

}  // namespace
}  // namespace adpm::service
