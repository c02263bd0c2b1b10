#include "service/wal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace adpm::service {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("adpm_wal_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  static SessionConfig config() {
    SessionConfig c;
    c.id = "s1";
    c.adpm = true;
    c.scenarioName = "demo";
    c.scenarioDddl = "object sys {}\n";
    return c;
  }

  static dpm::Operation op(const char* designer, double v) {
    dpm::Operation o;
    o.kind = dpm::OperatorKind::Synthesis;
    o.problem = dpm::ProblemId{0};
    o.designer = designer;
    o.assignments.emplace_back(constraint::PropertyId{0}, v);
    return o;
  }

  /// `json` as a log line carrying a valid crc, the way the writer seals a
  /// record.
  static std::string sealed(const char* json) {
    const std::string base = util::json::serialize(util::json::parse(json));
    return base.substr(0, base.size() - 1) + ",\"crc\":\"" +
           util::fnv1a64Hex(base) + "\"}\n";
  }

  /// What OperationLog::read throws for `p` under Strict ("" if nothing).
  static std::string readError(const std::string& p) {
    try {
      OperationLog::read(p);
    } catch (const adpm::Error& e) {
      return e.what();
    }
    return {};
  }

  fs::path dir_;
};

TEST_F(WalTest, RoundTripsHeaderOperationsAndMarks) {
  const std::string p = path("round.wal");
  {
    OperationLog log(p);
    log.appendOpen(config());
    log.appendOperation(op("ana", 1.5));
    log.appendOperation(op("ben", 2.5));
    log.appendMark(2, "00000000deadbeef");
    EXPECT_EQ(log.recordsWritten(), 4u);
  }
  const OperationLog::Replay replay = OperationLog::read(p);
  EXPECT_EQ(replay.config.id, "s1");
  EXPECT_TRUE(replay.config.adpm);
  EXPECT_EQ(replay.config.scenarioName, "demo");
  EXPECT_EQ(replay.config.scenarioDddl, "object sys {}\n");
  ASSERT_EQ(replay.operations.size(), 2u);
  EXPECT_EQ(replay.operations[0].designer, "ana");
  EXPECT_EQ(replay.operations[0].assignments[0].second, 1.5);
  EXPECT_EQ(replay.operations[1].designer, "ben");
  ASSERT_EQ(replay.marks.size(), 1u);
  EXPECT_EQ(replay.marks[0].stage, 2u);
  EXPECT_EQ(replay.marks[0].digest, "00000000deadbeef");
}

TEST_F(WalTest, AppendAfterReopenContinuesTheLog) {
  const std::string p = path("reopen.wal");
  {
    OperationLog log(p);
    log.appendOpen(config());
    log.appendOperation(op("ana", 1.0));
  }
  {
    OperationLog log(p);  // recovered session: append, no new header
    log.appendOperation(op("ben", 2.0));
  }
  const OperationLog::Replay replay = OperationLog::read(p);
  ASSERT_EQ(replay.operations.size(), 2u);
  EXPECT_EQ(replay.operations[1].designer, "ben");
}

TEST_F(WalTest, SyncModeAppendsAndRoundTrips) {
  // sync=true adds an fsync per record; the on-disk format is identical.
  const std::string p = path("sync.wal");
  {
    OperationLog log(p, /*sync=*/true);
    log.appendOpen(config());
    log.appendOperation(op("ana", 1.0));
    EXPECT_EQ(log.recordsWritten(), 2u);
  }
  const OperationLog::Replay replay = OperationLog::read(p);
  ASSERT_EQ(replay.operations.size(), 1u);
  EXPECT_EQ(replay.operations[0].designer, "ana");
}

TEST_F(WalTest, ReadRejectsMissingHeader) {
  const std::string p = path("noheader.wal");
  {
    std::ofstream out(p);
    out << sealed(
        R"({"t":"op","op":{"kind":"Synthesis","problem":0,"designer":"x"}})");
  }
  EXPECT_NE(readError(p).find("records before the header"), std::string::npos)
      << readError(p);
}

TEST_F(WalTest, ReadRejectsUnknownVersion) {
  const std::string p = path("badversion.wal");
  {
    std::ofstream out(p);
    out << sealed(
        R"({"t":"open","v":99,"session":"s","adpm":true,"scenario":"d","dddl":""})");
  }
  EXPECT_NE(readError(p).find("unsupported version 99"), std::string::npos)
      << readError(p);
}

TEST_F(WalTest, ReadRejectsUnknownRecordType) {
  const std::string p = path("badtype.wal");
  {
    OperationLog log(p);
    log.appendOpen(config());
  }
  {
    std::ofstream out(p, std::ios::app);
    out << sealed(R"({"t":"mystery"})");
  }
  EXPECT_NE(readError(p).find("unknown record type 'mystery'"),
            std::string::npos)
      << readError(p);
}

TEST_F(WalTest, ReadRejectsMalformedJsonLine) {
  const std::string p = path("badjson.wal");
  {
    OperationLog log(p);
    log.appendOpen(config());
  }
  {
    std::ofstream out(p, std::ios::app);
    out << "{not json\n";
  }
  EXPECT_THROW(OperationLog::read(p), adpm::Error);
}

TEST_F(WalTest, ReadRejectsMissingFile) {
  EXPECT_THROW(OperationLog::read(path("absent.wal")), adpm::Error);
}

TEST_F(WalTest, EveryRecordCarriesAVerifiableChecksum) {
  const std::string p = path("crc.wal");
  {
    OperationLog log(p);
    log.appendOpen(config());
    log.appendOperation(op("ana", 1.5));
    log.appendMark(1, "00000000deadbeef");
  }
  std::ifstream in(p);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"crc\":\""), std::string::npos)
        << "record " << lines << " lacks a crc";
  }
  EXPECT_EQ(lines, 3u);
  // And they verify: a clean read succeeds with full offsets bookkeeping.
  const OperationLog::Replay replay = OperationLog::read(p);
  EXPECT_FALSE(replay.truncatedTail);
  EXPECT_EQ(replay.goodEndOffset, fs::file_size(p));
  ASSERT_EQ(replay.opEndOffsets.size(), 1u);
  EXPECT_GT(replay.headerEndOffset, 0u);
  EXPECT_GT(replay.opEndOffsets[0], replay.headerEndOffset);
}

TEST_F(WalTest, BitFlipIsDetectedStrictThrowsSalvageTrims) {
  const std::string p = path("bitflip.wal");
  {
    OperationLog log(p);
    log.appendOpen(config());
    log.appendOperation(op("ana", 1.5));
    log.appendOperation(op("ben", 2.5));
  }
  // Flip one payload byte inside the *second* op record ("ben" -> "behn"
  // style corruption without breaking the JSON structure): find it and
  // damage a digit of its assignment value.
  std::string content;
  {
    std::ifstream in(p, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t at = content.find("2.5");
  ASSERT_NE(at, std::string::npos);
  content[at] = '9';  // still valid JSON; crc must catch it
  {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << content;
  }
  EXPECT_THROW(OperationLog::read(p, RecoveryPolicy::Strict), adpm::Error);

  const OperationLog::Replay replay =
      OperationLog::read(p, RecoveryPolicy::Salvage);
  EXPECT_TRUE(replay.truncatedTail);
  ASSERT_EQ(replay.operations.size(), 1u);  // "ana" survives, "ben" dropped
  EXPECT_EQ(replay.operations[0].designer, "ana");
  EXPECT_NE(replay.tailError.find("checksum mismatch"), std::string::npos);
  EXPECT_EQ(replay.goodEndOffset + replay.droppedBytes, content.size());
}

TEST_F(WalTest, FlipThatParsesToTheSameValueIsStillDetected) {
  // 0.1 is written as 0.10000000000000001; ...000 parses to the same double,
  // so only a crc over the bytes as written can see the flip.
  const std::string p = path("sameval.wal");
  {
    OperationLog log(p);
    log.appendOpen(config());
    log.appendOperation(op("ana", 0.1));
  }
  std::string content;
  {
    std::ifstream in(p, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t at = content.find("0.10000000000000001");
  ASSERT_NE(at, std::string::npos);
  content[at + 18] = '0';
  {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << content;
  }
  EXPECT_NE(readError(p).find("checksum mismatch"), std::string::npos)
      << readError(p);
}

TEST_F(WalTest, TornTailWithoutNewlineStrictThrowsSalvageTrims) {
  const std::string p = path("torn.wal");
  {
    OperationLog log(p);
    log.appendOpen(config());
    log.appendOperation(op("ana", 1.0));
  }
  const std::size_t intact = fs::file_size(p);
  {
    // A record the writer never finished: half a line, no newline.
    std::ofstream out(p, std::ios::app | std::ios::binary);
    out << R"({"t":"op","op":{"kind":"Syn)";
  }
  EXPECT_THROW(OperationLog::read(p, RecoveryPolicy::Strict), adpm::Error);

  const OperationLog::Replay replay =
      OperationLog::read(p, RecoveryPolicy::Salvage);
  EXPECT_TRUE(replay.truncatedTail);
  EXPECT_EQ(replay.goodEndOffset, intact);
  EXPECT_EQ(replay.droppedBytes, fs::file_size(p) - intact);
  EXPECT_NE(replay.tailError.find("torn"), std::string::npos);
  ASSERT_EQ(replay.operations.size(), 1u);
}

TEST_F(WalTest, SalvageNeverRepairsHeaderDamage) {
  const std::string p = path("torn_header.wal");
  {
    // Half a header and nothing else: no trustworthy (id, scenario).
    std::ofstream out(p, std::ios::binary);
    out << R"({"t":"open","v":1,"session")";
  }
  EXPECT_THROW(OperationLog::read(p, RecoveryPolicy::Salvage), adpm::Error);
}

TEST_F(WalTest, CrcLessRecordsAreRejected) {
  const std::string p = path("nocrc.wal");
  {
    OperationLog log(p);
    log.appendOpen(config());
    log.appendOperation(op("ana", 1.0));
  }
  const std::size_t intact = fs::file_size(p);
  {
    std::ofstream out(p, std::ios::app);
    out << R"({"t":"mark","stage":1,"digest":"00000000deadbeef"})" << "\n";
  }
  EXPECT_NE(readError(p).find("no crc"), std::string::npos) << readError(p);

  const OperationLog::Replay replay =
      OperationLog::read(p, RecoveryPolicy::Salvage);
  EXPECT_TRUE(replay.truncatedTail);
  EXPECT_EQ(replay.goodEndOffset, intact);
  EXPECT_TRUE(replay.marks.empty());
  ASSERT_EQ(replay.operations.size(), 1u);
  EXPECT_NE(replay.tailError.find("no crc"), std::string::npos);

  // A crc-less header leaves nothing to salvage.
  const std::string header = path("nocrc_header.wal");
  {
    std::ofstream out(header);
    out << R"({"t":"open","v":1,"session":"s1","adpm":true,"scenario":"d","dddl":""})"
        << "\n";
  }
  EXPECT_THROW(OperationLog::read(header, RecoveryPolicy::Salvage),
               adpm::Error);
}

TEST_F(WalTest, TailOffsetTracksDurableBytes) {
  const std::string p = path("tail.wal");
  OperationLog log(p);
  EXPECT_EQ(log.tailOffset(), 0u);
  log.appendOpen(config());
  EXPECT_EQ(log.tailOffset(), fs::file_size(p));
  log.appendOperation(op("ana", 1.0));
  EXPECT_EQ(log.tailOffset(), fs::file_size(p));
}

// -- segments + checkpoints ---------------------------------------------------

TEST_F(WalTest, SegmentAndCheckpointFilenamesRoundTrip) {
  EXPECT_EQ(segmentPath("/w/s1.wal", 0), "/w/s1.wal");
  EXPECT_EQ(segmentPath("/w/s1.wal", 3), "/w/s1.wal.3");
  EXPECT_EQ(checkpointPath("/w/s1.wal", 2), "/w/s1.ckpt.2");

  // Ids may contain dots: the suffix match is anchored at the end.
  const auto seg0 = parseWalFileName("a.b.wal");
  ASSERT_TRUE(seg0.has_value());
  EXPECT_EQ(seg0->sessionId, "a.b");
  EXPECT_FALSE(seg0->isCheckpoint);
  EXPECT_EQ(seg0->seq, 0u);

  const auto segN = parseWalFileName("a.b.wal.7");
  ASSERT_TRUE(segN.has_value());
  EXPECT_EQ(segN->sessionId, "a.b");
  EXPECT_FALSE(segN->isCheckpoint);
  EXPECT_EQ(segN->seq, 7u);

  const auto ck = parseWalFileName("a.b.ckpt.2");
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->sessionId, "a.b");
  EXPECT_TRUE(ck->isCheckpoint);
  EXPECT_EQ(ck->seq, 2u);

  EXPECT_FALSE(parseWalFileName("a.b.wal.3.tmp").has_value());  // staging
  EXPECT_FALSE(parseWalFileName("a.b.wal.0").has_value());  // seq 0 = ".wal"
  EXPECT_FALSE(parseWalFileName("a.b.wal.x3").has_value());
  EXPECT_FALSE(parseWalFileName("notes.txt").has_value());
  EXPECT_FALSE(parseWalFileName(".wal").has_value());  // empty id
}

TEST_F(WalTest, SegmentedLogRotatesByOpCountWithChainedHeaders) {
  const std::string base = path("rot.wal");
  SegmentedLog::Options o;
  o.segmentOps = 2;
  SegmentedLog log(base, config(), o);
  for (int i = 0; i < 5; ++i) log.appendOperation(op("ana", 1.0 + i));
  EXPECT_EQ(log.stage(), 5u);
  EXPECT_EQ(log.segmentSeq(), 2u);
  EXPECT_EQ(log.rotations(), 2u);

  const SessionFiles files = listSessionFiles(base);
  ASSERT_EQ(files.segments.size(), 3u);
  EXPECT_TRUE(files.checkpoints.empty());

  // Each header places its file in the chain (seq + start stage), and the
  // seq-0 header stays byte-identical to the pre-segmentation format (no
  // "seq"/"stage" members when both are zero).
  const OperationLog::Replay r0 = OperationLog::read(segmentPath(base, 0));
  EXPECT_EQ(r0.segmentSeq, 0u);
  EXPECT_EQ(r0.segmentStartStage, 0u);
  EXPECT_EQ(r0.operations.size(), 2u);
  const OperationLog::Replay r2 = OperationLog::read(segmentPath(base, 2));
  EXPECT_EQ(r2.segmentSeq, 2u);
  EXPECT_EQ(r2.segmentStartStage, 4u);
  EXPECT_EQ(r2.operations.size(), 1u);

  std::ifstream in(segmentPath(base, 0));
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.find("\"seq\""), std::string::npos);
  EXPECT_EQ(header.find("\"stage\""), std::string::npos);
}

TEST_F(WalTest, CheckpointRoundTripsAndAnyDamageThrows) {
  const std::string base = path("ck.wal");
  { OperationLog log(base); log.appendOpen(config()); }  // anchor the dir
  Checkpoint ck;
  ck.config = config();
  ck.seq = 2;
  ck.stage = 16;
  ck.walSeq = 3;
  ck.state = util::json::parse(R"({"stage":16,"evals":40})");
  ck.digest = "00000000deadbeef";
  writeCheckpoint(base, ck, /*sync=*/false);

  const std::string ckPath = checkpointPath(base, 2);
  const Checkpoint back = readCheckpoint(ckPath);
  EXPECT_EQ(back.config.id, "s1");
  EXPECT_EQ(back.config.scenarioDddl, "object sys {}\n");
  EXPECT_EQ(back.seq, 2u);
  EXPECT_EQ(back.stage, 16u);
  EXPECT_EQ(back.walSeq, 3u);
  EXPECT_EQ(back.digest, "00000000deadbeef");
  EXPECT_EQ(back.state.at("evals").asNumber(), 40.0);

  // The installed file is a single crc-guarded line: any bit flip or torn
  // tail must throw (the caller then degrades to an older checkpoint).
  std::ifstream in(ckPath, std::ios::binary);
  const std::string content{std::istreambuf_iterator<char>(in), {}};
  for (std::size_t at = 0; at < content.size(); at += 7) {
    std::string damaged = content;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x04);
    {
      std::ofstream out(ckPath, std::ios::binary | std::ios::trunc);
      out << damaged;
    }
    EXPECT_THROW(readCheckpoint(ckPath), adpm::Error)
        << "flip at byte " << at;
  }
  {
    std::ofstream out(ckPath, std::ios::binary | std::ios::trunc);
    out << content.substr(0, content.size() / 2);
  }
  EXPECT_THROW(readCheckpoint(ckPath), adpm::Error);
  EXPECT_THROW(readCheckpoint(checkpointPath(base, 9)), adpm::Error);
}

TEST_F(WalTest, WriteCheckpointRotatesAndCompactionKeepsTheFallbackChain) {
  const std::string base = path("cmp.wal");
  SegmentedLog::Options o;
  o.segmentOps = 100;  // rotation driven by checkpoints only
  SegmentedLog log(base, config(), o);
  const util::json::Value state = util::json::parse(R"({"s":1})");

  auto ckptAt = [&](std::size_t stage, std::size_t keep) {
    log.writeCheckpoint(util::json::Value(state), stage, "0000000000000000",
                        keep);
  };

  for (int i = 0; i < 4; ++i) log.appendOperation(op("ana", 1.0 + i));
  ckptAt(4, /*keep=*/2);
  // The checkpoint rotated first, so its walSeq segment starts at stage 4
  // — but with only one checkpoint durable, no segment is deleted yet: a
  // corrupt checkpoint must still degrade to a full replay from seq 0.
  EXPECT_EQ(log.segmentSeq(), 1u);
  EXPECT_EQ(log.checkpointCount(), 1u);
  EXPECT_EQ(log.segmentsCompacted(), 0u);
  EXPECT_TRUE(fs::exists(segmentPath(base, 0)));

  for (int i = 0; i < 4; ++i) log.appendOperation(op("ben", 2.0 + i));
  ckptAt(8, /*keep=*/2);
  // Two checkpoints durable: segments older than the *oldest* retained
  // checkpoint's walSeq (seg 0 < walSeq 1) are superseded and deleted.
  EXPECT_EQ(log.checkpointCount(), 2u);
  EXPECT_EQ(log.segmentsCompacted(), 1u);
  EXPECT_FALSE(fs::exists(segmentPath(base, 0)));
  EXPECT_TRUE(fs::exists(segmentPath(base, 1)));

  for (int i = 0; i < 4; ++i) log.appendOperation(op("cyd", 3.0 + i));
  ckptAt(12, /*keep=*/2);
  // Checkpoint 1 trimmed (keep=2) and segment 1 superseded.
  EXPECT_EQ(log.checkpointCount(), 2u);
  EXPECT_FALSE(fs::exists(checkpointPath(base, 1)));
  EXPECT_TRUE(fs::exists(checkpointPath(base, 2)));
  EXPECT_TRUE(fs::exists(checkpointPath(base, 3)));
  EXPECT_FALSE(fs::exists(segmentPath(base, 1)));
  EXPECT_TRUE(fs::exists(segmentPath(base, 2)));
  EXPECT_EQ(log.stage(), 12u);

  const SessionFiles files = listSessionFiles(base);
  ASSERT_EQ(files.segments.size(), 2u);  // walSeq 2 + current (3)
  ASSERT_EQ(files.checkpoints.size(), 2u);
  EXPECT_EQ(files.checkpoints.front().seq, 2u);
  EXPECT_EQ(files.checkpoints.back().seq, 3u);
}

TEST_F(WalTest, SegmentedLogRotatesByBytes) {
  const std::string base = path("bytes.wal");
  SegmentedLog::Options o;
  o.segmentBytes = 1;  // every append lands in a fresh segment
  SegmentedLog log(base, config(), o);
  log.appendOperation(op("ana", 1.0));
  log.appendOperation(op("ana", 2.0));
  log.appendOperation(op("ana", 3.0));
  // The first op stays in seg 0 (a segment never rotates while empty).
  EXPECT_EQ(log.rotations(), 2u);
  EXPECT_EQ(log.segmentSeq(), 2u);
  EXPECT_EQ(log.stage(), 3u);
}

}  // namespace
}  // namespace adpm::service
