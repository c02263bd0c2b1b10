// Durable per-session operation log (JSONL write-ahead log).
//
// Every hosted design session appends its applied operations to an
// append-only JSONL file, so that (a) a killed service recovers every live
// session by replaying its log, and (b) any run is deterministically
// reproducible after the fact: the DPM transition function δ is
// deterministic, so state_n is a pure function of (scenario, operation
// prefix).  The log is self-contained — the header embeds the scenario as
// DDDL text (the repo's existing scenario interchange format), not a name
// that might resolve differently tomorrow.
//
// Record grammar, one canonical JSON object per line (util/json.hpp):
//   {"t":"open","v":1,"session":ID,"adpm":BOOL,"scenario":NAME,"dddl":TEXT,
//    "crc":HEX}
//   {"t":"op","op":{...},"crc":HEX}            (dpm/operation_io.hpp form)
//   {"t":"mark","stage":N,"digest":HEX,"crc":HEX}
// `crc` is the fnv1a-64 (16 hex digits) of the record's canonical
// serialization *without* the crc member, spliced in as the last member and
// checked against the bytes as written — a bit-flip anywhere in the line is
// detected at read time.  A record without a crc is as corrupt as one whose
// crc does not match.
// `mark` records carry the fnv1a-64 digest of the session's canonical
// snapshot text at stage N; replay re-derives the digest at each mark and
// fails loudly on divergence instead of silently resurrecting a corrupt
// session.
//
// Failure handling on the append path: when a write/flush fails midway the
// log rolls the file back (ftruncate) to the last durable record and throws
// TransientError — the record either exists completely or not at all, so a
// store-level retry cannot produce a half-record followed by its retry.  If
// the rollback itself fails the log is poisoned (every further append
// throws) rather than risking interleaved garbage.
//
// Reading is policy-driven: RecoveryPolicy::Strict (default) throws on any
// structural problem; RecoveryPolicy::Salvage stops at the first torn or
// corrupt record, keeps the intact prefix, and reports what was dropped —
// the crash-recovery mode (a killed process legitimately leaves a torn
// tail, and refusing the whole log would lose the session entirely).
//
// Bounded recovery (segments + checkpoints): a session's log is a *chain*
// of segment files — seq 0 at `<id>.wal` (byte-compatible with the legacy
// single-file layout), seq N at `<id>.wal.<N>` — each opened by a header
// whose optional "seq"/"stage" members place it in the chain (stage = ops
// applied in earlier segments).  A durable checkpoint `<id>.ckpt.<N>`
// serializes the manager's full mutable state + the snapshot digest,
// installed via write-temp/fsync/rename so it is atomically present or
// absent; recovery loads the newest intact checkpoint and replays only the
// tail segments, and a compactor deletes segments every retained
// checkpoint has superseded.  Checkpoints are an optimization, never a
// correctness dependency: any damage degrades to an older checkpoint or a
// full-segment replay.
#pragma once

#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dpm/operation.hpp"
#include "util/json.hpp"

namespace adpm::service {

/// Identity + flow of one hosted session; everything replay needs.
struct SessionConfig {
  std::string id;
  /// The paper's λ: true = ADPM flow, false = conventional.
  bool adpm = true;
  /// Display name of the scenario (e.g. "sensing-system").
  std::string scenarioName;
  /// Authoritative scenario source: DDDL text parsed at open/recover time.
  std::string scenarioDddl;
};

/// How log damage is handled at read/recover time.
enum class RecoveryPolicy : std::uint8_t {
  /// Any structural problem (torn tail, checksum mismatch, digest
  /// divergence) refuses the log.
  Strict,
  /// Keep the longest trustworthy prefix: a torn/corrupt record drops it
  /// and everything after; a snapshot-digest divergence rolls back to the
  /// last record whose replay matched a mark.  What was dropped is
  /// reported, never silently discarded.
  Salvage,
};

class OperationLog {
 public:
  static constexpr int kVersion = 1;

  /// Opens `path` for appending (creating it if absent).  Throws
  /// adpm::Error when the file cannot be opened.
  ///
  /// Every appended record is flushed to the OS, which survives a *process*
  /// crash; with `sync` set each record is additionally fsync'd, extending
  /// the guarantee to OS crashes and power loss at the cost of one fsync
  /// per record.  `sync` also fsyncs the parent directory when the call
  /// creates the file — a fresh file's *name* lives in the directory inode,
  /// and without the directory fsync a crash can forget the file entirely
  /// even though its records were synced.
  explicit OperationLog(std::string path, bool sync = false);
  ~OperationLog();

  OperationLog(const OperationLog&) = delete;
  OperationLog& operator=(const OperationLog&) = delete;

  const std::string& path() const noexcept { return path_; }

  /// Appends the session header.  Call exactly once, before any operation,
  /// on a fresh log; recovered sessions keep appending to the old file and
  /// must not re-write the header.  `seq` numbers this file in the session's
  /// segment chain and `startStage` is the count of operations living in
  /// earlier segments; both are written only when nonzero, so a seq-0 log is
  /// byte-identical to the pre-segmentation format.
  void appendOpen(const SessionConfig& config, std::size_t seq = 0,
                  std::size_t startStage = 0);
  void appendOperation(const dpm::Operation& op);
  void appendMark(std::size_t stage, const std::string& digest);

  /// Records appended since construction (not counting recovered lines).
  std::size_t recordsWritten() const noexcept { return written_; }

  /// Byte offset of the end of the last durable record (== file size while
  /// the log is healthy).
  std::size_t tailOffset() const noexcept { return tail_; }

  struct Mark {
    std::size_t stage = 0;
    std::string digest;
    /// Byte offset just past this record's line in the file.
    std::size_t endOffset = 0;
  };

  /// Parsed image of a log file.
  struct Replay {
    SessionConfig config;
    std::vector<dpm::Operation> operations;
    /// Marks in file order; mark.stage == number of operations applied when
    /// the digest was taken (global across segments).
    std::vector<Mark> marks;

    /// Position of this file in its session's segment chain (0 for the
    /// legacy single-file layout).
    std::size_t segmentSeq = 0;
    /// Operations applied in earlier segments; this file's operation i has
    /// global index segmentStartStage + i + 1.
    std::size_t segmentStartStage = 0;

    /// Byte offset just past the header record.
    std::size_t headerEndOffset = 0;
    /// Byte offset just past operations[i]'s record.
    std::vector<std::size_t> opEndOffsets;
    /// Byte offset just past the last record that parsed and checksummed
    /// clean (== file size when the log is intact).
    std::size_t goodEndOffset = 0;

    // -- salvage outcome (Salvage policy only) --------------------------------
    /// True when a torn/corrupt tail was dropped during the read.
    bool truncatedTail = false;
    /// Bytes past goodEndOffset that were not trusted.
    std::size_t droppedBytes = 0;
    /// Why the tail was dropped (first structural error encountered).
    std::string tailError;
  };

  /// Reads and validates a log file (header first, kVersion, well-formed
  /// records, per-record checksums).  Strict policy throws adpm::Error on
  /// any structural problem; Salvage stops at the first bad record and
  /// returns the intact prefix with the salvage fields filled in.  A
  /// missing or corrupt *header* is unrecoverable under either policy.
  static Replay read(const std::string& path,
                     RecoveryPolicy policy = RecoveryPolicy::Strict);

 private:
  /// Appends `base` (one canonical JSON object) sealed with its crc.
  void appendRecord(const std::string& base);

  std::string path_;
  bool sync_ = false;
  std::FILE* out_ = nullptr;
  std::size_t written_ = 0;
  std::size_t tail_ = 0;
  /// Set when a failed append could not be rolled back: the file may end in
  /// a torn record, so further appends would interleave garbage.
  bool poisoned_ = false;
};

// -- segment / checkpoint file layout -----------------------------------------

/// Path of segment `seq` for the session whose seq-0 log is `basePath`
/// (`<dir>/<id>.wal`): `basePath` itself for seq 0, `basePath.<seq>` after.
std::string segmentPath(const std::string& basePath, std::size_t seq);

/// Path of checkpoint `seq`: `<dir>/<id>.ckpt.<seq>` next to the basePath.
std::string checkpointPath(const std::string& basePath, std::size_t seq);

/// Classifies a WAL-directory filename.  Session ids may contain dots, so
/// the suffix is matched anchored at the end of the name.
struct WalFileName {
  std::string sessionId;
  bool isCheckpoint = false;
  std::size_t seq = 0;
};
/// Recognizes `<id>.wal`, `<id>.wal.<N>`, and `<id>.ckpt.<N>`; nullopt for
/// anything else (including `*.tmp` staging files).
std::optional<WalFileName> parseWalFileName(const std::string& filename);

struct SegmentRef {
  std::size_t seq = 0;
  std::string path;
};

/// Everything on disk belonging to one session, both ascending by seq.
struct SessionFiles {
  std::vector<SegmentRef> segments;
  std::vector<SegmentRef> checkpoints;
};
/// Scans basePath's directory for the session's segments and checkpoints.
SessionFiles listSessionFiles(const std::string& basePath);

/// One durable state snapshot: everything recovery needs to skip replaying
/// the log prefix the checkpoint covers.  Stored as a single crc-guarded
/// canonical-JSON line, installed atomically (write temp, fsync, rename).
struct Checkpoint {
  static constexpr int kVersion = 1;
  /// Self-contained like the log header: id, λ, scenario DDDL.
  SessionConfig config;
  /// Checkpoint sequence number (monotonic per session).
  std::size_t seq = 0;
  /// Operations applied when the snapshot was taken.
  std::size_t stage = 0;
  /// Segment where tail replay resumes (its startStage == this->stage when
  /// written by SegmentedLog, which rotates before checkpointing).
  std::size_t walSeq = 0;
  /// dpm::managerStateToJson payload.
  util::json::Value state;
  /// fnv1a-64 of the canonical snapshot text at `stage`; recovery verifies
  /// the restored manager against it before trusting the checkpoint.
  std::string digest;
};

/// Writes `ckpt` to checkpointPath(basePath, ckpt.seq) via temp + rename.
/// `sync` fsyncs the temp file before the rename and the parent directory
/// after it (same discipline as OperationLog's create path).  Failpoints:
/// `ckpt.write` (temp write), `ckpt.rename` (install).  Throws
/// TransientError on a cleanly-undone failure; the previous checkpoint is
/// never touched.
void writeCheckpoint(const std::string& basePath, const Checkpoint& ckpt,
                     bool sync);

/// Reads and fully validates one checkpoint file; *any* damage (missing,
/// torn, bit-flipped, bad crc, malformed) throws adpm::Error — the caller
/// falls back to an older checkpoint or full replay, never limps on a
/// partially-trusted snapshot.
Checkpoint readCheckpoint(const std::string& path);

/// A session's append-side log chain: owns the currently-open segment,
/// rotates it when it exceeds the configured size, writes checkpoints, and
/// compacts segments every retained checkpoint has superseded.  Like
/// OperationLog it is pure state — the session's strand serializes access.
class SegmentedLog {
 public:
  struct Options {
    bool sync = false;
    /// Rotate when the current segment reaches this size (0 = never).
    std::size_t segmentBytes = 0;
    /// Rotate when the current segment holds this many operations (0 =
    /// never).  Rotation is checked before each append, so a segment holds
    /// at most `segmentOps` operations.
    std::size_t segmentOps = 0;
  };

  /// Fresh session: creates segment 0 at `basePath` and writes its header.
  SegmentedLog(std::string basePath, SessionConfig config, Options options);

  /// Recovery attach: continue an existing chain without re-writing headers.
  struct AttachSpec {
    /// Segment to keep appending to.
    std::size_t walSeq = 0;
    /// Operations living in segments before walSeq.
    std::size_t opsBefore = 0;
    /// Operations already in the walSeq segment.
    std::size_t opsInSegment = 0;
    /// Open a *new* segment `walSeq` (header written, startStage below)
    /// instead of appending to an existing one — used when the recovered
    /// stage came from a checkpoint ahead of every surviving segment, so op
    /// positions on disk stay aligned with global indices.
    bool startFresh = false;
    std::size_t startStage = 0;
    /// Sequence the next checkpoint gets.
    std::size_t nextCheckpointSeq = 1;
    /// Surviving checkpoints (ascending seq) for compaction accounting.
    std::vector<Checkpoint> checkpoints;
  };
  SegmentedLog(std::string basePath, SessionConfig config, Options options,
               const AttachSpec& attach);

  const std::string& basePath() const noexcept { return basePath_; }
  /// Sequence of the currently-open segment.
  std::size_t segmentSeq() const noexcept { return seq_; }
  /// Operations across the whole chain (== the session's stage).
  std::size_t stage() const noexcept { return startStage_ + opsInSegment_; }
  /// The currently-open segment (for tests and accounting).
  const OperationLog& current() const noexcept { return *current_; }

  /// Appends one operation, rotating to a fresh segment first when the
  /// current one is full.  A failed rotation (failpoint `wal.rotate`, or
  /// the new segment's header append failing) leaves the current segment
  /// untouched and throws TransientError — the append never happened.
  void appendOperation(const dpm::Operation& op);
  void appendMark(std::size_t stage, const std::string& digest);

  /// Writes checkpoint (`state`, `stage`, `digest`), then compacts to the
  /// newest `keep` checkpoints (see compact()).  Rotates first whenever the
  /// current segment holds operations, so the checkpoint's walSeq names a
  /// segment starting exactly at `stage` and tail replay touches no record
  /// the checkpoint already covers.  Throws TransientError when the write
  /// could not install (previous checkpoints and all segments intact).
  void writeCheckpoint(util::json::Value state, std::size_t stage,
                       const std::string& digest, std::size_t keep);

  /// Deletes all but the newest `keep` checkpoints (at least 1 is kept:
  /// keeping a runner-up means a corrupt newest checkpoint still recovers
  /// boundedly) and every segment strictly older than the oldest retained
  /// checkpoint's walSeq — but segments are only deleted once the full
  /// complement of `keep` checkpoints is durable, so until then a corrupt
  /// checkpoint can always degrade to a full replay from segment 0.
  /// Deletion failures degrade silently — a leftover file costs disk,
  /// never correctness.  Failpoint: `wal.compact`.
  void compact(std::size_t keep);

  // -- accounting (monotonic, for benches/CLI reports) ------------------------
  std::size_t rotations() const noexcept { return rotations_; }
  std::size_t checkpointsWritten() const noexcept { return checkpointsWritten_; }
  std::size_t segmentsCompacted() const noexcept { return segmentsCompacted_; }
  std::size_t checkpointCount() const noexcept { return checkpoints_.size(); }

 private:
  void rotate();

  std::string basePath_;
  SessionConfig config_;
  Options options_;
  std::unique_ptr<OperationLog> current_;
  std::size_t seq_ = 0;
  /// Operations in segments before the current one.
  std::size_t startStage_ = 0;
  std::size_t opsInSegment_ = 0;
  std::size_t nextCheckpointSeq_ = 1;
  /// Known durable checkpoints, ascending seq: (seq, walSeq).
  std::vector<std::pair<std::size_t, std::size_t>> checkpoints_;
  std::size_t rotations_ = 0;
  std::size_t checkpointsWritten_ = 0;
  std::size_t segmentsCompacted_ = 0;
};

}  // namespace adpm::service
