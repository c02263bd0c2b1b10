// Length-prefixed binary framing for the TCP wire protocol.
//
// One frame on the wire is
//
//   [u32 len][u8 type][payload bytes]
//
// where `len` is the little-endian byte count of everything after the
// length word (1 type byte + payload), `type` is a FrameType, and the
// payload is one canonical-JSON document (util/json.hpp) — the same
// encoding the WAL journals, so a request's payload and its journal record
// are byte-compatible.  Integers are serialized with explicit little-endian
// helpers (no memcpy-of-struct, no host-endian assumptions), so the format
// is identical across architectures.
//
// Framing errors are *protocol* errors: a zero-length frame, a length above
// kMaxFramePayload, or trailing garbage means the peer is broken or
// malicious, and the connection is closed (after an Error frame when
// possible) rather than resynchronized — there is no reliable way to find
// the next frame boundary in a corrupt byte stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace adpm::net {

/// The peer violated the wire protocol (malformed frame, bad handshake,
/// unparseable payload).  Never retried: the connection is closed.
class ProtocolError : public adpm::Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

/// The transport failed mid-conversation (peer closed, socket error,
/// injected net.* fault).  Whether an in-flight command executed is unknown;
/// clients resynchronize from a session snapshot after reconnecting.
class ConnectionError : public adpm::Error {
 public:
  explicit ConnectionError(const std::string& what) : Error(what) {}
};

enum class FrameType : std::uint8_t {
  // -- requests (client → server) --------------------------------------------
  Open = 1,       ///< create a session from a scenario name or DDDL text
  Apply = 2,      ///< apply one design operation θ
  Guidance = 3,   ///< query mined guidance presence/summary (λ=T)
  Verify = 4,     ///< batch-verify all runnable constraints
  Snapshot = 5,   ///< canonical snapshot (digest, optionally full text)
  Subscribe = 6,  ///< stream this (session, designer)'s notifications
  Status = 7,     ///< server/bus/store counters
  CloseSession = 8,

  // -- responses & pushes (server → client) ----------------------------------
  Result = 16,        ///< successful response, correlated by "req"
  Error = 17,         ///< failed response; payload carries the error taxonomy
  Notification = 18,  ///< server push: one bus notification (or ResyncRequired)
  Shutdown = 19,      ///< server push: draining; no further requests accepted
};

const char* frameTypeName(FrameType t) noexcept;
bool isRequestFrame(FrameType t) noexcept;

/// Hard cap on one frame's payload; anything larger is a protocol error
/// (a length word of garbage must not make the reader allocate 4 GiB).
inline constexpr std::size_t kMaxFramePayload = 16u << 20;

// -- explicit little-endian integer helpers ----------------------------------

inline void putU32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

inline std::uint32_t getU32le(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

struct Frame {
  FrameType type{};
  std::string payload;
};

/// Serializes one frame, length prefix included.
std::string encodeFrame(FrameType type, std::string_view payload);

/// Incremental frame extractor over an arbitrary byte stream.  feed() bytes
/// as they arrive, then drain complete frames with next(); a frame split
/// across any number of reads reassembles transparently.  Throws
/// ProtocolError on a structurally invalid length word — the caller must
/// drop the connection, the stream cannot be resynchronized.
class FrameParser {
 public:
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// One complete frame, or nullopt while the buffer holds only a partial
  /// frame.
  std::optional<Frame> next();

  /// Bytes buffered but not yet returned as frames (a torn tail when the
  /// connection closes).
  std::size_t pendingBytes() const noexcept { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
};

}  // namespace adpm::net
