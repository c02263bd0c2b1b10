#include "net/frame.hpp"

namespace adpm::net {

const char* frameTypeName(FrameType t) noexcept {
  switch (t) {
    case FrameType::Open:
      return "Open";
    case FrameType::Apply:
      return "Apply";
    case FrameType::Guidance:
      return "Guidance";
    case FrameType::Verify:
      return "Verify";
    case FrameType::Snapshot:
      return "Snapshot";
    case FrameType::Subscribe:
      return "Subscribe";
    case FrameType::Status:
      return "Status";
    case FrameType::CloseSession:
      return "CloseSession";
    case FrameType::Result:
      return "Result";
    case FrameType::Error:
      return "Error";
    case FrameType::Notification:
      return "Notification";
    case FrameType::Shutdown:
      return "Shutdown";
  }
  return "Unknown";
}

bool isRequestFrame(FrameType t) noexcept {
  switch (t) {
    case FrameType::Open:
    case FrameType::Apply:
    case FrameType::Guidance:
    case FrameType::Verify:
    case FrameType::Snapshot:
    case FrameType::Subscribe:
    case FrameType::Status:
    case FrameType::CloseSession:
      return true;
    default:
      return false;
  }
}

std::string encodeFrame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw ProtocolError("frame payload of " + std::to_string(payload.size()) +
                        " bytes exceeds the " +
                        std::to_string(kMaxFramePayload) + "-byte limit");
  }
  std::string out;
  out.reserve(4 + 1 + payload.size());
  putU32le(out, static_cast<std::uint32_t>(payload.size() + 1));
  out.push_back(static_cast<char>(type));
  out.append(payload);
  return out;
}

std::optional<Frame> FrameParser::next() {
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (pos_ > 0 && (pos_ >= buffer_.size() || pos_ > 64 * 1024)) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  const std::size_t avail = buffer_.size() - pos_;
  if (avail < 5) return std::nullopt;
  const auto* base =
      reinterpret_cast<const unsigned char*>(buffer_.data() + pos_);
  const std::uint32_t len = getU32le(base);
  if (len == 0) {
    throw ProtocolError("zero-length frame (a frame always carries its type "
                        "byte)");
  }
  if (static_cast<std::size_t>(len) - 1 > kMaxFramePayload) {
    throw ProtocolError("frame of " + std::to_string(len) +
                        " bytes exceeds the " +
                        std::to_string(kMaxFramePayload) +
                        "-byte payload limit");
  }
  if (avail < 4u + len) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(base[4]);
  frame.payload.assign(buffer_, pos_ + 5, len - 1);
  pos_ += 4u + len;
  return frame;
}

}  // namespace adpm::net
