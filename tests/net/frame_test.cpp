#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace adpm::net {
namespace {

TEST(Frame, LittleEndianHelpersRoundTrip) {
  std::string out;
  putU32le(out, 0x01020304u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(out[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(out[1]), 0x03);
  EXPECT_EQ(static_cast<unsigned char>(out[2]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(out[3]), 0x01);
  EXPECT_EQ(getU32le(reinterpret_cast<const unsigned char*>(out.data())),
            0x01020304u);
  for (const std::uint32_t v : {0u, 1u, 255u, 256u, 0xffffffffu, 0x80000000u}) {
    std::string bytes;
    putU32le(bytes, v);
    EXPECT_EQ(getU32le(reinterpret_cast<const unsigned char*>(bytes.data())),
              v);
  }
}

TEST(Frame, EncodeLayout) {
  const std::string bytes = encodeFrame(FrameType::Apply, "{}");
  // [u32 len][u8 type][payload]; len = payload + 1 type byte.
  ASSERT_EQ(bytes.size(), 4u + 1u + 2u);
  EXPECT_EQ(getU32le(reinterpret_cast<const unsigned char*>(bytes.data())),
            3u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]),
            static_cast<unsigned char>(FrameType::Apply));
  EXPECT_EQ(bytes.substr(5), "{}");
}

TEST(Frame, EmptyPayloadEncodes) {
  const std::string bytes = encodeFrame(FrameType::Status, "");
  ASSERT_EQ(bytes.size(), 5u);
  EXPECT_EQ(getU32le(reinterpret_cast<const unsigned char*>(bytes.data())),
            1u);
}

TEST(FrameParser, ReassemblesByteByByte) {
  const std::string bytes =
      encodeFrame(FrameType::Result, R"({"req":1,"ok":true})");
  FrameParser parser;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    parser.feed(bytes.data() + i, 1);
    EXPECT_FALSE(parser.next().has_value()) << "frame complete too early";
  }
  parser.feed(bytes.data() + bytes.size() - 1, 1);
  const std::optional<Frame> frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::Result);
  EXPECT_EQ(frame->payload, R"({"req":1,"ok":true})");
  EXPECT_EQ(parser.pendingBytes(), 0u);
  EXPECT_FALSE(parser.next().has_value());
}

TEST(FrameParser, DrainsMultipleFramesFromOneFeed) {
  std::string stream;
  stream += encodeFrame(FrameType::Apply, "a");
  stream += encodeFrame(FrameType::Snapshot, "bb");
  stream += encodeFrame(FrameType::Notification, "ccc");
  FrameParser parser;
  parser.feed(stream.data(), stream.size());
  const std::optional<Frame> f1 = parser.next();
  const std::optional<Frame> f2 = parser.next();
  const std::optional<Frame> f3 = parser.next();
  ASSERT_TRUE(f1 && f2 && f3);
  EXPECT_EQ(f1->type, FrameType::Apply);
  EXPECT_EQ(f1->payload, "a");
  EXPECT_EQ(f2->type, FrameType::Snapshot);
  EXPECT_EQ(f2->payload, "bb");
  EXPECT_EQ(f3->type, FrameType::Notification);
  EXPECT_EQ(f3->payload, "ccc");
  EXPECT_FALSE(parser.next().has_value());
}

TEST(FrameParser, ReportsTornTail) {
  const std::string bytes = encodeFrame(FrameType::Apply, "payload");
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size() - 3);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.pendingBytes(), bytes.size() - 3);
}

TEST(FrameParser, ZeroLengthFrameIsProtocolError) {
  std::string bytes;
  putU32le(bytes, 0);  // a frame must carry at least the type byte
  bytes += "xxxx";
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  EXPECT_THROW(parser.next(), ProtocolError);
}

TEST(FrameParser, OversizedLengthIsProtocolErrorBeforeBuffering) {
  std::string bytes;
  putU32le(bytes, 0xffffffffu);  // 4 GiB claim; must throw, not allocate
  bytes.push_back(static_cast<char>(FrameType::Apply));
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  // The length is validated as soon as the header is complete — before any
  // of the claimed payload is buffered.
  EXPECT_THROW(parser.next(), ProtocolError);
}

TEST(FrameParser, PayloadLimitIsInclusive) {
  // Headers alone: the length word counts the type byte, so kMaxFramePayload
  // + 1 announces the largest legal payload and waits for it, one more is
  // refused.
  std::string largest;
  putU32le(largest, static_cast<std::uint32_t>(kMaxFramePayload + 1));
  largest.push_back(static_cast<char>(FrameType::Apply));
  FrameParser parser;
  parser.feed(largest.data(), largest.size());
  EXPECT_FALSE(parser.next().has_value());

  std::string oversized;
  putU32le(oversized, static_cast<std::uint32_t>(kMaxFramePayload + 2));
  oversized.push_back(static_cast<char>(FrameType::Apply));
  FrameParser strict;
  strict.feed(oversized.data(), oversized.size());
  EXPECT_THROW(strict.next(), ProtocolError);
}

TEST(FrameParser, LargePayloadRoundTrips) {
  const std::string payload(1u << 20, 'x');
  const std::string bytes = encodeFrame(FrameType::Result, payload);
  FrameParser parser;
  // Feed in 64 KiB chunks like the reactor does.
  for (std::size_t off = 0; off < bytes.size(); off += 64 * 1024) {
    parser.feed(bytes.data() + off, std::min<std::size_t>(64 * 1024,
                                                          bytes.size() - off));
  }
  const std::optional<Frame> frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), payload.size());
  EXPECT_EQ(frame->payload, payload);
}

TEST(Frame, TypePredicates) {
  for (const FrameType t : {FrameType::Open, FrameType::Apply,
                            FrameType::Guidance, FrameType::Verify,
                            FrameType::Snapshot, FrameType::Subscribe,
                            FrameType::Status, FrameType::CloseSession}) {
    EXPECT_TRUE(isRequestFrame(t)) << frameTypeName(t);
  }
  for (const FrameType t : {FrameType::Result, FrameType::Error,
                            FrameType::Notification, FrameType::Shutdown}) {
    EXPECT_FALSE(isRequestFrame(t)) << frameTypeName(t);
  }
  EXPECT_STREQ(frameTypeName(FrameType::Apply), "Apply");
  EXPECT_STREQ(frameTypeName(FrameType::Shutdown), "Shutdown");
}

}  // namespace
}  // namespace adpm::net
