// Wire-protocol robustness: the frame codec must round-trip cleanly, the
// incremental parser must tolerate arbitrary byte fragmentation, and every
// malformed input class (truncation, bit flips, hostile length prefixes,
// foreign magic, stale versions, unknown types) must surface as a typed,
// sticky error — never a crash, never an allocation driven by a corrupt
// length.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "query/query_api.h"

namespace ppsm {
namespace {

std::vector<uint8_t> Payload(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

Frame MustNext(FrameParser& parser) {
  auto frame = parser.Next();
  EXPECT_TRUE(frame.ok()) << frame.status();
  EXPECT_TRUE(frame->has_value()) << "expected a complete frame";
  return std::move(**frame);
}

TEST(Wire, FrameRoundTrip) {
  const std::vector<uint8_t> payload = Payload("hello subgraphs");
  const std::vector<uint8_t> bytes = EncodeFrame(FrameType::kQuery, payload);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());

  FrameParser parser;
  parser.Feed(bytes);
  const Frame frame = MustNext(parser);
  EXPECT_EQ(frame.type, FrameType::kQuery);
  EXPECT_EQ(frame.payload, payload);
  auto next = parser.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());
  EXPECT_FALSE(parser.HasPartialFrame());
}

TEST(Wire, ByteAtATimeFeedingReassembles) {
  const std::vector<uint8_t> bytes =
      EncodeFrame(FrameType::kResponse, Payload("fragmented"));
  FrameParser parser;
  for (size_t i = 0; i < bytes.size(); ++i) {
    // Before the last byte arrives the parser reports an incomplete frame,
    // not an error — mid-frame state is a socket-layer concern.
    auto frame = parser.Next();
    ASSERT_TRUE(frame.ok()) << "byte " << i << ": " << frame.status();
    EXPECT_FALSE(frame->has_value()) << "frame completed early at " << i;
    parser.Feed(std::span<const uint8_t>(&bytes[i], 1));
  }
  const Frame frame = MustNext(parser);
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.payload, Payload("fragmented"));
}

TEST(Wire, TwoFramesInOneFeedBothPop) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, {});
  const std::vector<uint8_t> second =
      EncodeFrame(FrameType::kQuery, Payload("q"));
  bytes.insert(bytes.end(), second.begin(), second.end());
  FrameParser parser;
  parser.Feed(bytes);
  EXPECT_EQ(MustNext(parser).type, FrameType::kPing);
  EXPECT_EQ(MustNext(parser).type, FrameType::kQuery);
}

TEST(Wire, TruncatedFrameIsIncompleteNotAnError) {
  const std::vector<uint8_t> bytes =
      EncodeFrame(FrameType::kQuery, Payload("truncate me"));
  FrameParser parser;
  parser.Feed(std::span<const uint8_t>(bytes.data(), bytes.size() - 3));
  auto frame = parser.Next();
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_FALSE(frame->has_value());
  // An EOF here is the mid-frame disconnect signal.
  EXPECT_TRUE(parser.HasPartialFrame());
}

TEST(Wire, BitFlippedPayloadFailsChecksumAndPoisonsStream) {
  std::vector<uint8_t> bytes =
      EncodeFrame(FrameType::kQuery, Payload("checksummed payload"));
  bytes[kFrameHeaderBytes + 4] ^= 0x10;  // One bit, mid-payload.
  FrameParser parser;
  parser.Feed(bytes);
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(frame.status().message().find("checksum"), std::string::npos)
      << frame.status();
  // Sticky: feeding a perfectly good frame afterwards cannot resurrect the
  // stream (resync after corruption is not reliable).
  parser.Feed(EncodeFrame(FrameType::kPing, {}));
  auto again = parser.Next();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
}

TEST(Wire, OversizedLengthPrefixRefusedBeforeAllocation) {
  // Header claiming a payload far beyond the parser cap; only the header
  // is ever sent. The parser must refuse from the prefix alone.
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kQuery, Payload("x"));
  const uint64_t huge = 1ull << 62;
  std::memcpy(bytes.data() + 9, &huge, sizeof(huge));
  FrameParser parser(/*max_payload=*/1 << 20);
  parser.Feed(std::span<const uint8_t>(bytes.data(), kFrameHeaderBytes));
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kResourceExhausted)
      << frame.status();
}

TEST(Wire, VersionMismatchIsTypedFailedPrecondition) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, {});
  const uint32_t future_version = kWireVersion + 7;
  std::memcpy(bytes.data() + 4, &future_version, sizeof(future_version));
  FrameParser parser;
  parser.Feed(bytes);
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kFailedPrecondition)
      << frame.status();
}

TEST(Wire, ForeignMagicRejected) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, {});
  bytes[0] = 'H';  // An HTTP client knocking on the wrong port.
  bytes[1] = 'T';
  FrameParser parser;
  parser.Feed(bytes);
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(frame.status().message().find("magic"), std::string::npos);
}

TEST(Wire, UnknownFrameTypeRejected) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, {});
  bytes[8] = 0xEE;
  FrameParser parser;
  parser.Feed(bytes);
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(Wire, ErrorPayloadCarriesStatusVerbatim) {
  const Status original =
      Status::ResourceExhausted("admission queue full (6 waiting)");
  const Status decoded = DecodeErrorPayload(EncodeErrorPayload(original));
  EXPECT_EQ(decoded.code(), original.code());
  EXPECT_EQ(decoded.message(), original.message());

  // A mangled error payload collapses into a typed Internal, not a crash.
  EXPECT_EQ(DecodeErrorPayload({}).code(), StatusCode::kInternal);
  const std::vector<uint8_t> junk = {0x00};  // kOk is not a legal error.
  EXPECT_EQ(DecodeErrorPayload(junk).code(), StatusCode::kInternal);
}

TEST(Wire, VersionPayloadRoundTripAndTrailingBytesRejected) {
  auto version = DecodeVersionPayload(EncodeVersionPayload(42));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 42u);

  std::vector<uint8_t> padded = EncodeVersionPayload(42);
  padded.push_back(0x01);
  EXPECT_FALSE(DecodeVersionPayload(padded).ok());
}

// The inner payload codec (query/query_api.h) guards its own layout: an
// error QueryResponse round-trips with status and stats intact, which is
// what EncodedErrorResponseBytes sizes on every service error path. Every
// scalar of the binary stats block holds a distinct non-default value; the
// per-unit, per-step and per-shard arrays stay on the server and decode
// empty.
TEST(Wire, ErrorQueryResponseRoundTripsAndSizesConsistently) {
  QueryResponse reply;
  reply.status = Status::DeadlineExceeded("query expired in the admission queue");
  CloudQueryStats& stats = reply.cloud;
  stats.query_id = (1ull << 40) + 77;
  stats.timed_out_phase = "queue";
  stats.queue_wait_ms = 1.0 / 3.0;  // Not a short decimal: bits must survive.
  stats.decomposition_ms = 1.25;
  stats.star_matching_ms = 2.125;
  stats.join_ms = 3.0625;
  stats.total_ms = 7.75;
  stats.aux_build_ms = 0.375;
  stats.aux_bytes = 4096;
  stats.intersect_scalar = 11;
  stats.intersect_galloping = 12;
  stats.intersect_simd = 13;
  stats.num_stars = 3;
  stats.rs_size = 300;
  stats.result_rows = 20;
  stats.peak_join_rows = 5000;
  stats.plan_cache_hit = true;
  stats.overflowed = true;
  stats.stars.resize(3);
  stats.join_steps.resize(3);
  stats.shards.resize(2);

  const std::vector<uint8_t> bytes = SerializeQueryResponse(reply);
  EXPECT_EQ(bytes.size(), EncodedErrorResponseBytes(reply.status, stats));

  auto decoded = DeserializeQueryResponse(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->status.message(), reply.status.message());
  EXPECT_TRUE(decoded->matches.empty());
  const CloudQueryStats& got = decoded->cloud;
  EXPECT_EQ(got.query_id, stats.query_id);
  EXPECT_EQ(got.timed_out_phase, "queue");
  EXPECT_EQ(got.queue_wait_ms, stats.queue_wait_ms);
  EXPECT_EQ(got.decomposition_ms, stats.decomposition_ms);
  EXPECT_EQ(got.star_matching_ms, stats.star_matching_ms);
  EXPECT_EQ(got.join_ms, stats.join_ms);
  EXPECT_EQ(got.total_ms, stats.total_ms);
  EXPECT_EQ(got.aux_build_ms, stats.aux_build_ms);
  EXPECT_EQ(got.aux_bytes, stats.aux_bytes);
  EXPECT_EQ(got.intersect_scalar, stats.intersect_scalar);
  EXPECT_EQ(got.intersect_galloping, stats.intersect_galloping);
  EXPECT_EQ(got.intersect_simd, stats.intersect_simd);
  EXPECT_EQ(got.num_stars, stats.num_stars);
  EXPECT_EQ(got.rs_size, stats.rs_size);
  EXPECT_EQ(got.result_rows, stats.result_rows);
  EXPECT_EQ(got.peak_join_rows, stats.peak_join_rows);
  EXPECT_TRUE(got.plan_cache_hit);
  EXPECT_TRUE(got.overflowed);
  EXPECT_TRUE(got.stars.empty());
  EXPECT_TRUE(got.join_steps.empty());
  EXPECT_TRUE(got.shards.empty());
}

// The stats block's two flags share its last byte, one bit each; a bit the
// codec does not know is refused rather than dropped.
TEST(Wire, StatsFlagsTakeOneBitEachAndRefuseUnknownBits) {
  for (const bool hit : {false, true}) {
    QueryResponse reply;
    reply.cloud.plan_cache_hit = hit;
    reply.cloud.overflowed = !hit;
    auto decoded = DeserializeQueryResponse(SerializeQueryResponse(reply));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->cloud.plan_cache_hit, hit);
    EXPECT_EQ(decoded->cloud.overflowed, !hit);
  }

  std::vector<uint8_t> bytes = SerializeQueryResponse(QueryResponse{});
  bytes.back() |= 0x04;
  auto refused = DeserializeQueryResponse(bytes);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppsm
