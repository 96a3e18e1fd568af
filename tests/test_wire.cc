// Wire-format round-trip and robustness suite (`dist` label).
//
// The distributed detect stage stands or falls with its serialization: the
// loopback-equals-local trace contract requires every Detection to survive
// the wire bit for bit, and a coordinator fed by real sockets must reject
// malformed bytes with a clean Status instead of reading wild. The suite
// fuzzes serialize -> parse round-trips over randomized messages (empty
// batches, zero-area boxes, saturated FrameIds) and hammers the parsers with
// every truncation prefix, corrupted headers, version/kind mismatches,
// implausible length prefixes, and random garbage.

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "query/wire.h"

namespace exsample {
namespace query {
namespace {

common::Span<const uint8_t> BytesOf(const std::vector<uint8_t>& bytes) {
  return common::Span<const uint8_t>(bytes.data(), bytes.size());
}

DetectRequestMsg RandomRequest(common::Rng& rng, size_t max_slots) {
  DetectRequestMsg msg;
  msg.wire_seq = rng.NextU64();
  msg.origin_shard = static_cast<uint32_t>(rng.NextBounded(64));
  msg.attempt = static_cast<uint32_t>(rng.NextBounded(8));
  msg.repo_fingerprint = rng.NextU64();
  const size_t slots = static_cast<size_t>(rng.NextBounded(max_slots + 1));
  for (size_t i = 0; i < slots; ++i) {
    WireSlot slot;
    slot.session_id = rng.NextU64();
    // Bias toward edge frames: id 0 and the saturated max both must survive.
    const uint64_t pick = rng.NextBounded(4);
    slot.frame = pick == 0   ? 0
                 : pick == 1 ? ~video::FrameId{0}
                             : rng.NextU64();
    msg.slots.push_back(slot);
  }
  return msg;
}

detect::Detection RandomDetection(common::Rng& rng) {
  detect::Detection det;
  const uint64_t shape = rng.NextBounded(4);
  if (shape == 0) {
    // Zero-area / degenerate boxes are legal detector output.
    det.box = common::Box{rng.NextDouble(), rng.NextDouble(), 0.0, 0.0};
  } else if (shape == 1) {
    det.box = common::Box{-rng.NextDouble(), 2.0 + rng.NextDouble(),
                          rng.NextDouble() * 1e-12, rng.NextDouble() * 1e12};
  } else {
    det.box = common::Box{rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
                          rng.NextDouble()};
  }
  det.class_id = static_cast<int32_t>(rng.UniformInt(-5, 100));
  det.confidence = rng.NextDouble();
  det.source_instance =
      rng.NextBounded(3) == 0 ? scene::kNoInstance : rng.NextU64();
  return det;
}

DetectResponseMsg RandomResponse(common::Rng& rng, size_t max_slots) {
  DetectResponseMsg msg;
  msg.wire_seq = rng.NextU64();
  msg.origin_shard = static_cast<uint32_t>(rng.NextBounded(64));
  msg.attempt = static_cast<uint32_t>(rng.NextBounded(8));
  msg.status = static_cast<WireStatus>(rng.NextBounded(3));
  msg.charged_seconds = rng.NextDouble() * 1e3;
  const size_t slots = static_cast<size_t>(rng.NextBounded(max_slots + 1));
  for (size_t i = 0; i < slots; ++i) {
    detect::Detections dets;
    const size_t count = static_cast<size_t>(rng.NextBounded(4));
    for (size_t j = 0; j < count; ++j) dets.push_back(RandomDetection(rng));
    msg.detections.push_back(std::move(dets));
  }
  return msg;
}

void ExpectSameDetection(const detect::Detection& a, const detect::Detection& b) {
  // Bitwise double comparison — the trace contract is bit-identity, not
  // approximate equality.
  EXPECT_EQ(a.box, b.box);
  EXPECT_EQ(a.class_id, b.class_id);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.source_instance, b.source_instance);
}

// --- Round-trip fuzz --------------------------------------------------------

TEST(WireRequestTest, FuzzRoundTrip) {
  common::Rng rng(11);
  for (int iter = 0; iter < 200; ++iter) {
    const DetectRequestMsg msg = RandomRequest(rng, 40);
    const std::vector<uint8_t> bytes = SerializeDetectRequest(msg);
    auto parsed = ParseDetectRequest(BytesOf(bytes));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value().wire_seq, msg.wire_seq);
    EXPECT_EQ(parsed.value().origin_shard, msg.origin_shard);
    EXPECT_EQ(parsed.value().attempt, msg.attempt);
    EXPECT_EQ(parsed.value().repo_fingerprint, msg.repo_fingerprint);
    ASSERT_EQ(parsed.value().slots.size(), msg.slots.size());
    for (size_t i = 0; i < msg.slots.size(); ++i) {
      EXPECT_EQ(parsed.value().slots[i], msg.slots[i]);
    }
  }
}

TEST(WireResponseTest, FuzzRoundTrip) {
  common::Rng rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    const DetectResponseMsg msg = RandomResponse(rng, 24);
    const std::vector<uint8_t> bytes = SerializeDetectResponse(msg);
    auto parsed = ParseDetectResponse(BytesOf(bytes));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value().wire_seq, msg.wire_seq);
    EXPECT_EQ(parsed.value().origin_shard, msg.origin_shard);
    EXPECT_EQ(parsed.value().attempt, msg.attempt);
    EXPECT_EQ(parsed.value().status, msg.status);
    EXPECT_EQ(parsed.value().charged_seconds, msg.charged_seconds);
    ASSERT_EQ(parsed.value().detections.size(), msg.detections.size());
    for (size_t i = 0; i < msg.detections.size(); ++i) {
      ASSERT_EQ(parsed.value().detections[i].size(), msg.detections[i].size());
      for (size_t j = 0; j < msg.detections[i].size(); ++j) {
        ExpectSameDetection(parsed.value().detections[i][j], msg.detections[i][j]);
      }
    }
  }
}

TEST(WireRequestTest, EmptyBatchRoundTrips) {
  DetectRequestMsg msg;
  msg.wire_seq = 7;
  auto parsed = ParseDetectRequest(BytesOf(SerializeDetectRequest(msg)));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().slots.empty());
}

TEST(WireResponseTest, EmptyAndFailureResponsesRoundTrip) {
  DetectResponseMsg msg;
  msg.wire_seq = 9;
  msg.status = WireStatus::kUnavailable;
  auto parsed = ParseDetectResponse(BytesOf(SerializeDetectResponse(msg)));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, WireStatus::kUnavailable);
  EXPECT_TRUE(parsed.value().detections.empty());
}

TEST(WireRequestTest, SerializationIsDeterministic) {
  common::Rng rng(17);
  const DetectRequestMsg request = RandomRequest(rng, 16);
  EXPECT_EQ(SerializeDetectRequest(request), SerializeDetectRequest(request));
  const DetectResponseMsg response = RandomResponse(rng, 16);
  EXPECT_EQ(SerializeDetectResponse(response), SerializeDetectResponse(response));
}

// --- Truncation and corruption ----------------------------------------------

TEST(WireRequestTest, EveryTruncationFailsCleanly) {
  common::Rng rng(19);
  const std::vector<uint8_t> bytes =
      SerializeDetectRequest(RandomRequest(rng, 12));
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto parsed = ParseDetectRequest(common::Span<const uint8_t>(bytes.data(), len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(parsed.status().code(), common::StatusCode::kInvalidArgument);
  }
}

TEST(WireResponseTest, EveryTruncationFailsCleanly) {
  common::Rng rng(23);
  const std::vector<uint8_t> bytes =
      SerializeDetectResponse(RandomResponse(rng, 8));
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto parsed =
        ParseDetectResponse(common::Span<const uint8_t>(bytes.data(), len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(parsed.status().code(), common::StatusCode::kInvalidArgument);
  }
}

TEST(WireRequestTest, TrailingBytesRejected) {
  common::Rng rng(29);
  std::vector<uint8_t> bytes = SerializeDetectRequest(RandomRequest(rng, 4));
  bytes.push_back(0);
  EXPECT_FALSE(ParseDetectRequest(BytesOf(bytes)).ok());
  std::vector<uint8_t> resp_bytes =
      SerializeDetectResponse(RandomResponse(rng, 4));
  resp_bytes.push_back(0xff);
  EXPECT_FALSE(ParseDetectResponse(BytesOf(resp_bytes)).ok());
}

TEST(WireRequestTest, HeaderCorruptionRejected) {
  common::Rng rng(31);
  const std::vector<uint8_t> good = SerializeDetectRequest(RandomRequest(rng, 4));

  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0x01;
  EXPECT_FALSE(ParseDetectRequest(BytesOf(bad_magic)).ok());

  std::vector<uint8_t> bad_version = good;
  bad_version[4] = static_cast<uint8_t>(kWireVersion + 1);  // Little-endian lo byte.
  auto version_result = ParseDetectRequest(BytesOf(bad_version));
  EXPECT_FALSE(version_result.ok());
  EXPECT_NE(version_result.status().message().find("version"), std::string::npos);

  std::vector<uint8_t> bad_flags = good;
  bad_flags[7] = 0x40;  // Reserved request flags must be zero.
  EXPECT_FALSE(ParseDetectRequest(BytesOf(bad_flags)).ok());
}

TEST(WireRequestTest, KindMismatchRejected) {
  common::Rng rng(37);
  const std::vector<uint8_t> request = SerializeDetectRequest(RandomRequest(rng, 4));
  const std::vector<uint8_t> response =
      SerializeDetectResponse(RandomResponse(rng, 4));
  EXPECT_FALSE(ParseDetectResponse(BytesOf(request)).ok());
  EXPECT_FALSE(ParseDetectRequest(BytesOf(response)).ok());
}

TEST(WireResponseTest, UnknownStatusByteRejected) {
  DetectResponseMsg msg;
  std::vector<uint8_t> bytes = SerializeDetectResponse(msg);
  bytes[7] = 17;  // Header status byte past the last known WireStatus.
  EXPECT_FALSE(ParseDetectResponse(BytesOf(bytes)).ok());
}

TEST(WireRequestTest, ImplausibleLengthPrefixRejectedWithoutAllocation) {
  // A hostile length prefix must be rejected against the remaining bytes
  // *before* any resize — a 2^60 count in a tiny buffer would otherwise be
  // an allocation bomb.
  DetectRequestMsg msg;
  std::vector<uint8_t> bytes = SerializeDetectRequest(msg);
  const uint64_t huge = uint64_t{1} << 60;
  std::memcpy(bytes.data() + bytes.size() - 8, &huge, 8);
  auto parsed = ParseDetectRequest(BytesOf(bytes));
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("length prefix"), std::string::npos);

  DetectResponseMsg resp;
  resp.detections.emplace_back();
  std::vector<uint8_t> resp_bytes = SerializeDetectResponse(resp);
  std::memcpy(resp_bytes.data() + resp_bytes.size() - 8, &huge, 8);
  EXPECT_FALSE(ParseDetectResponse(BytesOf(resp_bytes)).ok());
}

TEST(WireRequestTest, RandomGarbageNeverCrashes) {
  common::Rng rng(41);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> junk(static_cast<size_t>(rng.NextBounded(128)));
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.NextBounded(256));
    // Parsing arbitrary bytes must return, OK or not, without UB — the
    // sanitizer configs of the dist CI lane are the real assertion here.
    (void)ParseDetectRequest(BytesOf(junk));
    (void)ParseDetectResponse(BytesOf(junk));
    (void)ParseRegisterSession(BytesOf(junk));
    (void)ParseSessionAck(BytesOf(junk));
    (void)ParseUnregisterSession(BytesOf(junk));
    (void)PeekWireKind(BytesOf(junk));
  }
}

// --- Control plane ----------------------------------------------------------

detect::DetectorOptions RandomDetectorOptions(common::Rng& rng) {
  detect::DetectorOptions options;
  options.target_class = static_cast<int32_t>(rng.UniformInt(-1, 40));
  options.miss_prob = rng.NextDouble();
  options.edge_ramp_fraction = rng.NextDouble();
  options.edge_min_factor = rng.NextDouble();
  options.localization_sigma = rng.NextDouble() * 0.1;
  options.false_positive_rate = rng.NextDouble() * 0.01;
  options.seconds_per_frame = rng.NextDouble();
  options.seed = rng.NextU64();
  return options;
}

TEST(WireControlTest, RegisterSessionFuzzRoundTrip) {
  common::Rng rng(43);
  for (int iter = 0; iter < 200; ++iter) {
    RegisterSessionMsg msg;
    msg.session_id = rng.NextU64();
    msg.repo_fingerprint = rng.NextU64();
    msg.detector_options = RandomDetectorOptions(rng);
    auto parsed = ParseRegisterSession(BytesOf(SerializeRegisterSession(msg)));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value().session_id, msg.session_id);
    EXPECT_EQ(parsed.value().repo_fingerprint, msg.repo_fingerprint);
    // The options hash folds in every field bit-for-bit — the exact identity
    // the remote detector materialization depends on.
    EXPECT_EQ(detect::DetectorOptionsHash(parsed.value().detector_options),
              detect::DetectorOptionsHash(msg.detector_options));
  }
}

TEST(WireControlTest, SessionAckRoundTripsEveryStatus) {
  for (const WireStatus status :
       {WireStatus::kOk, WireStatus::kUnavailable, WireStatus::kRepoMismatch}) {
    SessionAckMsg ack;
    ack.session_id = 0x1234567890abcdefull;
    ack.status = status;
    auto parsed = ParseSessionAck(BytesOf(SerializeSessionAck(ack)));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().session_id, ack.session_id);
    EXPECT_EQ(parsed.value().status, status);
  }
}

TEST(WireControlTest, SessionAckUnknownStatusRejected) {
  std::vector<uint8_t> bytes = SerializeSessionAck(SessionAckMsg{});
  bytes[7] = 9;  // Flags byte carries the status; 9 is past kRepoMismatch.
  EXPECT_FALSE(ParseSessionAck(BytesOf(bytes)).ok());
}

TEST(WireControlTest, UnregisterRoundTrips) {
  UnregisterSessionMsg unreg;
  unreg.session_id = 77;
  auto parsed_unreg =
      ParseUnregisterSession(BytesOf(SerializeUnregisterSession(unreg)));
  ASSERT_TRUE(parsed_unreg.ok());
  EXPECT_EQ(parsed_unreg.value().session_id, 77u);
}

TEST(WireControlTest, ControlTruncationsFailCleanly) {
  common::Rng rng(47);
  RegisterSessionMsg msg;
  msg.session_id = rng.NextU64();
  msg.repo_fingerprint = rng.NextU64();
  msg.detector_options = RandomDetectorOptions(rng);
  const std::vector<uint8_t> bytes = SerializeRegisterSession(msg);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto parsed =
        ParseRegisterSession(common::Span<const uint8_t>(bytes.data(), len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(parsed.status().code(), common::StatusCode::kInvalidArgument);
  }
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(ParseRegisterSession(BytesOf(trailing)).ok());
}

TEST(WireControlTest, PeekDispatchesEveryKind) {
  common::Rng rng(53);
  const auto expect_kind = [](const std::vector<uint8_t>& bytes, WireKind want) {
    auto kind = PeekWireKind(
        common::Span<const uint8_t>(bytes.data(), bytes.size()));
    ASSERT_TRUE(kind.ok()) << kind.status().ToString();
    EXPECT_EQ(kind.value(), want);
  };
  expect_kind(SerializeDetectRequest(RandomRequest(rng, 4)),
              WireKind::kDetectRequest);
  expect_kind(SerializeDetectResponse(RandomResponse(rng, 4)),
              WireKind::kDetectResponse);
  expect_kind(SerializeRegisterSession(RegisterSessionMsg{}),
              WireKind::kRegisterSession);
  expect_kind(SerializeSessionAck(SessionAckMsg{}), WireKind::kSessionAck);
  expect_kind(SerializeUnregisterSession(UnregisterSessionMsg{}),
              WireKind::kUnregisterSession);
}

TEST(WireControlTest, PeekRejectsUnknownKindsAndBadHeaders) {
  std::vector<uint8_t> bytes = SerializeUnregisterSession(UnregisterSessionMsg{});

  std::vector<uint8_t> unknown_kind = bytes;
  // Kind byte: 0 was never assigned, 5 and 6 are reserved (a retired
  // liveness probe), 8 is one past the last known kind.
  for (const uint8_t kind : {0, 5, 6, 8}) {
    unknown_kind[6] = kind;
    EXPECT_FALSE(PeekWireKind(BytesOf(unknown_kind)).ok())
        << "kind " << static_cast<int>(kind);
  }

  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(PeekWireKind(BytesOf(bad_magic)).ok());

  std::vector<uint8_t> bad_version = bytes;
  bad_version[4] = static_cast<uint8_t>(kWireVersion + 1);
  auto version_result = PeekWireKind(BytesOf(bad_version));
  EXPECT_FALSE(version_result.ok());
  EXPECT_NE(version_result.status().message().find("version"),
            std::string::npos);

  // Shorter than a header: nothing to dispatch on.
  EXPECT_FALSE(
      PeekWireKind(common::Span<const uint8_t>(bytes.data(), 7)).ok());
}

TEST(WireControlTest, ParsersRejectWrongControlKinds) {
  // Every control parser must refuse a well-formed frame of a different
  // kind — kind confusion is how a coordinator ends up reading an ack as a
  // registration.
  const std::vector<uint8_t> reg = SerializeRegisterSession(RegisterSessionMsg{});
  const std::vector<uint8_t> ack = SerializeSessionAck(SessionAckMsg{});
  const std::vector<uint8_t> unreg =
      SerializeUnregisterSession(UnregisterSessionMsg{});
  EXPECT_FALSE(ParseRegisterSession(BytesOf(ack)).ok());
  EXPECT_FALSE(ParseSessionAck(BytesOf(reg)).ok());
  EXPECT_FALSE(ParseSessionAck(BytesOf(unreg)).ok());
  EXPECT_FALSE(ParseUnregisterSession(BytesOf(ack)).ok());
}

}  // namespace
}  // namespace query
}  // namespace exsample
