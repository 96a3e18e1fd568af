#include "query/wire.h"

#include <cstring>

namespace exsample {
namespace query {

namespace {

// Fixed-width little-endian append/read helpers. memcpy keeps them free of
// alignment and strict-aliasing traps; the byte order is made explicit so the
// format is stable across hosts.

void AppendU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void AppendU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v & 0xff));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendI32(std::vector<uint8_t>* out, int32_t v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU32(out, bits);
}

void AppendF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

/// Bounds-checked sequential reader over a wire buffer. Every `Read*` checks
/// the remaining length first, so a truncated buffer fails with a clean
/// status instead of reading past the end.
class WireReader {
 public:
  explicit WireReader(common::Span<const uint8_t> bytes) : bytes_(bytes) {}

  size_t Remaining() const { return bytes_.size() - pos_; }
  bool Done() const { return pos_ == bytes_.size(); }

  common::Status ReadU8(uint8_t* out) {
    if (Remaining() < 1) return Truncated();
    *out = bytes_[pos_++];
    return common::Status::OK();
  }

  common::Status ReadU16(uint16_t* out) {
    if (Remaining() < 2) return Truncated();
    *out = static_cast<uint16_t>(bytes_[pos_]) |
           static_cast<uint16_t>(static_cast<uint16_t>(bytes_[pos_ + 1]) << 8);
    pos_ += 2;
    return common::Status::OK();
  }

  common::Status ReadU32(uint32_t* out) {
    if (Remaining() < 4) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return common::Status::OK();
  }

  common::Status ReadU64(uint64_t* out) {
    if (Remaining() < 8) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return common::Status::OK();
  }

  common::Status ReadI32(int32_t* out) {
    uint32_t bits;
    common::Status s = ReadU32(&bits);
    if (!s.ok()) return s;
    std::memcpy(out, &bits, sizeof(*out));
    return common::Status::OK();
  }

  common::Status ReadF64(double* out) {
    uint64_t bits;
    common::Status s = ReadU64(&bits);
    if (!s.ok()) return s;
    std::memcpy(out, &bits, sizeof(*out));
    return common::Status::OK();
  }

  /// Validates a length prefix against the bytes actually left: each of the
  /// `count` elements occupies at least `min_element_bytes`, so a prefix the
  /// buffer cannot possibly satisfy is rejected *before* any allocation — a
  /// 2^60 count in a 40-byte buffer must not attempt a 2^60 resize.
  common::Status CheckCount(uint64_t count, size_t min_element_bytes) {
    if (min_element_bytes > 0 && count > Remaining() / min_element_bytes) {
      return common::Status::InvalidArgument(
          "wire message length prefix exceeds the buffer");
    }
    return common::Status::OK();
  }

 private:
  static common::Status Truncated() {
    return common::Status::InvalidArgument("truncated wire message");
  }

  common::Span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

void AppendHeader(std::vector<uint8_t>* out, WireKind kind, uint8_t flags) {
  AppendU32(out, kWireMagic);
  AppendU16(out, kWireVersion);
  AppendU8(out, static_cast<uint8_t>(kind));
  AppendU8(out, flags);
}

/// Parses and validates the 8-byte header; `flags` receives the kind-specific
/// trailing byte (reserved on requests, the `WireStatus` on responses).
common::Status ParseHeader(WireReader* reader, WireKind expected_kind,
                           uint8_t* flags) {
  uint32_t magic = 0;
  uint16_t version = 0;
  uint8_t kind = 0;
  common::Status s = reader->ReadU32(&magic);
  if (!s.ok()) return s;
  if (magic != kWireMagic) {
    return common::Status::InvalidArgument("bad wire magic");
  }
  s = reader->ReadU16(&version);
  if (!s.ok()) return s;
  if (version != kWireVersion) {
    return common::Status::InvalidArgument("unsupported wire version");
  }
  s = reader->ReadU8(&kind);
  if (!s.ok()) return s;
  if (kind != static_cast<uint8_t>(expected_kind)) {
    return common::Status::InvalidArgument("unexpected wire message kind");
  }
  return reader->ReadU8(flags);
}

common::Status CheckFullyConsumed(const WireReader& reader) {
  if (!reader.Done()) {
    return common::Status::InvalidArgument("trailing bytes after wire message");
  }
  return common::Status::OK();
}

/// Shared body of the two control messages whose payload is one u64 after
/// the header (acks, unregister).
std::vector<uint8_t> SerializeU64Body(WireKind kind, uint8_t flags,
                                      uint64_t value) {
  std::vector<uint8_t> out;
  out.reserve(8 + 8);
  AppendHeader(&out, kind, flags);
  AppendU64(&out, value);
  return out;
}

common::Status ParseU64Body(common::Span<const uint8_t> bytes, WireKind kind,
                            uint8_t* flags, uint64_t* value) {
  WireReader reader(bytes);
  common::Status s = ParseHeader(&reader, kind, flags);
  if (!s.ok()) return s;
  s = reader.ReadU64(value);
  if (!s.ok()) return s;
  return CheckFullyConsumed(reader);
}

void AppendDetection(std::vector<uint8_t>* out, const detect::Detection& det) {
  AppendF64(out, det.box.x);
  AppendF64(out, det.box.y);
  AppendF64(out, det.box.w);
  AppendF64(out, det.box.h);
  AppendI32(out, det.class_id);
  AppendF64(out, det.confidence);
  AppendU64(out, det.source_instance);
}

constexpr size_t kDetectionBytes = 8 * 5 + 4 + 8;  // 4 box + conf doubles,
                                                   // class, instance.

common::Status ReadDetection(WireReader* reader, detect::Detection* det) {
  common::Status s = reader->ReadF64(&det->box.x);
  if (!s.ok()) return s;
  s = reader->ReadF64(&det->box.y);
  if (!s.ok()) return s;
  s = reader->ReadF64(&det->box.w);
  if (!s.ok()) return s;
  s = reader->ReadF64(&det->box.h);
  if (!s.ok()) return s;
  s = reader->ReadI32(&det->class_id);
  if (!s.ok()) return s;
  s = reader->ReadF64(&det->confidence);
  if (!s.ok()) return s;
  return reader->ReadU64(&det->source_instance);
}

}  // namespace

std::vector<uint8_t> SerializeDetectRequest(const DetectRequestMsg& msg) {
  std::vector<uint8_t> out;
  out.reserve(8 + 8 + 4 + 4 + 8 + 8 + msg.slots.size() * 16);
  AppendHeader(&out, WireKind::kDetectRequest, /*flags=*/0);
  AppendU64(&out, msg.wire_seq);
  AppendU32(&out, msg.origin_shard);
  AppendU32(&out, msg.attempt);
  AppendU64(&out, msg.repo_fingerprint);
  AppendU64(&out, msg.slots.size());
  for (const WireSlot& slot : msg.slots) {
    AppendU64(&out, slot.session_id);
    AppendU64(&out, slot.frame);
  }
  return out;
}

common::Result<DetectRequestMsg> ParseDetectRequest(
    common::Span<const uint8_t> bytes) {
  WireReader reader(bytes);
  uint8_t flags = 0;
  common::Status s = ParseHeader(&reader, WireKind::kDetectRequest, &flags);
  if (!s.ok()) return s;
  if (flags != 0) {
    return common::Status::InvalidArgument("reserved request flags set");
  }

  DetectRequestMsg msg;
  s = reader.ReadU64(&msg.wire_seq);
  if (!s.ok()) return s;
  s = reader.ReadU32(&msg.origin_shard);
  if (!s.ok()) return s;
  s = reader.ReadU32(&msg.attempt);
  if (!s.ok()) return s;
  s = reader.ReadU64(&msg.repo_fingerprint);
  if (!s.ok()) return s;

  uint64_t count = 0;
  s = reader.ReadU64(&count);
  if (!s.ok()) return s;
  s = reader.CheckCount(count, /*min_element_bytes=*/16);
  if (!s.ok()) return s;
  msg.slots.resize(static_cast<size_t>(count));
  for (WireSlot& slot : msg.slots) {
    s = reader.ReadU64(&slot.session_id);
    if (!s.ok()) return s;
    s = reader.ReadU64(&slot.frame);
    if (!s.ok()) return s;
  }
  s = CheckFullyConsumed(reader);
  if (!s.ok()) return s;
  return msg;
}

std::vector<uint8_t> SerializeDetectResponse(const DetectResponseMsg& msg) {
  std::vector<uint8_t> out;
  size_t detection_count = 0;
  for (const detect::Detections& dets : msg.detections) {
    detection_count += dets.size();
  }
  out.reserve(8 + 8 + 4 + 4 + 8 + 8 + msg.detections.size() * 8 +
              detection_count * kDetectionBytes);
  AppendHeader(&out, WireKind::kDetectResponse,
               /*flags=*/static_cast<uint8_t>(msg.status));
  AppendU64(&out, msg.wire_seq);
  AppendU32(&out, msg.origin_shard);
  AppendU32(&out, msg.attempt);
  AppendF64(&out, msg.charged_seconds);
  AppendU64(&out, msg.detections.size());
  for (const detect::Detections& dets : msg.detections) {
    AppendU64(&out, dets.size());
    for (const detect::Detection& det : dets) {
      AppendDetection(&out, det);
    }
  }
  return out;
}

common::Result<DetectResponseMsg> ParseDetectResponse(
    common::Span<const uint8_t> bytes) {
  WireReader reader(bytes);
  uint8_t flags = 0;
  common::Status s = ParseHeader(&reader, WireKind::kDetectResponse, &flags);
  if (!s.ok()) return s;
  if (flags > static_cast<uint8_t>(WireStatus::kRepoMismatch)) {
    return common::Status::InvalidArgument("unknown wire response status");
  }

  DetectResponseMsg msg;
  msg.status = static_cast<WireStatus>(flags);
  s = reader.ReadU64(&msg.wire_seq);
  if (!s.ok()) return s;
  s = reader.ReadU32(&msg.origin_shard);
  if (!s.ok()) return s;
  s = reader.ReadU32(&msg.attempt);
  if (!s.ok()) return s;
  s = reader.ReadF64(&msg.charged_seconds);
  if (!s.ok()) return s;

  uint64_t slot_count = 0;
  s = reader.ReadU64(&slot_count);
  if (!s.ok()) return s;
  s = reader.CheckCount(slot_count, /*min_element_bytes=*/8);
  if (!s.ok()) return s;
  msg.detections.resize(static_cast<size_t>(slot_count));
  for (detect::Detections& dets : msg.detections) {
    uint64_t det_count = 0;
    s = reader.ReadU64(&det_count);
    if (!s.ok()) return s;
    s = reader.CheckCount(det_count, kDetectionBytes);
    if (!s.ok()) return s;
    dets.resize(static_cast<size_t>(det_count));
    for (detect::Detection& det : dets) {
      s = ReadDetection(&reader, &det);
      if (!s.ok()) return s;
    }
  }
  s = CheckFullyConsumed(reader);
  if (!s.ok()) return s;
  return msg;
}

common::Result<WireKind> PeekWireKind(common::Span<const uint8_t> bytes) {
  // The contract is "validates the framed header": a buffer shorter than the
  // full 8-byte header is rejected even though the kind byte sits at offset
  // 6 — every parser will demand the flags byte anyway.
  if (bytes.size() < 8) {
    return common::Status::InvalidArgument("wire header truncated");
  }
  WireReader reader(bytes);
  uint32_t magic = 0;
  uint16_t version = 0;
  uint8_t kind = 0;
  common::Status s = reader.ReadU32(&magic);
  if (!s.ok()) return s;
  if (magic != kWireMagic) {
    return common::Status::InvalidArgument("bad wire magic");
  }
  s = reader.ReadU16(&version);
  if (!s.ok()) return s;
  if (version != kWireVersion) {
    return common::Status::InvalidArgument("unsupported wire version");
  }
  s = reader.ReadU8(&kind);
  if (!s.ok()) return s;
  switch (static_cast<WireKind>(kind)) {
    case WireKind::kDetectRequest:
    case WireKind::kDetectResponse:
    case WireKind::kRegisterSession:
    case WireKind::kSessionAck:
    case WireKind::kUnregisterSession:
      return static_cast<WireKind>(kind);
  }
  return common::Status::InvalidArgument("unknown wire message kind");
}

std::vector<uint8_t> SerializeRegisterSession(const RegisterSessionMsg& msg) {
  std::vector<uint8_t> out;
  out.reserve(8 + 8 + 8 + 4 + 8 * 6 + 8);
  AppendHeader(&out, WireKind::kRegisterSession, /*flags=*/0);
  AppendU64(&out, msg.session_id);
  AppendU64(&out, msg.repo_fingerprint);
  const detect::DetectorOptions& opts = msg.detector_options;
  AppendI32(&out, opts.target_class);
  AppendF64(&out, opts.miss_prob);
  AppendF64(&out, opts.edge_ramp_fraction);
  AppendF64(&out, opts.edge_min_factor);
  AppendF64(&out, opts.localization_sigma);
  AppendF64(&out, opts.false_positive_rate);
  AppendF64(&out, opts.seconds_per_frame);
  AppendU64(&out, opts.seed);
  return out;
}

common::Result<RegisterSessionMsg> ParseRegisterSession(
    common::Span<const uint8_t> bytes) {
  WireReader reader(bytes);
  uint8_t flags = 0;
  common::Status s = ParseHeader(&reader, WireKind::kRegisterSession, &flags);
  if (!s.ok()) return s;
  if (flags != 0) {
    return common::Status::InvalidArgument("reserved register flags set");
  }

  RegisterSessionMsg msg;
  s = reader.ReadU64(&msg.session_id);
  if (!s.ok()) return s;
  s = reader.ReadU64(&msg.repo_fingerprint);
  if (!s.ok()) return s;
  detect::DetectorOptions& opts = msg.detector_options;
  s = reader.ReadI32(&opts.target_class);
  if (!s.ok()) return s;
  s = reader.ReadF64(&opts.miss_prob);
  if (!s.ok()) return s;
  s = reader.ReadF64(&opts.edge_ramp_fraction);
  if (!s.ok()) return s;
  s = reader.ReadF64(&opts.edge_min_factor);
  if (!s.ok()) return s;
  s = reader.ReadF64(&opts.localization_sigma);
  if (!s.ok()) return s;
  s = reader.ReadF64(&opts.false_positive_rate);
  if (!s.ok()) return s;
  s = reader.ReadF64(&opts.seconds_per_frame);
  if (!s.ok()) return s;
  s = reader.ReadU64(&opts.seed);
  if (!s.ok()) return s;
  s = CheckFullyConsumed(reader);
  if (!s.ok()) return s;
  return msg;
}

std::vector<uint8_t> SerializeSessionAck(const SessionAckMsg& msg) {
  return SerializeU64Body(WireKind::kSessionAck,
                          static_cast<uint8_t>(msg.status), msg.session_id);
}

common::Result<SessionAckMsg> ParseSessionAck(
    common::Span<const uint8_t> bytes) {
  SessionAckMsg msg;
  uint8_t flags = 0;
  common::Status s =
      ParseU64Body(bytes, WireKind::kSessionAck, &flags, &msg.session_id);
  if (!s.ok()) return s;
  if (flags > static_cast<uint8_t>(WireStatus::kRepoMismatch)) {
    return common::Status::InvalidArgument("unknown session ack status");
  }
  msg.status = static_cast<WireStatus>(flags);
  return msg;
}

std::vector<uint8_t> SerializeUnregisterSession(
    const UnregisterSessionMsg& msg) {
  return SerializeU64Body(WireKind::kUnregisterSession, /*flags=*/0,
                          msg.session_id);
}

common::Result<UnregisterSessionMsg> ParseUnregisterSession(
    common::Span<const uint8_t> bytes) {
  UnregisterSessionMsg msg;
  uint8_t flags = 0;
  common::Status s = ParseU64Body(bytes, WireKind::kUnregisterSession, &flags,
                                  &msg.session_id);
  if (!s.ok()) return s;
  if (flags != 0) {
    return common::Status::InvalidArgument("reserved unregister flags set");
  }
  return msg;
}

}  // namespace query
}  // namespace exsample
