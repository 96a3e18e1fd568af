#ifndef EXSAMPLE_QUERY_WIRE_H_
#define EXSAMPLE_QUERY_WIRE_H_

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "detect/detection.h"
#include "detect/detector.h"
#include "video/repository.h"

namespace exsample {
namespace query {

/// \file
/// \brief Serializable wire format of the distributed detect stage.
///
/// The `DetectorService`'s per-shard submission queues are the transport unit
/// the ROADMAP names for cross-machine execution: a remote shard runner
/// drains its queue's sliced device batches over RPC instead of a local
/// pool. Every message shares one framed envelope — the 8-byte header below,
/// whose kind byte separates *data* messages (a *detect request*: one sliced
/// device batch of (session, frame) slots; its *detect response*: per-slot
/// detection lists plus the detector seconds the runner charged) from
/// *control* messages (session registration shipping the detector
/// configuration a remote runner materializes its session state from, the
/// matching ack, and unregistration). Control and data parse
/// through the same bounds-checked reader; `PeekWireKind` dispatches a
/// received frame without trusting anything past the header.
///
/// The encoding is a versioned, deterministic binary layout: fixed-width
/// little-endian integers, doubles as raw IEEE-754 bit patterns (so a
/// detection box round-trips bit-identically — the loopback-equals-local
/// trace contract depends on it), length-prefixed repeated fields, no
/// padding. Serialization of the same message always yields the same bytes;
/// parsing is bounds-checked and returns `InvalidArgument` for truncated,
/// oversized, or trailing-garbage buffers and rejects unknown versions and
/// message kinds instead of guessing.

/// \brief Magic prefix of every wire message ("XSWM": eXSample Wire Message).
inline constexpr uint32_t kWireMagic = 0x4d575358;
/// \brief Current wire-format version. Parsers reject anything else: a shard
/// fleet is upgraded in lockstep before the coordinator starts speaking a new
/// version.
inline constexpr uint16_t kWireVersion = 1;

/// \brief Message kinds, tagged in the header byte after the version. Kinds
/// 1–2 are the data plane; 3, 4 and 7 are the control plane a real transport
/// needs to deploy session state. Kinds 5 and 6 are reserved and never
/// reassigned, so an older peer's frame cannot parse as a different message.
/// Parsers reject kinds they do not know: a frame from a newer coordinator
/// fails cleanly, never silently.
enum class WireKind : uint8_t {
  kDetectRequest = 1,
  kDetectResponse = 2,
  kRegisterSession = 3,
  kSessionAck = 4,
  kUnregisterSession = 7,
};

/// \brief Outcome a shard runner reports for one wire batch.
enum class WireStatus : uint8_t {
  kOk = 0,
  /// The runner (or its machine) could not serve the batch. The service
  /// retries `max_retries` times, then requeues onto a surviving shard.
  kUnavailable = 1,
  /// The runner serves a different repository than the request was built
  /// against (fingerprint mismatch) — a deployment error, never retryable.
  kRepoMismatch = 2,
};

/// \brief One frame of a wire batch: which session's detector context serves
/// it (ids, not pointers — the runner resolves them in its own directory) and
/// the global frame to detect.
struct WireSlot {
  uint64_t session_id = 0;
  video::FrameId frame = 0;

  bool operator==(const WireSlot& other) const {
    return session_id == other.session_id && frame == other.frame;
  }
};

/// \brief One sliced device batch, addressed to a shard runner.
struct DetectRequestMsg {
  /// Coordinator-assigned id of this wire batch; the matching response echoes
  /// it, so completions may arrive in any order. Retries and requeues reuse
  /// the sequence number with a bumped `attempt`.
  uint64_t wire_seq = 0;
  /// The shard whose detector contexts serve these frames. Normally the
  /// runner the request is sent to; after a failure the batch is requeued
  /// onto a *surviving* runner with `origin_shard` unchanged, so the
  /// detections (and the session's per-shard accounting) are identical to
  /// the no-failure run.
  uint32_t origin_shard = 0;
  /// 0 on the first send; incremented per retry/requeue (observability).
  uint32_t attempt = 0;
  /// Fingerprint of the repository the coordinator is querying
  /// (`video::VideoRepository::Fingerprint`); 0 disables the check. A runner
  /// configured with a different expectation answers `kRepoMismatch`.
  uint64_t repo_fingerprint = 0;
  std::vector<WireSlot> slots;
};

/// \brief A shard runner's answer to one `DetectRequestMsg`.
struct DetectResponseMsg {
  uint64_t wire_seq = 0;
  uint32_t origin_shard = 0;
  /// Echo of the request's attempt counter.
  uint32_t attempt = 0;
  WireStatus status = WireStatus::kOk;
  /// Simulated detector seconds the runner charged for the batch (the
  /// shard-side half of the cost accounting; `kOk` only).
  double charged_seconds = 0.0;
  /// Per-slot detection lists, parallel to the request's `slots` (`kOk`
  /// only; empty on failure).
  std::vector<detect::Detections> detections;
};

/// \brief Serializes `msg` into the canonical byte layout. Deterministic:
/// equal messages yield equal bytes.
std::vector<uint8_t> SerializeDetectRequest(const DetectRequestMsg& msg);

/// \brief Parses a buffer produced by `SerializeDetectRequest`.
///
/// Returns `InvalidArgument` for short/truncated buffers, bad magic, version
/// or kind mismatches, implausible length prefixes, and trailing bytes.
common::Result<DetectRequestMsg> ParseDetectRequest(
    common::Span<const uint8_t> bytes);

/// \brief Serializes `msg` into the canonical byte layout.
std::vector<uint8_t> SerializeDetectResponse(const DetectResponseMsg& msg);

/// \brief Parses a buffer produced by `SerializeDetectResponse`; same error
/// contract as `ParseDetectRequest`.
common::Result<DetectResponseMsg> ParseDetectResponse(
    common::Span<const uint8_t> bytes);

/// \brief Control-plane message deploying one session's detector state to a
/// shard runner, sent once per (session, connection) before the first detect
/// batch that references the session.
///
/// Where the in-process directory shares detector *pointers*, this ships the
/// *configuration* a remote runner needs to materialize an equivalent
/// detector: `SimulatedDetector` is a pure per-frame function of (ground
/// truth, options), so the options (seed included) plus the repository
/// fingerprint — pinning which ground truth the runner must already hold —
/// fully determine the remote detector's output. That purity is what lets a
/// registration message replace shared memory without touching the
/// bit-identical trace contract.
struct RegisterSessionMsg {
  uint64_t session_id = 0;
  /// Fingerprint of the repository the session queries; a runner serving a
  /// different repository acks `kRepoMismatch` (0 disables the check).
  uint64_t repo_fingerprint = 0;
  detect::DetectorOptions detector_options;
};

/// \brief A runner's answer to one `RegisterSessionMsg` (status rides the
/// header's flags byte, like detect responses).
struct SessionAckMsg {
  uint64_t session_id = 0;
  WireStatus status = WireStatus::kOk;
};

/// \brief Control-plane message dropping one session's runner-side state; no
/// ack (the coordinator never blocks on teardown).
struct UnregisterSessionMsg {
  uint64_t session_id = 0;
};

/// \brief Validates the framed header of a received buffer (magic, version,
/// known kind) and returns its kind without consuming the message — the
/// dispatch step of every runner/coordinator receive loop. `InvalidArgument`
/// for short buffers, bad magic, version mismatches, and unknown kinds.
common::Result<WireKind> PeekWireKind(common::Span<const uint8_t> bytes);

std::vector<uint8_t> SerializeRegisterSession(const RegisterSessionMsg& msg);
common::Result<RegisterSessionMsg> ParseRegisterSession(
    common::Span<const uint8_t> bytes);

std::vector<uint8_t> SerializeSessionAck(const SessionAckMsg& msg);
common::Result<SessionAckMsg> ParseSessionAck(common::Span<const uint8_t> bytes);

std::vector<uint8_t> SerializeUnregisterSession(const UnregisterSessionMsg& msg);
common::Result<UnregisterSessionMsg> ParseUnregisterSession(
    common::Span<const uint8_t> bytes);

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_WIRE_H_
