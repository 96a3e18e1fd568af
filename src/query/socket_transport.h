#ifndef EXSAMPLE_QUERY_SOCKET_TRANSPORT_H_
#define EXSAMPLE_QUERY_SOCKET_TRANSPORT_H_

#include <netinet/in.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/transport.h"
#include "query/wire.h"

namespace exsample {
namespace query {

/// \file
/// \brief The real-socket `ShardTransport`: wire frames over TCP to
/// `exsample_shardd` shard servers, with connect/reconnect, session
/// deployment replay, and timeout-based failure inference.

/// \brief Frame length-prefix width: every wire message crosses a socket as
/// a 4-byte little-endian payload length followed by the payload bytes.
inline constexpr size_t kFrameHeaderBytes = 4;

/// \brief Writes one length-prefixed frame to a blocking `fd` (EINTR-safe).
/// Header and payload reach the kernel in one `sendmsg` call, looping only
/// on partial writes. Fails on write errors and on payloads past
/// `kMaxFrameBytes`.
common::Status WriteFrame(int fd, common::Span<const uint8_t> payload);

/// \brief Largest frame either side accepts. Generous: the coordinator's
/// device batches are a few KiB, responses a few hundred KiB at most.
inline constexpr size_t kMaxFrameBytes = 64ull << 20;

/// \brief The receive side of one connection, shared by the coordinator and
/// `exsample_shardd`: bytes read without blocking wait here until their
/// frame is complete, so a peer that stops mid-frame blocks nothing. One
/// read grows the buffer by at most what it holds (or 16 KiB), whatever a
/// header declares: a peer that declares a huge frame and stalls costs what
/// it sent, not what it declared.
class FrameReader {
 public:
  enum class Outcome {
    kFrame,    ///< `*frame` holds a complete frame's payload.
    kPending,  ///< No complete frame, and the socket is drained: poll it.
    kDrop,     ///< EOF, a read error, or a header past `kMaxFrameBytes`.
  };

  /// Hands out the next complete frame, first reading `fd` without blocking
  /// (EINTR-safe) when none is buffered. `*frame` views the buffer until the
  /// next call. Once a short read's frames are handed out, `kPending` comes
  /// without another `recv`.
  Outcome Next(int fd, common::Span<const uint8_t>* frame);

 private:
  /// Bytes not yet handed out: `in_[begin_, end_)`.
  std::vector<uint8_t> in_;
  size_t begin_ = 0;
  size_t end_ = 0;
  /// The last read took less than it was offered: the socket was empty.
  bool drained_ = false;
};

/// \brief Configuration of a `SocketTransport`.
struct SocketTransportOptions {
  /// One "host:port" endpoint per shard (`hosts[s]` runs shard `s`'s
  /// `exsample_shardd`). Size must equal the transport's shard count.
  std::vector<std::string> hosts;
  /// Per detect-request deadline: a batch unanswered this long is given up
  /// on (`kUnavailable` synthesized, the late answer dropped if it ever
  /// arrives) — the failure-inference half of the availability story, and
  /// the only signal that catches a server that is up but wedged.
  double request_deadline_seconds = 5.0;
  /// How long `RegisterSession` waits for a shard's ack before proceeding
  /// optimistically (an unreachable runner is the detect path's problem —
  /// registration is replayed on reconnect).
  double register_ack_deadline_seconds = 2.0;
  /// Per-connect timeout of the non-blocking connect + poll handshake.
  double connect_timeout_seconds = 1.0;
  /// Reconnect backoff: first retry after `reconnect_backoff_seconds`,
  /// doubling per failure up to the max. While a shard is inside its backoff
  /// window, sends to it fail fast (synthesized `kUnavailable`) instead of
  /// hammering connect().
  double reconnect_backoff_seconds = 0.02;
  double reconnect_backoff_max_seconds = 1.0;
};

/// \brief `ShardTransport` over real TCP sockets: one connection per shard
/// to an `exsample_shardd` server, all of it driven from the coordinator
/// thread, and the `RegisterSessionMsg` control plane deploying session state.
///
/// ## I/O model
///
/// The transport starts no threads. The one coordinator thread that drives
/// Send/Receive/RegisterSession/UnregisterSession (the interface contract)
/// does all socket I/O, so every connection has exactly one owner:
///
/// - Every frame leaves in one `sendmsg` (length header and payload as two
///   iovecs): one segment, one wakeup of the peer.
/// - Sockets are non-blocking. `Receive` and the registration ack wait
///   `poll()` the connected sockets until the earliest request deadline (or
///   the ack deadline) and read whatever has arrived.
/// - Received bytes wait in a per-connection `FrameReader`, and a frame is
///   dispatched only once it is complete: a peer that sends half a frame
///   and goes silent blocks nothing, and the request deadline still fires.
/// - A send the kernel cannot take keeps reading the same connection while
///   it waits. The service ships a whole wave before it receives, so a
///   server blocked writing responses nobody reads would otherwise stall
///   both processes. A send that makes no progress for a request deadline
///   fails the connection.
///
/// ## Failure inference
///
/// A socket gives no positive failure signal — a dead server is silence.
/// Every environmental failure is therefore *inferred* and synthesized as a
/// `kUnavailable` completion for `Receive`, so the `DetectorService`'s
/// retry → requeue machinery sees exactly the signal an explicit runner
/// failure produces: a connect that fails (or is gated by backoff) fails the
/// batch immediately; a connection that drops (EOF, a reset, `POLLHUP` or
/// `POLLERR`) or breaks the protocol is closed and fails everything in
/// flight on it; a batch unanswered past its deadline is given up on, and
/// its late response — recognized by sequence number and attempt echo — is
/// dropped. `Send` consequently never fails for environmental reasons (the
/// interface contract); a non-OK return is a caller bug.
///
/// ## Session deployment
///
/// `RegisterSession` fails with `FailedPrecondition` when `hosts` does not
/// hold one entry per shard or an entry is malformed (both checked once, at
/// construction); such a fleet is never connected to. Otherwise it ships
/// the session's detector configuration to every shard, then waits briefly
/// for all their acks at once (`kRepoMismatch` acks fail the registration
/// with `FailedPrecondition` — a mis-deployment, never retryable). Every
/// live session's registration frame is kept and *replayed* on each
/// (re)connect before any detect frame crosses, so a restarted server is
/// re-deployed transparently — TCP's in-order delivery guarantees the runner
/// materializes the session before any batch that references it.
///
/// `Stats()` and `InFlight()` may be called from any thread: the state they
/// read sits under one mutex, which the coordinator releases while it
/// waits in `poll()`.
class SocketTransport : public ShardTransport {
 public:
  SocketTransport(size_t num_shards, SocketTransportOptions options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  const char* name() const override { return "socket"; }
  common::Status RegisterSession(const RegisterSessionMsg& msg) override;
  void UnregisterSession(uint64_t session_id) override;
  common::Status Send(uint32_t runner_shard,
                      const DetectRequestMsg& request) override;
  common::Result<DetectResponseMsg> Receive() override;
  size_t InFlight() const override;
  TransportStats Stats() const override;

  size_t NumShards() const { return conns_.size(); }
  const SocketTransportOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;
  using Lock = std::unique_lock<std::mutex>;

  struct Conn {
    /// The shard's endpoint, parsed once at construction.
    sockaddr_in addr{};
    /// The connected non-blocking socket, or -1 while disconnected.
    int fd = -1;
    bool ever_connected = false;
    /// Backoff gate: no connect attempt before this instant.
    Clock::time_point next_attempt = Clock::time_point::min();
    double backoff_seconds = 0.0;
    /// Received bytes not yet dispatched; reset on disconnect.
    FrameReader reader;
    /// Acks received that no waiter has consumed yet (session_id ->
    /// status); cleared on disconnect.
    std::unordered_map<uint64_t, WireStatus> pending_acks;
  };

  struct InFlightEntry {
    /// Shard the batch was sent to (where the failure, if inferred, lands).
    uint32_t shard = 0;
    /// Shard the batch was originally built for — preserved across requeues,
    /// echoed back on synthesized failures so the service's bookkeeping
    /// matches a real runner's response.
    uint32_t origin_shard = 0;
    uint32_t attempt = 0;
    /// Slots of the request: a `kOk` response must carry one detection list
    /// per slot, or it is a protocol violation.
    size_t slots = 0;
    Clock::time_point deadline;
  };

  /// Connects `shard` if disconnected and its backoff window allows,
  /// replaying every live session's registration on success. Returns whether
  /// the shard is connected afterwards.
  bool EnsureConnectedLocked(uint32_t shard, Clock::time_point now, Lock& lock);
  /// Declares `shard`'s connection dead: closes it, synthesizes
  /// `kUnavailable` completions for everything in flight on it, and drops
  /// its buffered input and pending acks.
  void MarkDisconnectedLocked(uint32_t shard);
  /// Synthesizes a `kUnavailable` completion (failure inference).
  void SynthesizeFailureLocked(uint64_t wire_seq, const InFlightEntry& entry);
  /// Sends one frame to a connected `shard`, reading that connection while
  /// the kernel has no room for it. On failure the connection is marked
  /// disconnected and false is returned.
  bool WriteFrameLocked(uint32_t shard, common::Span<const uint8_t> payload,
                        Lock& lock);
  /// Waits until `deadline` for input on any connected shard, then reads
  /// and dispatches what arrived. Returns early on any input; callers
  /// re-check their own conditions.
  void PollLocked(Clock::time_point deadline, Lock& lock);
  /// Reads what `shard`'s socket holds without blocking and dispatches every
  /// complete frame. EOF, a read error, an oversized frame header or a
  /// protocol violation marks the shard disconnected.
  void ReadLocked(uint32_t shard);
  /// Routes one received frame (detect response or control ack). Returns
  /// false on a frame the protocol forbids — including a `kOk` response whose
  /// detection lists do not match its batch's slots — and the caller drops
  /// the connection.
  bool DispatchFrameLocked(uint32_t shard, common::Span<const uint8_t> frame);

  SocketTransportOptions options_;
  /// OK, or `FailedPrecondition` for a host count other than the shard
  /// count or naming the first malformed entry of `options_.hosts`;
  /// `RegisterSession` returns it.
  common::Status hosts_status_;

  /// Guards what `Stats()`/`InFlight()` read from other threads; the
  /// coordinator holds it except while it waits in `poll()`.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
  /// Live sessions in registration order: serialized `RegisterSessionMsg`
  /// frames replayed to every fresh connection.
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> live_sessions_;
  /// Sent batches awaiting a response, by wire sequence number. A retry
  /// reuses the sequence number with a bumped attempt, so the attempt echo
  /// distinguishes the live attempt from a late predecessor.
  std::unordered_map<uint64_t, InFlightEntry> inflight_;
  std::deque<DetectResponseMsg> completed_;
  TransportStats stats_;
};

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_SOCKET_TRANSPORT_H_
