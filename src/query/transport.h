#ifndef EXSAMPLE_QUERY_TRANSPORT_H_
#define EXSAMPLE_QUERY_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/parking.h"
#include "common/ring_buffer.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "detect/detector.h"
#include "query/wire.h"
#include "stats/stats_json.h"

namespace exsample {
namespace query {

/// \brief Runner-side lookup resolving a wire slot's (session, shard) ids to
/// the detector context that serves it.
///
/// Wire messages carry ids, never pointers: a remote machine cannot
/// dereference the coordinator's memory. Each runner resolves ids against
/// *its own* session state — deployed to it by `RegisterSessionMsg` control
/// messages for a real remote transport, or shared in-process through a
/// `SessionDirectory` for the local/loopback ones. The interface is what the
/// shared execution core (`ExecuteWireRequest`) depends on, so a shard
/// server's message-materialized registry and the coordinator's pointer
/// directory run the exact same detect path.
///
/// Implementations must tolerate concurrent `Resolve` calls (runner threads)
/// interleaved with whatever registration mechanism they use.
class SessionResolver {
 public:
  virtual ~SessionResolver() = default;

  /// \brief The detector serving (`session_id`, `shard`), or null when the
  /// pair is unknown to this runner.
  virtual detect::ObjectDetector* Resolve(uint64_t session_id,
                                          uint32_t shard) const = 0;
};

/// \brief The in-process `SessionResolver`: a registry of raw detector
/// pointers under their (session, shard) ids.
///
/// This is the stand-in for the deployment step that makes ids meaningful
/// remotely — "the shard machine loaded this session's model configuration" —
/// collapsed to pointer sharing because coordinator and runners share an
/// address space. The `DetectorService` registers every session's per-shard
/// detectors on first submit, before any wire batch referencing them is sent.
///
/// Thread-safe: the coordinator registers while shard runner threads resolve.
class SessionDirectory : public SessionResolver {
 public:
  /// \brief Associates `detector` with (`session_id`, `shard`). Idempotent
  /// for an identical registration; re-registering a *different* detector
  /// under a live id is a fatal error (ids must be stable and unique —
  /// `SearchEngine` hands every session a fresh one).
  void Register(uint64_t session_id, uint32_t shard,
                detect::ObjectDetector* detector);

  /// \brief The detector serving (`session_id`, `shard`), or null when the
  /// pair was never registered.
  detect::ObjectDetector* Resolve(uint64_t session_id,
                                  uint32_t shard) const override;

  /// \brief Drops every registration of `session_id` — the session is gone
  /// and its detector pointers are about to dangle. No-op for unknown ids.
  void Unregister(uint64_t session_id);

  /// \brief Sessions registered so far (observability).
  size_t NumSessions() const;

 private:
  mutable std::mutex mu_;
  // Per session: detector per shard (indexed by shard id, nulls for shards
  // the session has no context on).
  std::unordered_map<uint64_t, std::vector<detect::ObjectDetector*>> sessions_;
};

/// \brief Transfer tallies of a transport.
struct TransportStats {
  /// Wire batches sent / responses delivered to the coordinator.
  uint64_t requests = 0;
  uint64_t responses = 0;
  /// Serialized bytes that crossed the wire (0 for `LocalTransport`, which
  /// never serializes).
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  /// Failures the transport injected (loopback fault injection only).
  uint64_t failures_injected = 0;
  /// Control-plane frames shipped (session register/unregister)
  /// — counted apart from `requests` so the exact send accounting
  /// (requests == batches + retries + requeues) survives the control plane.
  uint64_t control_messages = 0;
  /// Connections established / re-established after a drop (socket only).
  uint64_t connects = 0;
  uint64_t reconnects = 0;
  /// Failures *inferred* rather than reported: a per-request deadline
  /// expired, a connection dropped with batches in flight, or a connect
  /// failed — each synthesized as a `kUnavailable` completion so the
  /// service's retry → requeue machinery sees the same signal an explicit
  /// runner failure produces.
  uint64_t inferred_failures = 0;
  /// Responses discarded because their batch was already given up on (the
  /// deadline fired and a retry superseded the attempt).
  uint64_t late_responses_dropped = 0;
};

/// Names every field of `TransportStats` for the stats export.
inline void ExportFields(const TransportStats& s, stats::StatsWriter& out) {
  const auto& [requests, responses, bytes_sent, bytes_received, failures_injected,
               control_messages, connects, reconnects, inferred_failures,
               late_responses_dropped] = s;
  out.Counter("requests", requests);
  out.Counter("responses", responses);
  out.Counter("bytes_sent", bytes_sent);
  out.Counter("bytes_received", bytes_received);
  out.Counter("failures_injected", failures_injected);
  out.Counter("control_messages", control_messages);
  out.Counter("connects", connects);
  out.Counter("reconnects", reconnects);
  out.Counter("inferred_failures", inferred_failures);
  out.Counter("late_responses_dropped", late_responses_dropped);
}

/// \brief The transport boundary between the `DetectorService`'s per-shard
/// queues and the shard runners that execute them.
///
/// One coordinator thread drives a transport: `Send` hands a sliced device
/// batch to a shard's runner (non-blocking for asynchronous transports),
/// `Receive` blocks for the next completed batch — completions may arrive in
/// **any order** (the wire sequence number matches them back; the service's
/// ticket slots tolerate any completion order by construction, which is
/// exactly why the trace survives distribution). `Send(runner_shard, ...)`
/// addresses the *runner*; the request's `origin_shard` names whose detector
/// contexts serve the frames, and the two differ only for batches requeued
/// off a failed shard.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// \brief Transport name for reports ("local", "loopback", "socket").
  virtual const char* name() const = 0;

  /// \brief Binds the resolver *in-process* runners resolve wire slots
  /// against. Remote transports ignore it — their runners resolve against
  /// session state deployed by `RegisterSession` messages, which is the whole
  /// point of the control plane: nothing pointer-shaped crosses the seam.
  /// Called by the owning `DetectorService` before the first `Send`.
  virtual void BindLocalResolver(const SessionResolver* resolver) {
    (void)resolver;
  }

  /// \brief Deploys one session's detector configuration to every runner,
  /// before the first detect batch referencing the session is sent.
  ///
  /// In-process transports record the id (their runners resolve through the
  /// bound resolver); a socket transport ships the message and fails on a
  /// negative ack — `FailedPrecondition` for a repository-fingerprint
  /// mismatch (a mis-deployment, never retryable). Unreachable runners are
  /// *not* an error here: the registration is replayed on reconnect, and an
  /// unreachable runner surfaces through the detect path's failure inference,
  /// where retry/requeue can actually handle it.
  virtual common::Status RegisterSession(const RegisterSessionMsg& msg) {
    (void)msg;
    return common::Status::OK();
  }

  /// \brief Drops a session's runner-side state (fire-and-forget; the session
  /// is gone and its id must stop resolving).
  virtual void UnregisterSession(uint64_t session_id) { (void)session_id; }

  /// \brief Submits one wire batch for execution on `runner_shard`'s runner.
  ///
  /// Never fails for *environmental* reasons: a transport that cannot
  /// currently reach the runner synthesizes a `kUnavailable` completion for
  /// `Receive` instead, so connection weather flows through the same
  /// retry → requeue machinery as a runner-reported failure. A non-OK return
  /// is a caller bug (e.g. a shard index past the fleet).
  virtual common::Status Send(uint32_t runner_shard,
                              const DetectRequestMsg& request) = 0;

  /// \brief Blocks until a previously sent batch completes and returns its
  /// response. `FailedPrecondition` when nothing is in flight.
  virtual common::Result<DetectResponseMsg> Receive() = 0;

  /// \brief Batches sent but not yet received.
  virtual size_t InFlight() const = 0;

  /// \brief Snapshot of the transfer tallies, by value: the coordinator
  /// thread keeps counting after the call, so a reference would alias live
  /// counters. `SocketTransport` takes its lock here, so its snapshot is
  /// safe from any thread.
  virtual TransportStats Stats() const = 0;
};

/// \brief What `ExecuteWireRequest` does with a slot whose (session, shard)
/// the resolver does not know.
enum class UnresolvedSlotPolicy {
  /// In-process: an unregistered id is a protocol bug — crash loudly.
  kFatal,
  /// A shard server: the request may have raced a reconnect past the
  /// registration replay, and remote input must never crash the server —
  /// answer `kUnavailable` and let the coordinator re-register and retry.
  kUnavailable,
};

/// \brief Executes one wire request against a resolver: resolves every
/// slot's detector, fans the `Detect` calls over `pool` (inline when null),
/// and returns the `kOk` response with per-slot detections and the charged
/// detector seconds. This is the runner-side core every transport shares —
/// local, loopback, and the `exsample_shardd` socket server all wrap it.
DetectResponseMsg ExecuteWireRequest(
    const DetectRequestMsg& request, const SessionResolver& resolver,
    common::ThreadPool* pool,
    UnresolvedSlotPolicy policy = UnresolvedSlotPolicy::kFatal);

/// \brief The in-process transport: `Send` executes the batch synchronously
/// on the caller (fanning its frames over `pool`) and queues the response
/// for `Receive`, with no serialization. A `DetectorService` given no
/// transport builds and owns one, so every in-process detect call runs here;
/// shards execute one after another (`LoopbackTransport` runs the batch the
/// coordinator waits on itself and a wave's other batches on its runners,
/// in parallel).
class LocalTransport : public ShardTransport {
 public:
  /// Every shard's batches fan out over `pool` (the engine's one pool);
  /// null detects inline on the caller.
  explicit LocalTransport(size_t num_shards, common::ThreadPool* pool = nullptr);

  const char* name() const override { return "local"; }
  void BindLocalResolver(const SessionResolver* resolver) override;
  common::Status RegisterSession(const RegisterSessionMsg& msg) override;
  void UnregisterSession(uint64_t session_id) override;
  common::Status Send(uint32_t runner_shard,
                      const DetectRequestMsg& request) override;
  common::Result<DetectResponseMsg> Receive() override;
  size_t InFlight() const override { return completed_.size(); }
  TransportStats Stats() const override { return stats_; }

 private:
  // Resolves in process: a slot whose session the service never registered
  // fails `ExecuteWireRequest`'s resolve check, where a remote runner would
  // reject the batch.
  const SessionResolver* resolver_ = nullptr;
  size_t num_shards_;
  common::ThreadPool* pool_;
  std::deque<DetectResponseMsg> completed_;
  TransportStats stats_;
};

/// \brief Fault-injection knobs of a `LoopbackTransport`.
struct LoopbackTransportOptions {
  /// Wall-clock seconds each runner sleeps per request (simulated network +
  /// queueing latency of the remote hop).
  double latency_seconds = 0.0;
  /// Extra per-response delay drawn deterministically in [0, this) seconds,
  /// so completions of concurrently running shards reorder — the completion
  /// order a real fleet produces and the service must tolerate.
  double reorder_jitter_seconds = 0.0;
  /// Seed of the deterministic fault/jitter draws (keyed by wire_seq,
  /// attempt, and shard, so a rerun injects identical faults).
  uint64_t seed = 23;
  /// When >= 0, this runner permanently fails every request after serving
  /// `fail_after_requests` of them — the single-machine-dies scenario the
  /// requeue path exists for.
  int64_t fail_shard = -1;
  uint64_t fail_after_requests = 0;
  /// Per-attempt transient failure probability applied to every shard
  /// (deterministic coin; retries draw fresh coins).
  double failure_rate = 0.0;
  /// When non-zero, runners reject requests whose `repo_fingerprint` differs
  /// (deployment-mismatch detection; `kRepoMismatch`, never retried).
  uint64_t expected_fingerprint = 0;
};

/// \brief The RPC stand-in: per-shard runners connected to the coordinator
/// by byte queues.
///
/// Every request and response crosses between coordinator and runner **only
/// as wire bytes** — the runner parses the coordinator's serialized request
/// and the coordinator parses the runner's serialized response, so anything a
/// real socket transport would corrupt, reorder, or lose has to survive the
/// same (de)serialization here. Each shard has one runner (like one remote
/// machine per shard) that detects its batches inline, injects configurable
/// latency, response reordering, and failures, and the completion queue
/// delivers responses in whatever order they finish.
///
/// ## Queue mechanics (lock-free hot path, no handoff for a solo batch)
///
/// Each runner's inbox and the shared completion outbox are bounded MPSC
/// rings: `Send` costs one ring push, and a completed response travels back
/// the same way. When a ring fills, the producer spills to a mutex-guarded
/// overflow deque instead of blocking — the transport keeps the old
/// unbounded-queue semantics (a Send never waits on a slow runner, a runner
/// never waits on a slow coordinator, so no cyclic blocking is possible),
/// while the steady-state path stays lock-free.
///
/// A runner is a thread plus a *claim*: whichever thread holds the claim —
/// the runner's own or the coordinator — is the inbox's one consumer and owns
/// the runner's session registry, served-request count, and fault state, so
/// a batch behaves the same whichever thread runs it. A runner thread serves
/// its inbox only when the coordinator wakes it. `Send` only queues the
/// batch; it wakes the previous batch's runner once a later batch goes to
/// another runner. `Receive` runs the last-sent batch on the coordinator —
/// the batch it would otherwise wait on — and any other queued batch no
/// thread has claimed yet, so a one-batch wave costs no thread handoff while
/// a multi-batch wave's other batches run on their runners in parallel. Only
/// when every queued batch already has a thread running it does the
/// coordinator spin briefly, then park. An idle runner thread does the same
/// on its own `Parker`.
class LoopbackTransport : public ShardTransport {
 public:
  /// Starts one runner thread per shard.
  explicit LoopbackTransport(size_t num_shards,
                             LoopbackTransportOptions options = {});
  ~LoopbackTransport() override;

  LoopbackTransport(const LoopbackTransport&) = delete;
  LoopbackTransport& operator=(const LoopbackTransport&) = delete;

  const char* name() const override { return "loopback"; }
  void BindLocalResolver(const SessionResolver* resolver) override;
  /// Ships the serialized registration through every runner's inbox: the
  /// per-queue FIFO order guarantees a runner processes it before any detect
  /// batch sent afterwards, so no ack round-trip is needed in-process. Wakes
  /// no runner: the next thread to serve the inbox applies it.
  common::Status RegisterSession(const RegisterSessionMsg& msg) override;
  void UnregisterSession(uint64_t session_id) override;
  common::Status Send(uint32_t runner_shard,
                      const DetectRequestMsg& request) override;
  common::Result<DetectResponseMsg> Receive() override;
  size_t InFlight() const override { return in_flight_; }
  TransportStats Stats() const override { return stats_; }

  size_t NumShards() const { return runners_.size(); }
  const LoopbackTransportOptions& options() const { return options_; }

 private:
  using ByteRing = common::MpscRingBuffer<std::vector<uint8_t>>;

  /// A bounded ring plus its overflow spill — the two together behave like
  /// the old unbounded deque, with the lock confined to the (rare) spill.
  struct SpillQueue {
    explicit SpillQueue(size_t ring_capacity) : ring(ring_capacity) {}

    void Push(std::vector<uint8_t> bytes);
    bool TryPop(std::vector<uint8_t>& out);
    bool Empty() const;

    ByteRing ring;
    std::mutex overflow_mu;
    std::deque<std::vector<uint8_t>> overflow;
    std::atomic<size_t> overflow_size{0};
  };

  struct Runner {
    explicit Runner(size_t ring_capacity) : inbox(ring_capacity) {}

    std::thread thread;
    SpillQueue inbox;          // Serialized requests and control frames.
    common::Parker parker;     // Runner parks here until woken.
    std::atomic<bool> stop{false};
    // Set by the coordinator before it wakes the runner: the thread serves
    // its inbox only when asked.
    std::atomic<bool> woken{false};
    // The claim: taken with an acquire exchange, dropped with a release
    // store, by the runner thread or the coordinator. Its holder is the
    // inbox's single consumer and owns the state below.
    std::atomic<bool> claimed{false};
    uint64_t requests_served = 0;
    // Sessions the control plane deployed to this runner; detect slots must
    // name one (the protocol contract a remote runner would enforce).
    std::unordered_set<uint64_t> registered_sessions;
  };

  void RunnerLoop(uint32_t shard);
  /// Pops and runs one message of `shard`'s inbox; false when it is empty.
  /// Only the holder of the runner's claim calls it.
  bool ServeOne(uint32_t shard);
  /// Claims `shard`'s runner if its inbox is non-empty and no thread holds
  /// the claim, serves the inbox dry, and drops the claim. True when it
  /// served a message.
  bool Drain(uint32_t shard);
  /// Coordinator side: drains every inbox no thread has claimed, the
  /// last-sent batch's runner first. True when it served a message.
  bool ServeUnclaimed();
  /// Coordinator side: asks `shard`'s runner thread to serve its inbox.
  void WakeRunner(uint32_t shard);

  LoopbackTransportOptions options_;
  // Written once by BindLocalResolver before the first Send; runner threads
  // read it only while handling requests enqueued afterwards (the inbox
  // ring's release/acquire handoff orders the accesses).
  const SessionResolver* resolver_ = nullptr;
  std::vector<std::unique_ptr<Runner>> runners_;

  // Completion queue: runners push serialized responses (ring first, spill
  // under the overflow lock only when full), the coordinator blocks in
  // Receive by spinning then parking.
  SpillQueue outbox_;
  common::Parker out_parker_;

  // Coordinator-side bookkeeping (one thread drives Send/Receive).
  size_t in_flight_ = 0;
  TransportStats stats_;
  // The runner of the last batch sent, and whether that batch is still
  // waiting for its runner's wake or for the coordinator to run it.
  uint32_t last_sent_ = 0;
  bool last_unclaimed_ = false;
};

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_TRANSPORT_H_
