#ifndef EXSAMPLE_QUERY_DETECTOR_SERVICE_H_
#define EXSAMPLE_QUERY_DETECTOR_SERVICE_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "detect/detector.h"
#include "query/prefetch.h"
#include "query/scheduler.h"
#include "query/shard_dispatch.h"
#include "query/transport.h"
#include "query/wire.h"
#include "stats/counter_registry.h"
#include "stats/stage_timer.h"
#include "video/repository.h"

namespace exsample {
namespace query {

/// \brief The detect service's binding to the engine-wide observability
/// registry: a single-writer counter slab, a stage timer for the
/// submit→grant and transport-round-trip histograms, and the
/// pre-registered metric ids. All-null (the default) collects nothing.
/// Written only from the coordinator thread driving the service, per the
/// registry's single-writer contract.
struct ServiceStatsBinding {
  stats::CounterSlab* slab = nullptr;
  stats::StageTimer* timer = nullptr;
  stats::MetricId submits = 0;
  stats::MetricId frames = 0;
  stats::MetricId device_batches = 0;
  stats::MetricId shared_batches = 0;
  stats::MetricId flushes = 0;
  stats::MetricId wire_batches = 0;
  stats::MetricId queue_depth = 0;  // Gauge: frames queued, not yet flushed.

  /// Registers the service metric names and returns a binding over
  /// `slab`/`timer` (either may be null to collect only the other half).
  static ServiceStatsBinding Bind(stats::CounterRegistry* registry,
                                  stats::CounterSlab* slab,
                                  stats::StageTimer* timer);
};

/// \brief When a shard's submission queue is executed.
enum class FlushPolicy {
  /// Only at the driver's round barrier (`Flush`) — every session of the
  /// round submits before anything runs. Maximizes device-batch fill; a
  /// ticket's latency is bounded by the whole round. The default, and
  /// bit-compatible with the pre-policy service.
  kRoundBarrier,
  /// Latency-aware: additionally flush a shard's queue the moment a full
  /// wire batch accumulates (`Submit`), and flush whatever a shard has
  /// queued once its oldest ticket has waited `flush_deadline_seconds`
  /// (checked by `Poll`). Trades fill for bounded ticket latency — the
  /// policy a distributed deployment wants, since a remote shard's device
  /// batch should leave as soon as it is full or stale, not when the
  /// coordinator's round happens to end. Never changes a trace: flush
  /// timing re-packs device batches but detection stays per-frame
  /// deterministic in fixed ticket slots.
  kLatencyAware,
};

/// \brief Coalescing configuration of a `DetectorService`.
struct DetectorServiceOptions {
  /// Target frames per coalesced device batch: a flush slices each shard's
  /// merged queue into wire batches of at most this many frames. The
  /// fill-rate statistic is measured against it ("how full were the device
  /// batches we paid for"), and it is the granularity decode overlaps
  /// detection at. Must be >= 1.
  size_t device_batch = 32;
  /// When a shard's queue is executed (see `FlushPolicy`).
  FlushPolicy flush_policy = FlushPolicy::kRoundBarrier;
  /// Age bound of `FlushPolicy::kLatencyAware`'s deadline trigger, in
  /// wall-clock seconds; 0 leaves only the batch-fill trigger.
  double flush_deadline_seconds = 0.0;
  /// Executes the sliced device batches: every slice crosses this transport
  /// as a wire batch and its response is scattered back by ticket. Null
  /// makes the service build and own a `LocalTransport` over the pools its
  /// constructor takes — in-process execution, through the same wire path.
  /// A caller's transport must outlive the service; the service binds its
  /// session directory to it on construction.
  ShardTransport* transport = nullptr;
  /// Transient-failure budget per wire batch: a failed batch is retried this
  /// many times on its runner, then the runner is marked down and the batch
  /// is requeued onto a surviving shard's runner (`origin_shard` unchanged,
  /// so detections and per-shard accounting are identical). When every
  /// runner is down the service fails sticky — `transport_status()`.
  size_t max_retries = 2;
  /// Fingerprint stamped into every wire request
  /// (`video::VideoRepository::Fingerprint`); 0 disables the runner-side
  /// repository check.
  uint64_t repo_fingerprint = 0;
};

/// \brief Aggregate tallies of a service's coalescing work.
struct DetectorServiceStats {
  /// Session submissions accepted (one per `QueryExecution` step).
  uint64_t requests = 0;
  /// Frames detected through the service.
  uint64_t frames = 0;
  /// Coalesced device batches executed (queue slices, per shard).
  uint64_t device_batches = 0;
  /// Of those, batches holding frames of at least two sessions.
  uint64_t shared_batches = 0;
  /// `Flush` calls that found work.
  uint64_t flushes = 0;
  /// Latency-aware partial flushes: triggered by a full wire batch at
  /// `Submit`, and by the deadline check in `Poll`.
  uint64_t fill_flushes = 0;
  uint64_t deadline_flushes = 0;
  /// Wire batches sent through the transport (first sends; retries and
  /// requeues are counted separately).
  uint64_t wire_batches = 0;
  /// Failed wire batches re-sent to the same runner.
  uint64_t wire_retries = 0;
  /// Failure-driven requeues: batches re-sent to a surviving shard after
  /// their runner exhausted its retries. Extra sends on top of
  /// `wire_batches` (`requests = wire_batches + wire_retries +
  /// wire_requeues` on the transport).
  uint64_t wire_requeues = 0;
  /// Proactive reroutes: *first* sends addressed straight to a survivor
  /// because the origin's runner was already marked down. Counted inside
  /// `wire_batches`, not extra traffic.
  uint64_t wire_reroutes = 0;
  /// Shard runners marked permanently down.
  uint64_t shards_down = 0;
  /// Detector seconds the shard runners reported charging (the sessions'
  /// own accounting is authoritative — this is the runner half, for
  /// observability).
  double wire_charged_seconds = 0.0;
};

/// \brief Shared detect stage: coalesces pending frames from many query
/// sessions into full device batches.
///
/// ExSample's premise is that the detector is the scarce resource; under a
/// concurrent workload, per-session batching under-fills it — a session
/// stepping with batch 8 occupies a 64-frame device batch alone. The service
/// is the cross-session remedy: each session *submits* its picked batch
/// (`Submit`, non-blocking) and yields; once the scheduler has stepped the
/// other sessions of the round, `Flush` merges everything pending into
/// per-shard queues and executes them as device batches of up to
/// `device_batch` frames, routing each frame through *its own session's*
/// detector context (per-query noise streams stay per-query) and scattering
/// results back per request. Results are then collected per session
/// (`Take`), which discriminates and feeds back exactly as before.
///
/// Determinism contract: coalescing never changes a trace. Requests carry
/// monotonically increasing sequence numbers (tickets); a shard queue holds
/// frames in (ticket, batch-position) order, results land in fixed
/// per-request slots, detection is per-frame deterministic per session, and
/// every order-sensitive stage (decode planning, discrimination, belief
/// updates) already ran or runs on the coordinator in session batch order —
/// so the service at any coalesce width, under any flush policy, and over
/// any transport is bit-identical to per-session batching (width 1), which
/// the `sched` and `dist` suites enforce fatally.
///
/// The service is the only way a picked batch reaches a detector: a solo
/// `QueryExecution` steps through a private one (flushed inline), an engine's
/// sessions share the engine's. Every slice crosses a `ShardTransport` —
/// `LocalTransport` in process, `LoopbackTransport` onto per-shard runner
/// threads, `SocketTransport` to shard servers — and every runner executes
/// it with `ExecuteWireRequest`.
///
/// The decode-ahead seam moves with the detect stage: a request's prefetcher
/// keeps decoding on the I/O pools from submit time until the flush that
/// consumes the request — the decode window spans the coalesce window.
/// Before a slice is first sent, the service waits for that slice's frames
/// to finish decoding, in each request's batch order; later slices keep
/// decoding while earlier ones are detected, on every transport.
///
/// **Transport boundary.** The per-shard queues are the distribution seam:
/// every sliced device batch crosses the transport as a wire request and its
/// response is scattered back by wire sequence number — completions may
/// arrive in any order, because results land in fixed ticket slots either
/// way. Failed
/// batches are retried `max_retries` times, then requeued onto a surviving
/// shard's runner with `origin_shard` (and therefore the serving detector
/// contexts and the charged seconds) unchanged; when every runner is down
/// the service goes sticky-failed (`transport_status()`) and `CancelPending`
/// releases whatever could not complete, so the driver can surface the error
/// instead of hanging.
///
/// One coordinator thread drives the service (Submit/Poll/Flush/Take); only
/// the per-frame detect fan-out and the shard runners run elsewhere.
class DetectorService {
 public:
  using Ticket = uint64_t;

  /// One session's pending detect work. Spans must stay valid until the
  /// request's results are taken; the pointees must outlive the flush.
  /// Under cross-query reuse (`RunnerOptions::reuse`) the submitting runner
  /// has already filtered its batch: only cache/sketch *misses* arrive here,
  /// so coalesced device batches never spend capacity on frames whose
  /// detections are already known.
  struct DetectRequest {
    /// Stable identity of the submitting session. Used for shared-batch
    /// stats attribution and, over a transport, as the wire id the shard
    /// runners resolve the session's detectors by — it must then be unique
    /// per live session (`SearchEngine` hands every session a fresh one).
    uint64_t session_id = 0;
    /// Frames to detect, in the session's batch order.
    common::Span<const video::FrameId> frames;
    /// Owning shard per frame (parallel to `frames`); empty means every
    /// frame belongs to shard 0 (unsharded execution).
    common::Span<const uint32_t> shards;
    /// The session's detector (unsharded sessions). Ignored when
    /// `dispatcher` is set.
    detect::ObjectDetector* detector = nullptr;
    /// The configuration the session's detectors were built from. Shipped in
    /// the session's `RegisterSessionMsg` on first submit: a remote runner
    /// materializes an equivalent detector from it (`SimulatedDetector` is a
    /// pure function of ground truth + options), where the in-process
    /// transports resolve the pointers above.
    detect::DetectorOptions detector_options;
    /// The session's shard dispatcher: per-shard detectors + stats. When
    /// set, each frame is detected by `dispatcher->Context(shard).detector`
    /// and the flush books the frames into the dispatcher's per-shard stats
    /// (`RecordServiceDetect`).
    ShardDispatcher* dispatcher = nullptr;
    /// The session's decode prefetcher, whose current batch is `frames`.
    /// Before a slice holding frame `i` of this request is first sent, the
    /// service waits for frames `0..i` to finish decoding (`WaitThrough`).
    /// Null when the session does not decode.
    DecodePrefetcher* prefetcher = nullptr;
    /// The session's scheduler/coalescing tallies; updated at flush time.
    SessionSchedulerStats* session_stats = nullptr;
  };

  /// `num_shards` fixes the submission-queue fan-out (1 for unsharded
  /// engines). Without `options.transport`, the service's own
  /// `LocalTransport` runs each shard's device batches over `pools[shard]`
  /// (when `pools` is non-empty, one entry per shard) or else
  /// `default_pool`, inline when both are null. With a transport, execution
  /// happens runner-side and the pools are not used.
  DetectorService(DetectorServiceOptions options, size_t num_shards = 1,
                  std::vector<common::ThreadPool*> pools = {},
                  common::ThreadPool* default_pool = nullptr);

  /// \brief Enqueues a session's batch and returns its ticket. Non-blocking
  /// under the barrier policy; the latency-aware policy may execute shard
  /// queues that reached a full wire batch before returning. A service whose
  /// transport already failed queues nothing: the ticket never becomes ready.
  Ticket Submit(const DetectRequest& request);

  /// \brief Latency-aware housekeeping: executes any shard queue whose
  /// oldest ticket has waited past `flush_deadline_seconds`. No-op under
  /// the barrier policy (or with no deadline configured) — drivers can call
  /// it unconditionally between steps.
  void Poll();

  /// \brief Executes everything pending as coalesced per-shard device
  /// batches and makes every submitted request's results available to
  /// `Take`. No-op when nothing is pending.
  void Flush();

  /// \brief True when `ticket` has been flushed and its results are waiting.
  bool Ready(Ticket ticket) const;

  /// \brief Returns (and releases) the detections of a flushed request;
  /// result `i` corresponds to `frames[i]` of the submitted batch. Fatal if
  /// the ticket was never submitted or not yet flushed.
  std::vector<detect::Detections> Take(Ticket ticket);

  /// \brief OK until the transport permanently fails (every shard runner
  /// down, or an unrecoverable wire error); then the sticky error. Drivers
  /// must check after flushing and abandon the workload on failure — pending
  /// tickets are cancelled, never completed.
  const common::Status& transport_status() const { return transport_status_; }

  /// \brief Abandons the whole workload: drops every queued and in-flight
  /// request (their spans are released; their tickets will never become
  /// ready) **and** every completed-but-untaken result — after a cancel,
  /// `Take` is fatal for any outstanding ticket. Called internally on
  /// permanent transport failure; drivers call it when abandoning a
  /// workload mid-step so the service holds no stale spans.
  void CancelPending();

  /// \brief Frames currently queued and not yet flushed.
  size_t PendingFrames() const { return pending_frames_; }

  const DetectorServiceOptions& options() const { return options_; }
  const DetectorServiceStats& stats() const { return stats_; }

  /// \brief Wall-clock seconds from `Submit` to completed flush, one entry
  /// per completed ticket in completion order — the latency the flush
  /// policy trades fill against (`bench_dist_transport` gates on its p95).
  /// Bounded on a long-lived service: only the most recent
  /// `kTicketLatencyCap` completions are retained.
  const std::vector<double>& TicketLatencies() const { return ticket_latencies_; }

  /// \brief Retention bound of `TicketLatencies` (far above any single
  /// workload; an engine-lifetime service must not grow without bound).
  static constexpr size_t kTicketLatencyCap = size_t{1} << 16;

  /// \brief Forgets a session's wire registrations — the local directory
  /// entries hold raw detector pointers, which dangle once the session dies,
  /// and the transport's runners are told to drop their deployed state.
  /// Called on every session exit path (`Finish`, `AbortPendingStep`,
  /// `Terminate`) — deliberately never from a destructor, so a session object
  /// that outlives its engine stays destructible. Idempotent; no-op for ids
  /// never registered.
  void UnregisterSession(uint64_t session_id);

  /// \brief Mean fill of the device batches paid for so far:
  /// frames / (device_batches * device_batch). 0 before the first flush.
  double FillRate() const;

  /// \brief Attaches (or detaches, with a default-constructed binding) the
  /// observability sinks. Call from the coordinator thread, between steps.
  void BindStats(const ServiceStatsBinding& binding) { stats_binding_ = binding; }

  /// \brief The runner-side session directory (wire id -> detector context)
  /// the service maintains for its transport. Exposed for tests.
  const SessionDirectory& directory() const { return directory_; }

 private:
  /// One submitted request, in a slot table: a ticket's low `kSlotBits`
  /// bits name its slot, the serial above them keeps tickets unique and
  /// increasing.
  struct PendingRequest {
    Ticket ticket = 0;  // 0: the slot is free.
    DetectRequest request;
    std::vector<detect::Detections> results;  // Slot per frame, filled at flush.
    size_t remaining = 0;         // Frames not yet detected (any shard).
    double submit_seconds = 0.0;  // Wall clock at Submit, for latency stats.
    bool ready = false;           // Every frame detected; awaiting Take.
  };
  static constexpr unsigned kSlotBits = 24;
  /// One queued frame: where it came from (ticket t, batch position i).
  struct QueueEntry {
    Ticket ticket = 0;
    size_t frame_index = 0;
  };
  /// One extracted frame of a flush, its request resolved once.
  struct WorkItem {
    PendingRequest* request = nullptr;
    size_t frame_index = 0;
  };
  /// One shard's extracted frames: `items_[begin, end)`.
  struct ShardWork {
    uint32_t shard = 0;
    size_t begin = 0;
    size_t end = 0;
  };
  /// One device-batch slice, `items_[begin, end)`, and its wire state.
  struct Slice {
    uint32_t origin_shard = 0;
    uint32_t runner = 0;
    size_t begin = 0;
    size_t end = 0;
    uint64_t wire_seq = 0;
    double send_seconds = 0.0;  // Wall clock at (re)send: round-trip stats.
    uint32_t attempt = 0;       // Cumulative across runners (wire field).
    // Failures on the current runner only: a requeued batch gets a fresh
    // retry budget, so one blip on its survivor cannot mark that down too.
    uint32_t runner_attempts = 0;
    bool in_flight = false;
  };
  enum class FlushReason { kBarrier, kFill, kDeadline };

  /// The request a live ticket names; null once taken or cancelled.
  PendingRequest* Find(Ticket ticket) const;
  void Release(PendingRequest* request);  // Frees the request's slot.

  /// Extracts and executes the shard queues `reason` selects: every
  /// non-empty queue (barrier), every queue whose oldest ticket is past the
  /// deadline (deadline), or the whole `device_batch` slices of every full
  /// queue (fill — a partial tail keeps waiting). Runs execution over the
  /// transport, slice bookkeeping, and request completion.
  void FlushShards(FlushReason reason);

  /// Sends every slice of the extracted work as a wire batch — each after
  /// its frames finished decoding — then receives completions in arrival
  /// order, retrying and requeueing failures. Sets `transport_status_` (and
  /// cancels everything pending) on permanent failure.
  void SendAndCollect();

  /// Builds `slice`'s wire request and sends it to `slice.runner`.
  void SendSlice(Slice& slice);

  /// Where wire round trips are timed: over a caller's transport only. In
  /// process the round trip is the detection itself, which sessions time as
  /// their detect stage, and a clock read is not free on a one-frame step.
  stats::StageTimer* RoundTripTimer() const {
    return owned_transport_ == nullptr ? stats_binding_.timer : nullptr;
  }

  /// Deterministic per-slice bookkeeping of one shard's extracted work.
  void BookSlices(const ShardWork& work);

  /// Picks the runner for `origin`'s batches: `origin` itself while its
  /// runner is up, else the next surviving shard. Returns false — leaving
  /// `*runner` untouched — when every runner is down.
  bool RouteShard(uint32_t origin, uint32_t* runner) const;

  DetectorServiceOptions options_;  // `transport` is never null.
  // The in-process transport built when the caller's options named none.
  std::unique_ptr<ShardTransport> owned_transport_;

  std::vector<PendingRequest> requests_;  // Slot table; see PendingRequest.
  std::vector<uint32_t> free_slots_;
  Ticket next_serial_ = 1;
  std::vector<std::vector<QueueEntry>> queues_;  // Per shard.
  size_t pending_frames_ = 0;
  uint64_t next_wire_seq_ = 1;
  std::vector<bool> shard_down_;       // Runners marked permanently failed.
  common::Status transport_status_;    // Sticky; OK while the fleet serves.
  SessionDirectory directory_;         // Runner-side id -> detector registry.
  std::unordered_set<uint64_t> registered_sessions_;
  std::vector<double> ticket_latencies_;
  DetectorServiceStats stats_;
  ServiceStatsBinding stats_binding_;

  // Per-flush scratch, kept so a steady-state flush allocates nothing.
  std::vector<WorkItem> items_;
  std::vector<ShardWork> work_;
  std::vector<Slice> slices_;
  std::vector<const PendingRequest*> in_slice_;
  DetectRequestMsg msg_;
};

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_DETECTOR_SERVICE_H_
