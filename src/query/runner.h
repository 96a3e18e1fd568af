#ifndef EXSAMPLE_QUERY_RUNNER_H_
#define EXSAMPLE_QUERY_RUNNER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "detect/detector.h"
#include "query/detector_service.h"
#include "query/prefetch.h"
#include "query/scheduler.h"
#include "query/shard_dispatch.h"
#include "query/shard_trace.h"
#include "query/strategy.h"
#include "query/trace.h"
#include "reuse/reuse.h"
#include "scene/ground_truth.h"
#include "stats/counter_registry.h"
#include "stats/stage_timer.h"
#include "track/discriminator.h"
#include "video/decode.h"

namespace exsample {
namespace query {

/// \brief A query execution's binding to the engine-wide observability
/// registry: a single-writer counter slab, the session's stage-latency
/// timer, and the pre-registered metric ids the execution ticks.
///
/// All-null (the default) disables collection — every hot-path site then
/// costs one pointer test. The slab and timer must be written from the
/// session's coordinator thread only (the thread calling
/// `BeginStep`/`FinishStep`), which is the registry's single-writer
/// contract. `Finish` retires the slab into `registry`, which owns it.
struct ExecutionStatsBinding {
  stats::CounterRegistry* registry = nullptr;
  stats::CounterSlab* slab = nullptr;
  stats::StageTimer* timer = nullptr;
  stats::MetricId steps = 0;
  stats::MetricId frames_picked = 0;
  stats::MetricId frames_reused = 0;
  stats::MetricId frames_detected = 0;
  stats::MetricId results_reported = 0;

  /// Registers the execution metric names and returns a binding over
  /// `slab`/`timer` (either may be null to collect only the other half).
  static ExecutionStatsBinding Bind(stats::CounterRegistry* registry,
                                    stats::CounterSlab* slab,
                                    stats::StageTimer* timer);
};

/// \brief Default cost constants from the paper's measurements (Sec. V-B):
/// detector-bound sampling runs at ~20 fps; proxy scoring scans at ~100 fps
/// (bound by io+decode).
inline constexpr double kDetectorFps = 20.0;
inline constexpr double kProxyScanFps = 100.0;

/// \brief Stop conditions and bookkeeping options for a query execution.
struct RunnerOptions {
  /// Stop once the discriminator has returned this many results ("find 20
  /// traffic lights"). Counts *reported* results, as a real system would.
  uint64_t result_limit = std::numeric_limits<uint64_t>::max();
  /// Stop once this many ground-truth distinct instances have been found
  /// (used to measure time-to-recall; a real system cannot observe this).
  uint64_t true_distinct_target = std::numeric_limits<uint64_t>::max();
  /// Safety cap on detector invocations.
  uint64_t max_samples = std::numeric_limits<uint64_t>::max();
  /// Class whose instances define recall (kAllClasses = every instance).
  int32_t recall_class = scene::GroundTruth::kAllClasses;
  /// When non-null, frame reads are routed through this store and its decode
  /// cost is added to the trace's seconds.
  video::SimulatedVideoStore* video_store = nullptr;
  /// Frames pulled from the strategy (and pushed through the detector) per
  /// pipeline iteration (Sec. III-F). 1 reproduces the single-frame loop of
  /// Algorithm 1 exactly — including bit-identical cost accounting.
  size_t batch_size = 1;
  /// When non-null (and no `detector_service` is set), the execution's
  /// private detect service fans each device batch across this pool. Thread
  /// count affects wall-clock only, never the trace: simulated cost
  /// accounting stays per-frame and detection is per-frame deterministic.
  common::ThreadPool* thread_pool = nullptr;
  /// When non-null, the repository is sharded: the decode and detect stages
  /// route every picked frame to its owning shard's context (detector, store,
  /// pool) instead of the query-global `detector`/`video_store`/`thread_pool`
  /// above — the detect service queues each frame on its owning shard — and
  /// the execution records per-shard partial traces that `Finish`
  /// merges into the returned global trace. Detect routing never changes a
  /// trace (shard detectors are per-frame deterministic and discrimination
  /// stays sequential in batch order) — the shard equivalence suite enforces
  /// bit-identity against the unsharded run for the configurations
  /// `SearchEngine` wires up (no stores, or one shared `video_store`). The
  /// exception is *per-shard* stores (`ShardDispatcher::HasStores()`): each
  /// shard then keeps its own decode position state, which by design prices
  /// sequential-read locality per shard and so can change `seconds` relative
  /// to a single global store. The query-global `detector` may be null when a
  /// dispatcher is set.
  ShardDispatcher* shard_dispatcher = nullptr;
  /// Decode-ahead window of the pipelined decode stage (the pick → prefetch →
  /// detect → discriminate loop). Whenever a decode store is configured
  /// (`video_store`, or per-shard stores on the dispatcher), the execution
  /// routes every read through a `DecodePrefetcher`; with depth 0 (the
  /// default) the prefetcher runs synchronously — plan + perform inline
  /// before the detect stage, the legacy schedule. Depth d >= 1 performs the
  /// decode work on `decode_pool` while the detect service consumes the
  /// batch slice by slice, keeping at most d frames decoded ahead — decode
  /// of slice w+1 overlaps detection of slice w. Like thread count, depth
  /// changes wall-clock only, never a trace: charges are planned in batch
  /// order on the coordinator (enforced bit-identical by the decode suite).
  size_t prefetch_depth = 0;
  /// Pool the prefetcher's decode work runs on. Null shares `thread_pool`.
  /// Sharded executions prefer each shard's `ShardContext::io_pool`.
  common::ThreadPool* decode_pool = nullptr;
  /// The detect service every step submits its picked batch to: `BeginStep`
  /// enqueues the batch and `FinishStep` collects the detections after a
  /// `Flush` coalesced every pending session's frames into device batches.
  /// Null builds a private service over `thread_pool` (or the dispatcher's
  /// `ShardContext::pool`s) whose device batch is the whole batch, or
  /// max(`prefetch_depth`, pool threads) under decode overlap. Coalescing
  /// never changes a trace — detection is per-frame deterministic per
  /// session and every order-sensitive stage stays on the coordinator in
  /// batch order (the `sched` suite enforces bit-identity against solo runs).
  DetectorService* detector_service = nullptr;
  /// Stable identity of this execution's session for the service's
  /// stats attribution (which device batches were shared across sessions).
  uint64_t service_session_id = 0;
  /// Detector configuration shipped to remote shard workers in this session's
  /// `RegisterSessionMsg` (first submit). In-process transports resolve
  /// detectors through the runner-side directory and ignore it; a socket
  /// transport materializes an equivalent detector on the worker from exactly
  /// these options, so they must match the detector the session was built
  /// with or remote traces diverge.
  detect::DetectorOptions detector_options;
  /// Optional scheduler/coalescing tallies for this session, filled in by
  /// the service at flush time (`frames_submitted`, `frames_coalesced`,
  /// `batches_shared`); the driver counts `steps_granted`.
  SessionSchedulerStats* session_stats = nullptr;
  /// When non-null, the detect stage consults cross-query reuse before
  /// paying for detection: every picked frame is classified against the
  /// shared `reuse::DetectionCache` (exact stored detections, bit-identical
  /// to a real call) and `reuse::ScannedSketch` (proof the frame was scanned
  /// and found empty). Hits and skips are charged *zero* detector seconds —
  /// credited to `ReuseSessionStats::saved_detector_seconds` instead — and
  /// only the remaining misses are decoded, submitted to the service, or
  /// detected locally; their fresh outcomes are recorded back. Everything
  /// order-sensitive is untouched: the full picked batch still flows through
  /// the discriminator and strategy feedback in batch order, with hit/skip
  /// detections byte-equal to what a cold run computes — so reused answers
  /// are bit-identical and only the charged seconds shrink. Null (the
  /// default) is the pre-reuse execution, bit for bit.
  reuse::SessionReuse* reuse = nullptr;
  /// Observability binding (counters + per-stage latency histograms). The
  /// default (all null) collects nothing; either way the trace is
  /// bit-identical — stats are tallied beside the pipeline, never inside
  /// its accounting (`bench_observability` exit-enforces both halves).
  ExecutionStatsBinding stats;
};

/// \brief Incremental execution state of one distinct-object query.
///
/// Runs Algorithm 1 as a batch pipeline: pick-batch (strategy) → prefetch
/// (async decode on the pool, bounded window) → detect (submitted to the
/// `DetectorService`, which sends the batch slice by slice so decode
/// overlaps detection) → sequential-discriminate → feed back
/// (`ObserveBatch`). One `Step` processes
/// one batch; interleaving `Step` calls of several executions is how the
/// engine serves concurrent queries over shared resources
/// (`SearchEngine::RunConcurrent`).
///
/// Cost accounting is simulated and sequential — each frame is charged
/// decode + detector seconds as if processed alone — so traces are
/// comparable across batch sizes and thread counts, and `batch_size=1`
/// matches the legacy single-frame loop bit for bit.
class QueryExecution {
 public:
  /// All pointees must outlive the execution. `detector` may be null only
  /// when `options.shard_dispatcher` is set (detection is then routed to the
  /// owning shards' detectors).
  QueryExecution(const scene::GroundTruth* truth, detect::ObjectDetector* detector,
                 track::Discriminator* discriminator, SearchStrategy* strategy,
                 RunnerOptions options);

  /// \brief Processes one batch. Returns false — without consuming anything —
  /// when the query is finished (stop condition hit or strategy exhausted).
  /// `BeginStep()` + service flush (timed as the detect stage) +
  /// `FinishStep()`. When the flush finds the detect transport failed, the
  /// step is abandoned as `AbortPendingStep` does and false is returned;
  /// `status()` then holds the failure.
  bool Step();

  /// \brief First half of a step: picks the next batch, charges strategy
  /// overhead and decode (planned in batch order), and submits the detect
  /// work to the detect service. Returns false — without consuming
  /// anything — when the query is finished. After a true return the
  /// execution is *pending* (`DetectPending()`): the caller must complete
  /// the step with `FinishStep` (after flushing the service) before
  /// beginning another.
  ///
  /// This is the yield point cross-session coalescing needs: a scheduler
  /// begins several sessions' steps, the shared service flushes them as full
  /// device batches, and each session then finishes its step.
  bool BeginStep();

  /// \brief Second half of a step: collects the batch's detections from the
  /// service (which must have been flushed), discriminates in batch order,
  /// and feeds the strategy back. Fatal unless a `BeginStep` is pending.
  void FinishStep();

  /// \brief True between a successful `BeginStep` and its `FinishStep`.
  bool DetectPending() const { return pending_detect_; }

  /// \brief Abandons a begun step whose detections will never arrive — the
  /// shared service's transport failed permanently and cancelled its pending
  /// tickets. Drains the prefetcher (decode tasks hold spans into the
  /// abandoned batch) and marks the execution finished: the strategy already
  /// consumed the batch's frames, so the query cannot legally continue. The
  /// trace ends at the last completed step. Either way the session's wire
  /// registration is withdrawn and its counter slab retired, as `Finish`
  /// does, and `status()` takes the service's transport failure.
  void AbortPendingStep();

  /// \brief Administrative termination between steps: marks the execution
  /// finished so no further `Step` begins work. The serving layer's load
  /// shedder uses this to cancel a best-effort query under detector
  /// saturation; the trace ends at the last completed step, and `Finish`
  /// still finalizes (and unregisters) normally. Fatal while a step is
  /// pending — a shedder must only cancel quiescent sessions (at wave
  /// boundaries nothing is pending), because a pending service ticket has no
  /// owner to collect it after termination.
  void Terminate();

  /// \brief True once no further `Step` will make progress.
  bool Done() const { return finished_; }

  /// \brief OK unless a step was abandoned because the detect transport
  /// failed; then that failure, and the trace ends at the last completed
  /// step.
  const common::Status& status() const { return status_; }

  /// \brief Runs to completion and returns the finalized trace.
  QueryTrace Finish();

  /// \brief The trace accumulated so far. `final` tracks the last completed
  /// batch; `Finish` appends the closing point.
  const QueryTrace& trace() const { return trace_; }

  /// \brief The per-shard partial traces of a sharded execution (empty when
  /// `options.shard_dispatcher` is null). Part 0 is the coordinator
  /// (`kCoordinatorShard`: upfront cost, strategy overhead); part 1 + s is
  /// shard s. `Finish` merges these into the returned trace.
  const std::vector<ShardTracePart>& ShardParts() const { return parts_; }

  /// \brief The execution's decode prefetcher, or null when no decode store
  /// is configured. Exposes decode-ahead stats for observability.
  const DecodePrefetcher* prefetcher() const { return prefetcher_.get(); }

 private:
  bool StopConditionHit() const;
  /// Hands the counter slab back to the registry: its ticks join the retired
  /// totals and the slab is freed, so an engine holds slabs for live queries
  /// only. Unhooked first — nothing may tick it afterwards. Idempotent.
  void RetireStatsSlab();
  void RecordEvent(size_t part, double seconds, uint32_t samples, uint32_t reported,
                   uint32_t distinct, bool emit_point);
  /// Second half of a step, after an optional inline service flush:
  /// collects the detections, discriminates in batch order, feeds the
  /// strategy back. Returns false when the transport failed and the step
  /// was abandoned instead.
  bool CompleteStep(bool flush);

  const scene::GroundTruth* truth_;
  detect::ObjectDetector* detector_;
  track::Discriminator* discriminator_;
  SearchStrategy* strategy_;
  RunnerOptions options_;
  // The detect service every step submits to: `options_.detector_service`,
  // or `owned_service_` when the options named none.
  DetectorService* service_ = nullptr;
  std::unique_ptr<DetectorService> owned_service_;
  common::Status status_;

  QueryTrace trace_;
  DiscoveryPoint current_;
  // Pipelined decode stage; null when the execution has no decode store.
  std::unique_ptr<DecodePrefetcher> prefetcher_;
  std::unordered_set<scene::InstanceId> found_;
  std::vector<FrameFeedback> feedback_;  // Reused per batch.
  std::vector<uint32_t> frame_shards_;   // Owner per batch frame; sharded only.
  std::vector<ShardTracePart> parts_;    // Sharded runs only.
  // The in-flight batch between BeginStep and FinishStep. `pending_frames_`
  // must stay stable while pending: the service (and the prefetcher) hold
  // spans into it.
  std::vector<video::FrameId> pending_frames_;
  // Reuse classification of the in-flight batch (`options_.reuse` only):
  // per-frame outcomes parallel to `pending_frames_`, the reused detections
  // for hits/skips, and the miss subset — which is what actually gets
  // decoded/submitted/detected. `miss_frames_` must stay span-stable while
  // pending, exactly like `pending_frames_`.
  std::vector<reuse::SessionReuse::Outcome> reuse_outcomes_;
  std::vector<detect::Detections> reuse_detections_;
  std::vector<video::FrameId> miss_frames_;
  std::vector<uint32_t> miss_shards_;
  DetectorService::Ticket pending_ticket_ = 0;  // 0: nothing submitted.
  bool pending_detect_ = false;
  uint64_t next_seq_ = 0;
  double charged_overhead_ = 0.0;
  bool finished_ = false;
  bool finalized_ = false;
};

/// \brief Executes one distinct-object query: the shared loop of Algorithm 1
/// (pick frames / detect / discriminate / update), parameterized by the
/// frame-selection strategy.
///
/// The runner is what makes comparisons fair: every strategy pays the same
/// detector cost per sampled frame and uses the same discriminator semantics;
/// only frame choice (and any upfront scan cost) differs.
class QueryRunner {
 public:
  QueryRunner(const scene::GroundTruth* truth, detect::ObjectDetector* detector,
              track::Discriminator* discriminator, RunnerOptions options);

  /// \brief Runs `strategy` until a stop condition triggers; returns the
  /// discovery trace. Uses the batch pipeline with `options.batch_size` /
  /// `options.thread_pool`.
  QueryTrace Run(SearchStrategy* strategy);

  /// \brief The pre-batching reference implementation: a strictly
  /// single-frame pull loop over `NextFrame`/`Observe`, ignoring
  /// `batch_size`/`thread_pool`. Kept as the equivalence baseline the batch
  /// pipeline is tested against (batch_size=1 must be bit-identical).
  QueryTrace RunSingleFrame(SearchStrategy* strategy);

 private:
  const scene::GroundTruth* truth_;
  detect::ObjectDetector* detector_;
  track::Discriminator* discriminator_;
  RunnerOptions options_;
};

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_RUNNER_H_
