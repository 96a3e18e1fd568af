#include "query/runner.h"

#include <algorithm>

namespace exsample {
namespace query {

namespace {

/// Applies one frame's d0 detections to the recall counters. Shared between
/// the batch pipeline and the single-frame reference loop so their
/// bookkeeping cannot drift apart.
bool CountNewDistinct(const track::MatchResult& result, const RunnerOptions& options,
                      std::unordered_set<scene::InstanceId>* found,
                      DiscoveryPoint* current) {
  bool changed = false;
  for (const detect::Detection& det : result.d0) {
    if (!det.IsTruePositive()) continue;
    // Only instances of the recall class count toward true recall;
    // off-class detections can occur when the detector is not class-
    // filtered.
    if (options.recall_class != scene::GroundTruth::kAllClasses &&
        det.class_id != options.recall_class) {
      continue;
    }
    if (found->insert(det.source_instance).second) {
      ++current->true_distinct;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

ExecutionStatsBinding ExecutionStatsBinding::Bind(stats::CounterRegistry* registry,
                                                  stats::CounterSlab* slab,
                                                  stats::StageTimer* timer) {
  ExecutionStatsBinding binding;
  binding.registry = registry;
  binding.slab = slab;
  binding.timer = timer;
  binding.steps = registry->RegisterCounter("execution.steps");
  binding.frames_picked = registry->RegisterCounter("execution.frames_picked");
  binding.frames_reused = registry->RegisterCounter("execution.frames_reused");
  binding.frames_detected = registry->RegisterCounter("execution.frames_detected");
  binding.results_reported =
      registry->RegisterCounter("execution.results_reported");
  return binding;
}

QueryExecution::QueryExecution(const scene::GroundTruth* truth,
                               detect::ObjectDetector* detector,
                               track::Discriminator* discriminator,
                               SearchStrategy* strategy, RunnerOptions options)
    : truth_(truth),
      detector_(detector),
      discriminator_(discriminator),
      strategy_(strategy),
      options_(options) {
  common::Check(detector_ != nullptr || options_.shard_dispatcher != nullptr,
                "query execution needs a detector or a shard dispatcher");
  // Every decode call site routes through the prefetcher. Depth 0 keeps the
  // synchronous schedule (plan + perform inline, in batch order); depth >= 1
  // overlaps the decode work with the detect stage. Either way the charges
  // are planned in batch order, so the trace cannot depend on the depth.
  PrefetchOptions prefetch_options;
  prefetch_options.depth = options_.prefetch_depth;
  common::ThreadPool* decode_pool =
      options_.decode_pool != nullptr ? options_.decode_pool : options_.thread_pool;
  if (options_.shard_dispatcher != nullptr && options_.shard_dispatcher->HasStores()) {
    prefetcher_ = std::make_unique<DecodePrefetcher>(options_.shard_dispatcher,
                                                     decode_pool, prefetch_options);
  } else if (options_.video_store != nullptr) {
    prefetcher_ = std::make_unique<DecodePrefetcher>(options_.video_store,
                                                     decode_pool, prefetch_options);
  }
  // Without a shared service, steps go through a private one whose device
  // batch is the detect window: the whole batch without decode overlap, else
  // max(depth, detect parallelism) — a smaller window would serialize
  // latency-bound detect calls the full batch fans out.
  service_ = options_.detector_service;
  if (service_ == nullptr) {
    ShardDispatcher* dispatcher = options_.shard_dispatcher;
    std::vector<common::ThreadPool*> pools;
    size_t parallelism =
        options_.thread_pool != nullptr ? options_.thread_pool->NumThreads() : 1;
    if (dispatcher != nullptr) {
      for (uint32_t s = 0; s < dispatcher->NumShards(); ++s) {
        common::ThreadPool* pool = dispatcher->Context(s).pool;
        pools.push_back(pool);
        if (pool != nullptr) parallelism = std::max(parallelism, pool->NumThreads());
      }
    }
    DetectorServiceOptions service_options;
    service_options.device_batch =
        prefetcher_ == nullptr || prefetcher_->depth() == 0
            ? std::max<size_t>(1, options_.batch_size)
            : std::max(prefetcher_->depth(), parallelism);
    owned_service_ = std::make_unique<DetectorService>(
        service_options, dispatcher != nullptr ? dispatcher->NumShards() : 1,
        std::move(pools), dispatcher != nullptr ? nullptr : options_.thread_pool);
    service_ = owned_service_.get();
  }
  trace_.strategy_name = strategy_->name();
  trace_.total_instances = truth_->NumInstances(options_.recall_class);
  current_.seconds = strategy_->UpfrontCostSeconds();
  trace_.points.push_back(current_);
  if (options_.shard_dispatcher != nullptr) {
    // Partial traces: part 0 is the coordinator, part 1 + s is shard s. The
    // upfront cost belongs to the coordinator (a proxy scan happens before
    // any frame is routed anywhere) and opens the trace, mirroring the
    // initial point pushed above.
    parts_.resize(1 + options_.shard_dispatcher->NumShards());
    parts_[0].shard_id = kCoordinatorShard;
    for (size_t s = 0; s < options_.shard_dispatcher->NumShards(); ++s) {
      parts_[1 + s].shard_id = static_cast<int32_t>(s);
    }
    RecordEvent(0, current_.seconds, 0, 0, 0, /*emit_point=*/true);
  }
}

void QueryExecution::RecordEvent(size_t part, double seconds, uint32_t samples,
                                 uint32_t reported, uint32_t distinct,
                                 bool emit_point) {
  ShardTraceEvent event;
  event.seq = next_seq_++;
  event.seconds = seconds;
  event.samples = samples;
  event.reported = reported;
  event.distinct = distinct;
  event.emit_point = emit_point;
  parts_[part].events.push_back(event);
}

bool QueryExecution::StopConditionHit() const {
  return current_.samples >= options_.max_samples ||
         current_.reported_results >= options_.result_limit ||
         current_.true_distinct >= options_.true_distinct_target;
}

bool QueryExecution::BeginStep() {
  common::Check(!pending_detect_, "BeginStep while a step is already pending");
  if (finished_) return false;
  if (StopConditionHit()) {
    finished_ = true;
    return false;
  }

  // Never draw past the sample cap: frames handed out by the strategy are
  // consumed (without-replacement), so over-drawing would waste them.
  const uint64_t samples_left = options_.max_samples - current_.samples;
  const size_t want = static_cast<size_t>(
      std::min<uint64_t>(std::max<size_t>(1, options_.batch_size), samples_left));
  {
    stats::StageTimer::Scoped pick_timer(options_.stats.timer,
                                         stats::Stage::kPick);
    pending_frames_ = strategy_->NextBatch(want);
  }
  if (pending_frames_.empty()) {
    finished_ = true;
    return false;
  }
  stats::SlabAdd(options_.stats.slab, options_.stats.steps);
  stats::SlabAdd(options_.stats.slab, options_.stats.frames_picked,
                 pending_frames_.size());

  ShardDispatcher* dispatcher = options_.shard_dispatcher;

  // Resolve each frame's owning shard once per batch; decode attribution,
  // detect dispatch, and per-frame accounting below all reuse it.
  if (dispatcher != nullptr) {
    frame_shards_.clear();
    for (const video::FrameId frame : pending_frames_) {
      frame_shards_.push_back(dispatcher->ShardOfFrame(frame));
    }
  }

  // Charge any incremental strategy overhead (e.g. lazy proxy scoring)
  // accrued while choosing this batch. Overhead is the coordinator's: it is
  // paid choosing frames, before any shard is involved.
  const double overhead = strategy_->CumulativeOverheadSeconds();
  current_.seconds += overhead - charged_overhead_;
  if (dispatcher != nullptr) {
    RecordEvent(0, overhead - charged_overhead_, 0, 0, 0, false);
  }
  charged_overhead_ = overhead;

  // Cross-query reuse: classify the picked batch before anything is paid
  // for. Hits carry their exact cached detections and skips a proven-empty
  // list; only the remaining misses flow into the decode and detect stages
  // below. The *full* batch stays in `pending_frames_` — discrimination and
  // strategy feedback consume it in batch order in FinishStep, so reuse
  // changes which frames are paid for, never what any stage observes.
  const bool reusing = options_.reuse != nullptr;
  if (reusing) {
    stats::StageTimer::Scoped classify_timer(options_.stats.timer,
                                             stats::Stage::kClassify);
    reuse_outcomes_.clear();
    reuse_detections_.assign(pending_frames_.size(), detect::Detections());
    miss_frames_.clear();
    miss_shards_.clear();
    for (size_t i = 0; i < pending_frames_.size(); ++i) {
      const reuse::SessionReuse::Outcome outcome =
          options_.reuse->Classify(pending_frames_[i], &reuse_detections_[i]);
      reuse_outcomes_.push_back(outcome);
      if (outcome == reuse::SessionReuse::Outcome::kMiss) {
        miss_frames_.push_back(pending_frames_[i]);
        if (dispatcher != nullptr) miss_shards_.push_back(frame_shards_[i]);
      }
    }
    stats::SlabAdd(options_.stats.slab, options_.stats.frames_reused,
                   pending_frames_.size() - miss_frames_.size());
  }
  const std::vector<video::FrameId>& detect_frames =
      reusing ? miss_frames_ : pending_frames_;
  const std::vector<uint32_t>& detect_shards = reusing ? miss_shards_ : frame_shards_;

  // Decode stage, behind the prefetcher. Charged up front for the batch's
  // detect set (reused frames never decode: their outcome is already known):
  // the prefetcher plans every read now, in batch order — per-shard stores
  // plan on the owning shard (each shard keeps its own position state),
  // otherwise the query-global store is used and the cost is still
  // attributed to the owning shard's partial trace. The decode *work* runs
  // asynchronously until the service flush waits for each slice's frames,
  // so the decode-ahead window spans the whole coalesce window.
  if (prefetcher_ != nullptr && !detect_frames.empty()) {
    stats::StageTimer::Scoped decode_timer(options_.stats.timer,
                                           stats::Stage::kDecode);
    const bool sharded_stores = dispatcher != nullptr && dispatcher->HasStores();
    const std::vector<double>& charges = prefetcher_->SubmitBatch(
        detect_frames, sharded_stores
                           ? common::Span<const uint32_t>(detect_shards.data(),
                                                          detect_shards.size())
                           : common::Span<const uint32_t>());
    for (size_t i = 0; i < detect_frames.size(); ++i) {
      current_.seconds += charges[i];
      if (dispatcher != nullptr) {
        RecordEvent(1 + detect_shards[i], charges[i], 0, 0, 0, false);
      }
    }
  }

  // Submit the detect work: the batch's detect set is merged with whatever
  // else the service holds into device batches at the next flush. The
  // backing vector stays stable until the step finishes (the service and
  // the prefetcher hold spans into it). A fully-reused batch submits nothing
  // at all — that is the whole point.
  if (!detect_frames.empty()) {
    DetectorService::DetectRequest request;
    request.session_id = options_.service_session_id;
    request.frames = common::Span<const video::FrameId>(detect_frames.data(),
                                                        detect_frames.size());
    if (dispatcher != nullptr) {
      request.shards =
          common::Span<const uint32_t>(detect_shards.data(), detect_shards.size());
      request.dispatcher = dispatcher;
    } else {
      request.detector = detector_;
    }
    request.prefetcher = prefetcher_.get();
    request.session_stats = options_.session_stats;
    request.detector_options = options_.detector_options;
    pending_ticket_ = service_->Submit(request);
  }
  pending_detect_ = true;
  return true;
}

void QueryExecution::FinishStep() {
  common::Check(pending_detect_, "FinishStep without a pending BeginStep");
  CompleteStep(/*flush=*/false);
}

bool QueryExecution::CompleteStep(bool flush) {
  // Collect the batch's detections (a fully-reused batch submitted nothing).
  // A solo step's inline flush is its detect stage, timed as one.
  std::vector<detect::Detections> miss_detections;
  {
    stats::StageTimer::Scoped detect_timer(options_.stats.timer,
                                           stats::Stage::kDetect);
    if (flush) service_->Flush();
    if (!service_->transport_status().ok()) {
      // The fleet is gone and the batch's detections with it: abandon the
      // step, keeping the failure for `status()`.
      AbortPendingStep();
      return false;
    }
    pending_detect_ = false;
    if (pending_ticket_ != 0) miss_detections = service_->Take(pending_ticket_);
    pending_ticket_ = 0;
  }
  ShardDispatcher* dispatcher = options_.shard_dispatcher;
  const bool reusing = options_.reuse != nullptr;
  const std::vector<video::FrameId>& detect_frames =
      reusing ? miss_frames_ : pending_frames_;
  stats::SlabAdd(options_.stats.slab, options_.stats.frames_detected,
                 detect_frames.size());

  // Discriminate stage: strictly sequential in batch order — matching is
  // stateful, and reproducibility requires a fixed observation order. This is
  // the merge point of a sharded execution: whatever shard detected a frame,
  // its detections are observed here, in the coordinator's batch order —
  // and the merge point of reuse: cached/proven-empty detections interleave
  // with fresh ones in the same order a cold run would observe, byte-equal,
  // so everything downstream (matching, feedback, results) is unchanged.
  feedback_.clear();
  const uint64_t reported_before = current_.reported_results;
  std::chrono::steady_clock::time_point discriminate_start;
  if (options_.stats.timer != nullptr) {
    discriminate_start = std::chrono::steady_clock::now();
  }
  size_t miss_pos = 0;
  for (size_t i = 0; i < pending_frames_.size(); ++i) {
    const uint32_t shard = dispatcher != nullptr ? frame_shards_[i] : 0;
    const double seconds_per_frame = dispatcher != nullptr
                                         ? dispatcher->SecondsPerFrame(shard)
                                         : detector_->SecondsPerFrame();
    const bool reused =
        reusing && reuse_outcomes_[i] != reuse::SessionReuse::Outcome::kMiss;
    // Reused frames charge zero detector seconds — that cost was paid by
    // whichever query populated the cache; the avoided cost is credited to
    // the session's saved_detector_seconds instead.
    const double detect_seconds = reused ? 0.0 : seconds_per_frame;
    const detect::Detections& detections =
        reused ? reuse_detections_[i] : miss_detections[miss_pos];
    if (reused) {
      options_.reuse->RecordSaved(seconds_per_frame);
    } else {
      if (reusing) {
        options_.reuse->RecordDetected(pending_frames_[i], detections,
                                       seconds_per_frame);
      }
      ++miss_pos;
    }
    current_.seconds += detect_seconds;
    const track::MatchResult result =
        discriminator_->Observe(pending_frames_[i], detections);
    feedback_.push_back(
        FrameFeedback{pending_frames_[i], result.d0.size(), result.d1.size()});
    ++current_.samples;
    current_.reported_results += result.d0.size();
    const uint64_t distinct_before = current_.true_distinct;
    const bool changed = CountNewDistinct(result, options_, &found_, &current_);
    const bool emit = changed || !result.d0.empty();
    if (emit) {
      trace_.points.push_back(current_);
    }
    if (dispatcher != nullptr) {
      RecordEvent(1 + shard, detect_seconds, 1,
                  static_cast<uint32_t>(result.d0.size()),
                  static_cast<uint32_t>(current_.true_distinct - distinct_before),
                  emit);
    }
  }

  if (options_.stats.timer != nullptr) {
    options_.stats.timer->Record(
        stats::Stage::kDiscriminate,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      discriminate_start)
            .count());
  }
  stats::SlabAdd(options_.stats.slab, options_.stats.results_reported,
                 current_.reported_results - reported_before);

  // Feedback stage: the strategy sees the whole batch's outcomes at once
  // (Sec. III-F — belief updates are delayed until the batch returns).
  {
    stats::StageTimer::Scoped observe_timer(options_.stats.timer,
                                            stats::Stage::kObserve);
    strategy_->ObserveBatch(feedback_);
  }

  // Keep `final` current so a live session's trace reads correctly mid-run.
  trace_.final = current_;
  return true;
}

void QueryExecution::AbortPendingStep() {
  // Drivers abandon a step only when the detect transport failed; keep why.
  if (status_.ok()) status_ = service_->transport_status();
  if (pending_detect_) {
    pending_detect_ = false;
    // Stop the decode tasks holding spans into the abandoned batch before
    // releasing it.
    if (prefetcher_ != nullptr) prefetcher_->Drain();
    pending_frames_.clear();
    miss_frames_.clear();
    miss_shards_.clear();
    reuse_outcomes_.clear();
    reuse_detections_.clear();
    pending_ticket_ = 0;
  }
  // Unregister unconditionally, not just when a step was pending: an aborted
  // session's detectors die with it, and a directory (or remote worker) entry
  // left behind would let a later wire batch resolve to a dangling pointer.
  finished_ = true;
  service_->UnregisterSession(options_.service_session_id);
  // Aborted sessions are dropped without Finish: retire the slab here.
  RetireStatsSlab();
}

void QueryExecution::Terminate() {
  common::Check(!pending_detect_, "Terminate while a step is pending");
  finished_ = true;
  // Shed/cancelled sessions exit through here without Finish: withdraw the
  // wire registration so the session id can never again resolve to detectors
  // owned by this (about-to-die) execution.
  service_->UnregisterSession(options_.service_session_id);
}

bool QueryExecution::Step() {
  // Standalone stepping flushes inline: anything other sessions left pending
  // on a shared service rides along, which coalescing guarantees is
  // trace-neutral.
  return BeginStep() && CompleteStep(/*flush=*/true);
}

QueryTrace QueryExecution::Finish() {
  while (Step()) {
  }
  if (!finalized_) {
    trace_.final = current_;
    if (trace_.points.empty() || trace_.points.back().samples != current_.samples) {
      trace_.points.push_back(current_);
    }
    if (options_.shard_dispatcher != nullptr) {
      // A sharded run's trace is *assembled from the shards' partial traces*:
      // the merge replays the per-shard events in global sequence order. It
      // must reproduce the directly-accumulated trace bit for bit — a merge
      // that drifts means shard accounting lost information, which would
      // silently corrupt every cross-shard comparison, so it is fatal rather
      // than best-effort.
      auto merged = MergeShardTraces(
          trace_.strategy_name, trace_.total_instances,
          common::Span<const ShardTracePart>(parts_.data(), parts_.size()));
      common::CheckOk(merged.status(), "shard trace merge failed");
      common::Check(TracesBitIdentical(merged.value(), trace_),
                    "merged shard trace diverged from direct accumulation");
      trace_ = std::move(merged).value();
    }
    finalized_ = true;
    // The query is over: withdraw its wire registrations (the directory
    // holds raw pointers to detectors that die with this session). Done
    // here — never from the destructor — so a session object that outlives
    // its engine stays destructible; a session abandoned mid-query without
    // Finish leaves one never-again-resolved directory entry behind, which
    // is bounded by session count and harmless (ids are never reused).
    service_->UnregisterSession(options_.service_session_id);
    RetireStatsSlab();
  }
  return trace_;
}

void QueryExecution::RetireStatsSlab() {
  if (options_.stats.slab == nullptr) return;
  stats::CounterSlab* slab = options_.stats.slab;
  options_.stats.slab = nullptr;
  options_.stats.registry->RetireSlab(slab);
}

QueryRunner::QueryRunner(const scene::GroundTruth* truth,
                         detect::ObjectDetector* detector,
                         track::Discriminator* discriminator, RunnerOptions options)
    : truth_(truth),
      detector_(detector),
      discriminator_(discriminator),
      options_(options) {}

QueryTrace QueryRunner::Run(SearchStrategy* strategy) {
  QueryExecution execution(truth_, detector_, discriminator_, strategy, options_);
  return execution.Finish();
}

QueryTrace QueryRunner::RunSingleFrame(SearchStrategy* strategy) {
  QueryTrace trace;
  trace.strategy_name = strategy->name();
  trace.total_instances = truth_->NumInstances(options_.recall_class);

  std::unordered_set<scene::InstanceId> found;
  DiscoveryPoint current;
  current.seconds = strategy->UpfrontCostSeconds();
  trace.points.push_back(current);
  double charged_overhead = 0.0;

  while (current.samples < options_.max_samples &&
         current.reported_results < options_.result_limit &&
         current.true_distinct < options_.true_distinct_target) {
    const std::optional<video::FrameId> frame = strategy->NextFrame();
    if (!frame.has_value()) break;

    // Charge any incremental strategy overhead (e.g. lazy proxy scoring)
    // accrued while choosing this frame.
    const double overhead = strategy->CumulativeOverheadSeconds();
    current.seconds += overhead - charged_overhead;
    charged_overhead = overhead;

    if (options_.video_store != nullptr) {
      // PlanRead returns this read's charge directly. The old form diffed
      // the store's cumulative `Stats().total_seconds` around the call,
      // which reads shared mutable state — racy when the store is shared
      // with concurrent sessions, and wrong (double-counted) even
      // single-threaded if anything else touches the store in between.
      const common::Result<video::ReadPlan> plan =
          options_.video_store->PlanRead(*frame);
      if (plan.ok()) {
        options_.video_store->PerformRead(plan.value());
        current.seconds += plan.value().seconds;
      }
    }
    current.seconds += detector_->SecondsPerFrame();

    const detect::Detections dets = detector_->Detect(*frame);
    const track::MatchResult result = discriminator_->Observe(*frame, dets);
    strategy->Observe(*frame, result.d0.size(), result.d1.size());

    ++current.samples;
    current.reported_results += result.d0.size();

    const bool changed = CountNewDistinct(result, options_, &found, &current);
    if (changed || !result.d0.empty()) {
      trace.points.push_back(current);
    }
  }
  trace.final = current;
  if (trace.points.empty() || trace.points.back().samples != current.samples) {
    trace.points.push_back(current);
  }
  return trace;
}

}  // namespace query
}  // namespace exsample
