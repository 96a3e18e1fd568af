#include "query/runner.h"

#include <algorithm>

namespace exsample {
namespace query {

namespace {

/// Applies one frame's d0 detections to the recall counters.
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

QueryExecution::QueryExecution(const scene::GroundTruth* truth,
                               detect::ObjectDetector* detector,
                               track::Discriminator* discriminator,
                               SearchStrategy* strategy, RunnerOptions options)
    : truth_(truth),
      discriminator_(discriminator),
      strategy_(strategy),
      options_(options),
      dispatcher_(options_.shard_dispatcher) {
  if (dispatcher_ == nullptr) {
    common::Check(detector != nullptr,
                  "query execution needs a detector or a shard dispatcher");
    owned_dispatcher_ = std::make_unique<ShardDispatcher>(
        nullptr, std::vector<ShardContext>{{detector, options_.video_store}});
    dispatcher_ = owned_dispatcher_.get();
  } else {
    common::Check(options_.video_store == nullptr,
                  "a caller's shard dispatcher holds the decode stores");
  }
  // Every decode call site routes through the prefetcher. Depth 0 keeps the
  // synchronous schedule (plan + perform inline, in batch order); depth >= 1
  // overlaps the decode work with the detect stage. Either way the charges
  // are planned in batch order, so the trace cannot depend on the depth.
  if (dispatcher_->HasStores()) {
    PrefetchOptions prefetch_options;
    prefetch_options.depth = options_.prefetch_depth;
    prefetcher_ = std::make_unique<DecodePrefetcher>(
        dispatcher_,
        options_.decode_pool != nullptr ? options_.decode_pool : options_.thread_pool,
        prefetch_options);
  }
  // Without a shared service, steps go through a private one whose device
  // batch is the detect window: the whole batch without decode overlap, else
  // max(depth, detect parallelism) — a smaller window would serialize
  // latency-bound detect calls the full batch fans out.
  service_ = options_.detector_service;
  if (service_ == nullptr) {
    const size_t parallelism =
        options_.thread_pool != nullptr ? options_.thread_pool->NumThreads() : 1;
    DetectorServiceOptions service_options;
    service_options.device_batch =
        prefetcher_ == nullptr || prefetcher_->depth() == 0
            ? std::max<size_t>(1, options_.batch_size)
            : std::max(prefetcher_->depth(), parallelism);
    owned_service_ = std::make_unique<DetectorService>(
        service_options, dispatcher_->NumShards(), options_.thread_pool);
    service_ = owned_service_.get();
  }
  trace_.strategy_name = strategy_->name();
  trace_.total_instances = truth_->NumInstances(options_.recall_class);
  current_.seconds = strategy_->UpfrontCostSeconds();
  trace_.points.push_back(current_);
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
    stats::StageTimer::Scoped pick_timer(options_.stage_timer,
                                         stats::Stage::kPick);
    pending_frames_ = strategy_->NextBatch(want);
  }
  if (pending_frames_.empty()) {
    finished_ = true;
    return false;
  }
  if (options_.session_stats != nullptr) ++options_.session_stats->steps_granted;

  // Resolve each frame's owning shard once per batch; decode, detect
  // dispatch, and per-frame accounting below all reuse it.
  frame_shards_.clear();
  for (const video::FrameId frame : pending_frames_) {
    frame_shards_.push_back(dispatcher_->ShardOfFrame(frame));
  }

  // Charge any incremental strategy overhead (e.g. lazy proxy scoring)
  // accrued while choosing this batch.
  const double overhead = strategy_->CumulativeOverheadSeconds();
  current_.seconds += overhead - charged_overhead_;
  charged_overhead_ = overhead;

  // Cross-query reuse: classify the picked batch before anything is paid
  // for. Hits carry their exact cached detections and skips a proven-empty
  // list; only the remaining misses flow into the decode and detect stages
  // below. The *full* batch stays in `pending_frames_` — discrimination and
  // strategy feedback consume it in batch order in FinishStep, so reuse
  // changes which frames are paid for, never what any stage observes.
  const bool reusing = options_.reuse != nullptr;
  if (reusing) {
    stats::StageTimer::Scoped classify_timer(options_.stage_timer,
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
        miss_shards_.push_back(frame_shards_[i]);
      }
    }
  }
  const std::vector<video::FrameId>& detect_frames =
      reusing ? miss_frames_ : pending_frames_;
  const std::vector<uint32_t>& detect_shards = reusing ? miss_shards_ : frame_shards_;

  // Decode stage, behind the prefetcher. Charged up front for the batch's
  // detect set (reused frames never decode: their outcome is already known):
  // the prefetcher plans every read now, in batch order, on the owning
  // shard's store. The decode *work* runs asynchronously until the service
  // flush waits for each slice's frames, so the decode-ahead window spans
  // the whole coalesce window.
  if (prefetcher_ != nullptr && !detect_frames.empty()) {
    stats::StageTimer::Scoped decode_timer(options_.stage_timer,
                                           stats::Stage::kDecode);
    const std::vector<double>& charges =
        prefetcher_->SubmitBatch(detect_frames, detect_shards);
    for (const double charge : charges) current_.seconds += charge;
  }

  // Submit the detect work: the batch's detect set is merged with whatever
  // else the service holds into device batches at the next flush. The
  // backing vector stays stable until the step finishes (the service and
  // the prefetcher hold spans into it). A fully-reused batch submits nothing
  // at all — that is the whole point.
  if (!detect_frames.empty()) {
    DetectorService::DetectRequest request;
    request.session_id = options_.service_session_id;
    request.frames = detect_frames;
    request.shards = detect_shards;
    request.dispatcher = dispatcher_;
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
    stats::StageTimer::Scoped detect_timer(options_.stage_timer,
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
  const bool reusing = options_.reuse != nullptr;

  // Discriminate stage: strictly sequential in batch order — matching is
  // stateful, and reproducibility requires a fixed observation order. This is
  // the merge point of a sharded execution: whatever shard detected a frame,
  // its detections are observed here, in the coordinator's batch order —
  // and the merge point of reuse: cached/proven-empty detections interleave
  // with fresh ones in the same order a cold run would observe, byte-equal,
  // so everything downstream (matching, feedback, results) is unchanged.
  feedback_.clear();
  std::chrono::steady_clock::time_point discriminate_start;
  if (options_.stage_timer != nullptr) {
    discriminate_start = std::chrono::steady_clock::now();
  }
  size_t miss_pos = 0;
  for (size_t i = 0; i < pending_frames_.size(); ++i) {
    const double seconds_per_frame = dispatcher_->SecondsPerFrame(frame_shards_[i]);
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
    const bool changed = CountNewDistinct(result, options_, &found_, &current_);
    if (changed || !result.d0.empty()) {
      trace_.points.push_back(current_);
    }
  }

  if (options_.stage_timer != nullptr) {
    options_.stage_timer->Record(
        stats::Stage::kDiscriminate,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      discriminate_start)
            .count());
  }

  // Feedback stage: the strategy sees the whole batch's outcomes at once
  // (Sec. III-F — belief updates are delayed until the batch returns).
  {
    stats::StageTimer::Scoped observe_timer(options_.stage_timer,
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
    finalized_ = true;
    // The query is over: withdraw its wire registrations (the directory
    // holds raw pointers to detectors that die with this session). Done
    // here — never from the destructor — so a session object that outlives
    // its engine stays destructible; a session abandoned mid-query without
    // Finish leaves one never-again-resolved directory entry behind, which
    // is bounded by session count and harmless (ids are never reused).
    service_->UnregisterSession(options_.service_session_id);
  }
  return trace_;
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

}  // namespace query
}  // namespace exsample
