#ifndef EXSAMPLE_ENGINE_QUERY_SESSION_H_
#define EXSAMPLE_ENGINE_QUERY_SESSION_H_

#include <memory>
#include <vector>

#include "detect/detector.h"
#include "query/prefetch.h"
#include "query/runner.h"
#include "query/scheduler.h"
#include "query/shard_dispatch.h"
#include "query/strategy.h"
#include "query/trace.h"
#include "reuse/reuse.h"
#include "stats/stage_timer.h"
#include "track/discriminator.h"
#include "video/decode.h"

namespace exsample {
namespace engine {

class SearchEngine;

/// \brief A live query being executed incrementally against a `SearchEngine`.
///
/// A session owns the per-query state Algorithm 1 requires to be independent
/// between queries — the strategy's beliefs, the detector's noise stream, and
/// the discriminator's matching memory — while sharing everything heavyweight
/// with its engine: the repository, chunking, proxy-scorer cache, and thread
/// pool. `Step()` advances by one batch, so a scheduler can interleave many
/// sessions over the shared resources; that is how `SearchEngine::
/// RunConcurrent` serves several users' queries at once.
///
/// Sessions are created by `SearchEngine::CreateSession` and must not outlive
/// their engine.
class QuerySession {
 public:
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  /// \brief Processes the next batch; returns false once the query is done.
  bool Step() {
    const bool progressed = execution_->Step();
    if (progressed) ++scheduler_stats_.steps_granted;
    return progressed;
  }

  /// \brief Split-phase stepping, the seam cross-session batch coalescing
  /// hangs off: `BeginStep` picks the next batch and submits its detect work
  /// to the engine's shared `DetectorService`, and returns false once the
  /// query is done; after the service flush,
  /// `FinishStep` completes the step. `Step()` remains the one-call
  /// composition. Drivers that begin a step must finish it before beginning
  /// another (`DetectPending` tells which half is owed).
  bool BeginStep() {
    const bool progressed = execution_->BeginStep();
    if (progressed) ++scheduler_stats_.steps_granted;
    return progressed;
  }
  void FinishStep() { execution_->FinishStep(); }
  bool DetectPending() const { return execution_->DetectPending(); }

  /// \brief Abandons a begun step whose detections will never arrive (the
  /// engine's detect transport failed permanently and cancelled its pending
  /// tickets). The session is finished afterwards; its trace ends at the
  /// last completed step. `RunConcurrent` calls this before surfacing the
  /// transport error. Like `Finish`, it retires the session's counter slab
  /// and publishes its stage timer.
  void AbortStep() {
    execution_->AbortPendingStep();
    PublishStageTimer();
  }

  /// \brief Administrative cancellation: finishes the session at its last
  /// completed step without running it to its stop condition. The serving
  /// layer's load shedder cancels best-effort sessions this way under
  /// detector saturation (and on tenant budget exhaustion). Fatal while a
  /// step is pending — cancel only at wave boundaries, where every begun
  /// step has been finished. `Finish()` afterwards just finalizes the
  /// truncated trace.
  void Cancel() { execution_->Terminate(); }

  /// \brief True when no further `Step` will make progress.
  bool Done() const { return execution_->Done(); }

  /// \brief OK unless the engine's detect transport failed permanently while
  /// this session was stepping; then that failure — the session is done and
  /// its trace ends at the last completed step.
  const common::Status& status() const { return execution_->status(); }

  /// \brief The discovery trace accumulated so far.
  const query::QueryTrace& Trace() const { return execution_->trace(); }

  /// \brief Runs the query to completion and returns the finalized trace.
  /// Under warm-start reuse, the finished strategy's chunk statistics — the
  /// sufficient statistic of its Gamma posteriors — are harvested into the
  /// engine's `reuse::BeliefBank` here, once, so later queries for the same
  /// key can seed their priors from them. A failed session (`status()`)
  /// harvests nothing: its beliefs stopped mid-query.
  query::QueryTrace Finish() {
    query::QueryTrace trace = execution_->Finish();
    HarvestBeliefs();
    PublishStageTimer();
    return trace;
  }

  /// \brief The session's shard dispatcher, or null when the engine is not
  /// sharded. Exposes per-shard execution stats for observability.
  const query::ShardDispatcher* shard_dispatcher() const {
    return shard_dispatcher_.get();
  }

  /// \brief The per-shard partial traces accumulated so far (empty when the
  /// engine is not sharded).
  const std::vector<query::ShardTracePart>& ShardParts() const {
    return execution_->ShardParts();
  }

  /// \brief The session's decode prefetcher, or null when the engine does not
  /// simulate decode (`EngineConfig::simulate_decode`). Exposes decode-ahead
  /// stats for observability.
  const query::DecodePrefetcher* prefetcher() const {
    return execution_->prefetcher();
  }

  /// \brief The session's decode store (unsharded engines with
  /// `simulate_decode`), or null. Sharded engines keep one store per shard in
  /// the dispatcher's contexts instead.
  const video::SimulatedVideoStore* video_store() const { return store_.get(); }

  /// \brief Scheduling/coalescing observability, mirroring `PrefetchStats`:
  /// steps granted to this session, frames submitted through the shared
  /// detector service, and how many of its frames/device batches were
  /// coalesced with other sessions'.
  const query::SessionSchedulerStats& scheduler_stats() const {
    return scheduler_stats_;
  }

  /// \brief Cross-query reuse observability: cache hits/misses, sketch
  /// skips, saved vs charged detector seconds, and whether this session's
  /// beliefs were warm-started. All zeros when the engine's reuse is off
  /// (`EngineConfig::reuse`).
  const reuse::ReuseSessionStats& reuse_stats() const { return reuse_stats_; }

  /// \brief The session's per-stage latency histograms (pick → classify →
  /// decode → detect → discriminate → observe). All-zero when the engine's
  /// `collect_stats` is off. Merged into the engine-wide aggregate once at
  /// `Finish`.
  const stats::StageTimer& stage_timer() const { return stage_timer_; }

 private:
  friend class SearchEngine;
  QuerySession() = default;

  // Merges this session's stage histograms into the engine-wide timer,
  // once. Runs on the thread calling Finish — the session's coordinator —
  // which is the engine timer's single-writer contract (the engine is
  // single-driver, like every other engine method).
  void PublishStageTimer() {
    if (engine_stage_timer_ == nullptr || stage_timer_published_) return;
    engine_stage_timer_->Merge(stage_timer_);
    stage_timer_published_ = true;
  }

  void HarvestBeliefs() {
    if (belief_bank_ == nullptr || beliefs_harvested_ || !status().ok()) return;
    const core::ChunkStatsTable* stats = strategy_->ChunkStatistics();
    if (stats == nullptr) return;  // Strategy holds no chunk beliefs.
    belief_bank_->RecordPosterior(belief_key_, chunking_signature_, *stats);
    beliefs_harvested_ = true;
  }

  std::unique_ptr<query::SearchStrategy> strategy_;
  std::unique_ptr<detect::ObjectDetector> detector_;
  // Decode accounting (EngineConfig::simulate_decode): position state is
  // per-query, so each session owns its store(s) — one query-global, or one
  // per shard, routed via the dispatcher's contexts.
  std::unique_ptr<video::SimulatedVideoStore> store_;
  std::vector<std::unique_ptr<video::SimulatedVideoStore>> shard_stores_;
  // Sharded engines: one detector context per shard plus the dispatcher that
  // routes batches to them (detector noise streams stay per-query, so each
  // session owns its shard detectors; pools are shared via the engine).
  std::vector<std::unique_ptr<detect::ObjectDetector>> shard_detectors_;
  std::unique_ptr<query::ShardDispatcher> shard_dispatcher_;
  std::unique_ptr<track::Discriminator> discriminator_;
  std::unique_ptr<query::QueryExecution> execution_;
  // Scheduler/coalescing tallies: `steps_granted` counted here, the
  // coalescing fields filled in by the engine's shared detector service
  // (wired via RunnerOptions::session_stats).
  query::SessionSchedulerStats scheduler_stats_;
  // Cross-query reuse: the session's binding to the engine's shared
  // ReuseManager (wired via RunnerOptions::reuse; null when cache and
  // sketch are both off) and its stats sink.
  std::unique_ptr<reuse::SessionReuse> reuse_;
  reuse::ReuseSessionStats reuse_stats_;
  // Warm-start harvest target: where Finish() deposits this query's
  // posterior counts (null when warm start is off).
  reuse::BeliefBank* belief_bank_ = nullptr;
  reuse::ReuseKey belief_key_{};
  uint64_t chunking_signature_ = 0;
  bool beliefs_harvested_ = false;
  // Observability: the session's own stage timer (single writer: the
  // stepping thread, via RunnerOptions::stats) and where Finish publishes it
  // (null when the engine's collect_stats is off).
  stats::StageTimer stage_timer_;
  stats::StageTimer* engine_stage_timer_ = nullptr;
  bool stage_timer_published_ = false;
};

}  // namespace engine
}  // namespace exsample

#endif  // EXSAMPLE_ENGINE_QUERY_SESSION_H_
