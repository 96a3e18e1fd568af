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
#include "stats/stats_json.h"
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
/// Its stats structs are the only tallies of its work: the engine's
/// `StatsJson()` reads them while the session is live, and `Finish`,
/// `AbortStep` or destruction folds them, with its stage timer, into the
/// engine's totals exactly once.
///
/// Sessions are created by `SearchEngine::CreateSession` and must not outlive
/// their engine, except to be destroyed.
class QuerySession {
 public:
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;
  ~QuerySession();

  /// \brief Processes the next batch; returns false once the query is done.
  bool Step() { return execution_->Step(); }

  /// \brief Split-phase stepping, the seam cross-session batch coalescing
  /// hangs off: `BeginStep` picks the next batch and submits its detect work
  /// to the engine's shared `DetectorService`, and returns false once the
  /// query is done; after the service flush,
  /// `FinishStep` completes the step. `Step()` remains the one-call
  /// composition. Drivers that begin a step must finish it before beginning
  /// another (`DetectPending` tells which half is owed).
  bool BeginStep() { return execution_->BeginStep(); }
  void FinishStep() { execution_->FinishStep(); }
  bool DetectPending() const { return execution_->DetectPending(); }

  /// \brief Abandons a begun step whose detections will never arrive (the
  /// engine's detect transport failed permanently and cancelled its pending
  /// tickets). The session is finished afterwards; its trace ends at the
  /// last completed step. `RunConcurrent` calls this before surfacing the
  /// transport error. Like `Finish`, it folds the session's stats into the
  /// engine's totals.
  void AbortStep() {
    execution_->AbortPendingStep();
    RetireStats();
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
    RetireStats();
    return trace;
  }

  /// \brief The session's shard contexts: one per shard of a sharded engine,
  /// else a single one owning every frame. Never null. Exposes each shard's
  /// detector and decode store, and per-shard execution stats.
  const query::ShardDispatcher* shard_dispatcher() const {
    return shard_dispatcher_.get();
  }

  /// \brief The session's decode prefetcher, or null when the engine does not
  /// simulate decode (`EngineConfig::simulate_decode`). Exposes decode-ahead
  /// stats for observability.
  const query::DecodePrefetcher* prefetcher() const {
    return execution_->prefetcher();
  }

  /// \brief Scheduling/coalescing observability, mirroring `PrefetchStats`:
  /// steps this session processed, frames submitted through the shared
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
  /// `collect_stats` is off. Merged into the engine-wide aggregate when the
  /// session's stats are folded into the engine's totals.
  const stats::StageTimer& stage_timer() const { return stage_timer_; }

 private:
  friend class SearchEngine;
  QuerySession() = default;

  // Leaves the engine's live sessions, folding this session's stats and
  // stage timer into the engine's totals — once, and never after the engine
  // is gone (it then clears `engine_`).
  void RetireStats();

  // Writes the session's stats structs under `session.*`, and under
  // `execution.*` the step, frame and result counts they and the trace
  // hold.
  void ExportStats(stats::StatsSnapshot* snapshot) const;

  void HarvestBeliefs() {
    if (belief_bank_ == nullptr || beliefs_harvested_ || !status().ok()) return;
    const core::ChunkStatsTable* stats = strategy_->ChunkStatistics();
    if (stats == nullptr) return;  // Strategy holds no chunk beliefs.
    belief_bank_->RecordPosterior(belief_key_, chunking_signature_, *stats);
    beliefs_harvested_ = true;
  }

  std::unique_ptr<query::SearchStrategy> strategy_;
  // One detector context per shard plus the dispatcher that routes batches
  // to them (detector noise streams stay per-query, so each session owns its
  // shard detectors; pools are shared via the engine). Decode accounting
  // (EngineConfig::simulate_decode) is per-query too: each shard context
  // gets the session's own store.
  std::vector<std::unique_ptr<detect::ObjectDetector>> shard_detectors_;
  std::vector<std::unique_ptr<video::SimulatedVideoStore>> shard_stores_;
  std::unique_ptr<query::ShardDispatcher> shard_dispatcher_;
  std::unique_ptr<track::Discriminator> discriminator_;
  std::unique_ptr<query::QueryExecution> execution_;
  // Scheduler/coalescing tallies, filled in by the execution and the
  // engine's shared detector service (wired via RunnerOptions::session_stats).
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
  // The session's own stage timer (single writer: the stepping thread, via
  // RunnerOptions::stage_timer; untouched when collect_stats is off).
  stats::StageTimer stage_timer_;
  // The engine whose live sessions this one is in; null once retired.
  SearchEngine* engine_ = nullptr;
};

}  // namespace engine
}  // namespace exsample

#endif  // EXSAMPLE_ENGINE_QUERY_SESSION_H_
