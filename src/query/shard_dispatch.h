#ifndef EXSAMPLE_QUERY_SHARD_DISPATCH_H_
#define EXSAMPLE_QUERY_SHARD_DISPATCH_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "detect/detector.h"
#include "video/decode.h"
#include "video/sharded_repository.h"

namespace exsample {
namespace query {

/// \brief One shard's execution resources: the detector that serves its
/// frames, an optional decode store, and an optional private worker pool.
///
/// In a real deployment this is "one machine's worth" of a query: the shard's
/// video lives next to its decoder and detector, and only frame ids and
/// detections cross the network. In this reproduction the members are
/// in-process objects; the seam is what matters.
struct ShardContext {
  /// Serves `Detect` for the shard's frames. Required for non-empty shards.
  /// Frames are addressed by *global* id (the shard's detector shares the
  /// global ground truth), so a shard detector with the same options as the
  /// unsharded detector produces identical detections — the first half of the
  /// sharded-equals-unsharded equivalence contract.
  detect::ObjectDetector* detector = nullptr;
  /// Optional per-shard decode accounting. A shard's store keeps its own
  /// position state (each shard decodes independently), so sequential-read
  /// locality is per shard. Must be built over the *global* repository view.
  video::SimulatedVideoStore* store = nullptr;
  /// Optional private pool the shard's device batches fan out over ("one
  /// GPU's worth of workers") when a solo execution runs its own detector
  /// service. Null runs them on the thread executing the batch.
  common::ThreadPool* pool = nullptr;
  /// Optional private I/O pool the shard's *decode prefetch* work runs on
  /// (the disk+decoder next to the shard's video, kept separate from the
  /// detect pool so decode and inference overlap instead of contending).
  /// Null falls back to the prefetcher's own pool.
  common::ThreadPool* io_pool = nullptr;
};

/// \brief Per-shard execution tallies.
struct ShardStats {
  uint64_t frames_detected = 0;
  uint64_t batches = 0;
  uint64_t frames_decoded = 0;
  double detect_seconds = 0.0;  ///< Simulated detector seconds charged.
  double decode_seconds = 0.0;  ///< Simulated decode seconds charged.
};

/// \brief A sharded session's per-shard execution contexts: which shard
/// owns a frame, which detector serves it, where its decode is charged, and
/// the per-shard tallies.
///
/// The dispatcher does not detect. A sharded session submits its picked
/// batch to a `DetectorService` with each frame's owning shard
/// (`ShardOfFrame`); the service queues the frames per shard, sends each
/// shard's device batches through its transport, and the runner serving
/// shard s resolves the session's `Context(s).detector`. Results land in
/// fixed slots and detectors are per-frame deterministic, so shard count —
/// like thread count everywhere else in the pipeline — changes wall-clock
/// only, never the trace. The service books what it detected back here
/// (`RecordServiceDetect`), and the decode prefetcher plans each frame's
/// read on its shard's store (`PlanDecode`).
class ShardDispatcher {
 public:
  /// `repo` and every context member must outlive the dispatcher. `contexts`
  /// must have one entry per shard; non-empty shards require a detector.
  ShardDispatcher(const video::ShardedRepository* repo,
                  std::vector<ShardContext> contexts);

  size_t NumShards() const { return contexts_.size(); }
  const video::ShardedRepository& repo() const { return *repo_; }

  /// \brief The shard owning a global frame. Frames past the repository are a
  /// fatal error (the strategy layer never emits them).
  uint32_t ShardOfFrame(video::FrameId frame) const;

  /// \brief Simulated per-frame detector cost of one shard.
  double SecondsPerFrame(uint32_t shard) const;

  /// \brief Books `frames` of this session detected on `shard` by the
  /// `DetectorService` into `Stats()`, counted as one batch.
  void RecordServiceDetect(uint32_t shard, size_t frames);

  /// \brief True when every non-empty shard has a decode store (decode is
  /// then routed per shard instead of through the query-global store).
  bool HasStores() const { return has_stores_; }

  /// \brief Charges the decode of `frame` to `shard`'s store (which must be
  /// the frame's owner, as `ShardOfFrame` reports) and returns the seconds
  /// charged. Requires `HasStores()`. Synchronous: plans *and* performs the
  /// read (`PlanDecode` + `PerformRead` on the shard's store).
  double ChargeDecode(video::FrameId frame, uint32_t shard);

  /// \brief Accounting half of `ChargeDecode`: plans the read on `shard`'s
  /// store (advancing that shard's sequential position) and books the charge
  /// into `Stats()`, without performing the decode work. The prefetcher calls
  /// this in batch order — charges are bit-identical to `ChargeDecode` — and
  /// later performs the plan on the shard's I/O pool. Requires `HasStores()`.
  video::ReadPlan PlanDecode(video::FrameId frame, uint32_t shard);

  const ShardContext& Context(uint32_t shard) const { return contexts_[shard]; }
  const std::vector<ShardStats>& Stats() const { return stats_; }

 private:
  const video::ShardedRepository* repo_;
  std::vector<ShardContext> contexts_;
  std::vector<ShardStats> stats_;
  bool has_stores_ = false;
};

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_SHARD_DISPATCH_H_
