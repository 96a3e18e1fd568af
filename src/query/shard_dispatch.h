#ifndef EXSAMPLE_QUERY_SHARD_DISPATCH_H_
#define EXSAMPLE_QUERY_SHARD_DISPATCH_H_

#include <cstdint>
#include <vector>

#include "detect/detector.h"
#include "stats/stats_json.h"
#include "video/decode.h"
#include "video/sharded_repository.h"

namespace exsample {
namespace query {

/// \brief One shard's execution context: the detector that serves its frames
/// and an optional decode store.
///
/// In a real deployment this is "one machine's worth" of a query: the shard's
/// video lives next to its decoder and detector, and only frame ids and
/// detections cross the network. In this reproduction the members are
/// in-process objects; the seam is what matters. Pools are not part of a
/// context: detect fan-out belongs to the service's transport, decode work to
/// the prefetcher's pool.
struct ShardContext {
  /// Serves `Detect` for the shard's frames. Required for non-empty shards.
  /// Frames are addressed by *global* id (the shard's detector shares the
  /// global ground truth), so a shard detector with the same options as the
  /// unsharded detector produces identical detections — the first half of the
  /// sharded-equals-unsharded equivalence contract.
  detect::ObjectDetector* detector = nullptr;
  /// Optional decode accounting, built over the *global* repository view. A
  /// store keeps its own position state, so per-shard stores price
  /// sequential-read locality per shard; one store shared by every context
  /// prices it globally, exactly as an unsharded run does.
  video::SimulatedVideoStore* store = nullptr;
};

/// \brief Per-shard execution tallies.
struct ShardStats {
  uint64_t frames_detected = 0;
  uint64_t batches = 0;
  uint64_t frames_decoded = 0;
  double detect_seconds = 0.0;  ///< Simulated detector seconds charged.
  double decode_seconds = 0.0;  ///< Simulated decode seconds charged.
};

/// Names every field of `ShardStats` for the stats export.
inline void ExportFields(const ShardStats& s, stats::StatsWriter& out) {
  const auto& [frames_detected, batches, frames_decoded, detect_seconds,
               decode_seconds] = s;
  out.Counter("frames_detected", frames_detected);
  out.Counter("batches", batches);
  out.Counter("frames_decoded", frames_decoded);
  out.Gauge("detect_seconds", detect_seconds);
  out.Gauge("decode_seconds", decode_seconds);
}

/// \brief A query execution's per-shard contexts: which shard owns a frame,
/// which detector serves it, where its decode is charged, and the per-shard
/// tallies. Every execution runs over one; an unsharded query's has a single
/// shard that owns every frame.
///
/// The dispatcher does not detect. An execution submits its picked batch to
/// a `DetectorService` with each frame's owning shard (`ShardOfFrame`); the
/// service queues the frames per shard, sends each shard's device batches
/// through its transport, and the runner serving shard s resolves the
/// session's `Context(s).detector`. Results land in fixed slots and
/// detectors are per-frame deterministic, so shard count — like thread
/// count everywhere else in the pipeline — changes wall-clock only, never the
/// trace. The service books what it detected back here
/// (`RecordServiceDetect`), and the decode prefetcher plans each frame's
/// read on its shard's store (`PlanDecode`).
class ShardDispatcher {
 public:
  /// `repo`, when non-null, and every context member must outlive the
  /// dispatcher. `contexts` must have one entry per shard of `repo`; a null
  /// `repo` means one shard owning every frame, with exactly one context.
  /// Non-empty shards require a detector.
  ShardDispatcher(const video::ShardedRepository* repo,
                  std::vector<ShardContext> contexts);

  size_t NumShards() const { return contexts_.size(); }

  /// \brief The shard owning a global frame (0 without a repository). Frames
  /// past the repository are a fatal error (the strategy layer never emits
  /// them).
  uint32_t ShardOfFrame(video::FrameId frame) const;

  /// \brief Simulated per-frame detector cost of one shard.
  double SecondsPerFrame(uint32_t shard) const;

  /// \brief Books `frames` of this session detected on `shard` by the
  /// `DetectorService` into `Stats()`, counted as one batch.
  void RecordServiceDetect(uint32_t shard, size_t frames);

  /// \brief True when every non-empty shard has a decode store (the
  /// execution then decodes every frame on its owner's store).
  bool HasStores() const { return has_stores_; }

  /// \brief Plans the decode of `frame` on `shard`'s store (advancing that
  /// store's sequential position) and books the charge into `Stats()`,
  /// without performing the decode work. `shard` must be the frame's owner,
  /// as `ShardOfFrame` reports. The prefetcher calls this in batch order and
  /// later performs the plan on its pool. Requires `HasStores()`.
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
