#ifndef EXSAMPLE_REUSE_REUSE_H_
#define EXSAMPLE_REUSE_REUSE_H_

#include <cstdint>
#include <memory>

#include "detect/detection.h"
#include "reuse/belief_bank.h"
#include "reuse/detection_cache.h"
#include "reuse/reuse_key.h"
#include "reuse/scanned_sketch.h"
#include "stats/stats_json.h"
#include "video/repository.h"

namespace exsample {
namespace reuse {

/// \brief Which reuse pieces are active, and their budgets
/// (`EngineConfig::reuse`).
struct ReuseOptions {
  /// Consult/populate the exact `DetectionCache` in the detect stage.
  bool cache = false;
  /// Consult/populate the `ScannedSketch`; lets the runner skip frames a
  /// prior query scanned and found empty even after their cache entries were
  /// evicted.
  bool sketch = false;
  /// Warm-start chunk beliefs from the `BeliefBank`'s persisted posteriors.
  bool warm_start = false;

  /// Eviction budget of the detection cache, in cached frames.
  size_t cache_budget_frames = size_t{1} << 20;
  /// Sketch sizing.
  ScannedSketchOptions sketch_options;
  /// Weight of persisted posterior counts in a warm prior (1 = exact
  /// Bayesian accumulation; smaller values discount old evidence).
  double warm_start_weight = 1.0;

  bool AnyEnabled() const { return cache || sketch || warm_start; }

  /// \brief Everything on at default budgets.
  static ReuseOptions All() {
    ReuseOptions options;
    options.cache = true;
    options.sketch = true;
    options.warm_start = true;
    return options;
  }
};

/// \brief Per-session reuse tallies, mirroring `SessionSchedulerStats`:
/// filled in by the runner as the session's batches consult the shared
/// cache/sketch. All zeros when reuse is off.
struct ReuseSessionStats {
  /// Frames answered from the detection cache (bit-identical, zero detector
  /// seconds charged).
  uint64_t cache_hits = 0;
  /// Frames that went to the detector (and were then inserted).
  uint64_t cache_misses = 0;
  /// Frames skipped via the scanned sketch's proven-empty record.
  uint64_t sketch_skips = 0;
  /// Detector seconds *not* charged thanks to hits and skips (each saved
  /// frame valued at its shard's `SecondsPerFrame`).
  double saved_detector_seconds = 0.0;
  /// Detector seconds actually charged (the misses).
  double charged_detector_seconds = 0.0;
  /// True when this session's chunk beliefs were warm-started from the bank.
  bool warm_started = false;
};

/// Names every field of `ReuseSessionStats` for the stats export; summed
/// over sessions, `warm_started` counts the warm-started ones.
inline void ExportFields(const ReuseSessionStats& s, stats::StatsWriter& out) {
  const auto& [cache_hits, cache_misses, sketch_skips, saved_detector_seconds,
               charged_detector_seconds, warm_started] = s;
  out.Counter("cache_hits", cache_hits);
  out.Counter("cache_misses", cache_misses);
  out.Counter("sketch_skips", sketch_skips);
  out.Gauge("saved_detector_seconds", saved_detector_seconds);
  out.Gauge("charged_detector_seconds", charged_detector_seconds);
  out.Counter("warm_started", warm_started);
}

/// \brief The engine-owned cross-query reuse state: one detection cache, one
/// scanned sketch, and one belief bank, shared by every session the engine
/// runs — concurrent (`RunConcurrent`) and consecutive alike.
///
/// The manager is deliberately dumb: all policy (what to consult, what to
/// charge) lives in the runner and engine seams; components are keyed by
/// `ReuseKey`, so one manager safely serves sessions of different classes
/// and detector configs side by side.
class ReuseManager {
 public:
  explicit ReuseManager(ReuseOptions options);

  const ReuseOptions& options() const { return options_; }
  DetectionCache& cache() { return cache_; }
  ScannedSketch& sketch() { return sketch_; }
  BeliefBank& beliefs() { return beliefs_; }

 private:
  ReuseOptions options_;
  DetectionCache cache_;
  ScannedSketch sketch_;
  BeliefBank beliefs_;
};

/// \brief One session's binding to the shared `ReuseManager`: key, repository
/// extent, and the session's stats sink. This is what `RunnerOptions::reuse`
/// points at — the runner stays ignorant of engines and keys.
class SessionReuse {
 public:
  /// How a picked frame resolves against the reuse layer before the detect
  /// stage.
  enum class Outcome : uint8_t {
    kMiss = 0,      ///< Not reusable: detect for real (then record).
    kCacheHit = 1,  ///< Exact detections served from the cache.
    kSketchSkip = 2,  ///< Proven scanned-empty: substitute an empty list.
  };

  /// `manager` and `stats` must outlive this object. `total_frames` is the
  /// keyed repository's extent (sizes the sketch's exact guard).
  SessionReuse(ReuseManager* manager, const ReuseKey& key, uint64_t total_frames,
               ReuseSessionStats* stats);

  /// \brief Classifies one picked frame. On `kCacheHit`, `*cached` holds the
  /// stored detections; on `kSketchSkip` it is cleared (the proven-empty
  /// list); on `kMiss` it is untouched.
  Outcome Classify(video::FrameId frame, detect::Detections* cached);

  /// \brief Records the outcome of a real detect call on a missed frame,
  /// charging `seconds_per_frame` to the session's tally.
  void RecordDetected(video::FrameId frame, const detect::Detections& detections,
                      double seconds_per_frame);

  /// \brief Credits one reused frame's avoided detector cost.
  void RecordSaved(double seconds_per_frame);

  const ReuseKey& key() const { return key_; }
  const ReuseSessionStats& stats() const { return *stats_; }

 private:
  ReuseManager* manager_;
  ReuseKey key_;
  uint64_t total_frames_;
  ReuseSessionStats* stats_;
};

}  // namespace reuse
}  // namespace exsample

#endif  // EXSAMPLE_REUSE_REUSE_H_
