#ifndef EXSAMPLE_REUSE_DETECTION_CACHE_H_
#define EXSAMPLE_REUSE_DETECTION_CACHE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "detect/detection.h"
#include "reuse/reuse_key.h"
#include "stats/stats_json.h"
#include "video/repository.h"

namespace exsample {
namespace reuse {

/// \brief Budget of the exact detection cache.
struct DetectionCacheOptions {
  /// Maximum number of cached frames (entries) across all keys. Exceeding
  /// the budget evicts deterministically: the oldest *empty* entry first,
  /// and only when no empty entry remains the oldest non-empty one —
  /// non-empty detections are the rare, expensive outcomes worth pinning,
  /// while evicted empty outcomes stay recoverable through the scanned
  /// sketch's compact record.
  size_t budget_frames = size_t{1} << 20;
};

/// \brief Aggregate counters of one `DetectionCache` (all keys, all sessions).
struct DetectionCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evicted_empty = 0;
  uint64_t evicted_nonempty = 0;
  size_t entries = 0;
  size_t nonempty_entries = 0;
};

/// Names every field of `DetectionCacheStats` for the stats export.
inline void ExportFields(const DetectionCacheStats& s, stats::StatsWriter& out) {
  const auto& [hits, misses, insertions, evicted_empty, evicted_nonempty, entries,
               nonempty_entries] = s;
  out.Counter("hits", hits);
  out.Counter("misses", misses);
  out.Counter("insertions", insertions);
  out.Counter("evicted_empty", evicted_empty);
  out.Counter("evicted_nonempty", evicted_nonempty);
  out.Gauge("entries", static_cast<double>(entries));
  out.Gauge("nonempty_entries", static_cast<double>(nonempty_entries));
}

/// \brief Exact cross-query detection store: per-(key, frame) `Detections`
/// lists, bit-identical to what a real detect call would return.
///
/// The cache is *exact*, never approximate: a hit returns the stored list
/// verbatim (simulated detection is a pure per-frame function of (truth,
/// detector options, frame), and the key pins both the repository and the
/// detector config, so the stored list equals what any session with the same
/// key would compute). This is what lets the runner charge zero detector
/// seconds for a hit without perturbing a single downstream byte —
/// discriminator matching, strategy feedback, and traces all see exactly the
/// cold-run values.
///
/// Thread-safe: sessions of a concurrent workload share one cache under a
/// mutex. Eviction is deterministic for a fixed insertion sequence (FIFO
/// within the empty and non-empty classes); under concurrent insertion the
/// interleaving — and therefore which frames later hit — may vary, but hits
/// remain exact either way, so returned detections never depend on timing.
class DetectionCache {
 public:
  explicit DetectionCache(DetectionCacheOptions options = {});

  /// \brief Returns true and copies the stored detections into `*out` when
  /// (key, frame) is cached. Counts a hit or miss.
  bool Lookup(const ReuseKey& key, video::FrameId frame, detect::Detections* out);

  /// \brief Stores the outcome of a real detect call. Re-inserting an
  /// existing entry refreshes it in place (no duplicate eviction ticket).
  void Insert(const ReuseKey& key, video::FrameId frame,
              const detect::Detections& detections);

  DetectionCacheStats Stats() const;

 private:
  struct Entry {
    detect::Detections detections;
    uint64_t seq = 0;  // Insertion stamp; stale queue tickets are skipped.
  };
  struct Ticket {
    FrameKey frame_key;
    uint64_t seq = 0;
  };

  void EvictOneLocked();

  DetectionCacheOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<FrameKey, Entry, FrameKeyHash> entries_;
  // FIFO eviction queues per outcome class. Tickets are invalidated lazily:
  // a refreshed entry leaves its old ticket behind with a stale seq.
  std::deque<Ticket> empty_queue_;
  std::deque<Ticket> nonempty_queue_;
  uint64_t next_seq_ = 1;
  size_t nonempty_entries_ = 0;
  DetectionCacheStats stats_;
};

}  // namespace reuse
}  // namespace exsample

#endif  // EXSAMPLE_REUSE_DETECTION_CACHE_H_
