#ifndef EXSAMPLE_REUSE_SCANNED_SKETCH_H_
#define EXSAMPLE_REUSE_SCANNED_SKETCH_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "reuse/reuse_key.h"
#include "stats/stats_json.h"
#include "video/repository.h"

namespace exsample {
namespace reuse {

/// \brief Sizing of the scanned-space sketch.
struct ScannedSketchOptions {
  /// Bits in the Bloom filter recording scanned-and-found-empty (key, frame)
  /// pairs. The default (4 Mbit = 512 KiB) keeps the false-positive rate
  /// well under 1% for a million recorded frames at 4 hashes.
  size_t bloom_bits = size_t{1} << 22;
  /// Hash functions per Bloom insert/query (double hashing).
  size_t num_hashes = 4;
};

/// \brief Counters of one `ScannedSketch` (all keys, all sessions).
struct ScannedSketchStats {
  /// Frames recorded as scanned-and-empty (Bloom inserts).
  uint64_t recorded_empty = 0;
  /// Frames recorded as scanned-and-non-empty (registry inserts).
  uint64_t recorded_nonempty = 0;
  /// `KnownEmpty` queries answered true — each is a safe skip.
  uint64_t known_empty = 0;
  /// Bloom positives rejected by the exact scanned guard: these are exactly
  /// the Bloom false positives that would have skipped a never-scanned frame
  /// — the reason a skip can be advertised as false-positive-*safe*.
  uint64_t guard_rejects = 0;
};

/// Names every field of `ScannedSketchStats` for the stats export.
inline void ExportFields(const ScannedSketchStats& s, stats::StatsWriter& out) {
  const auto& [recorded_empty, recorded_nonempty, known_empty, guard_rejects] = s;
  out.Counter("recorded_empty", recorded_empty);
  out.Counter("recorded_nonempty", recorded_nonempty);
  out.Counter("known_empty", known_empty);
  out.Counter("guard_rejects", guard_rejects);
}

/// \brief Compact record of the scanned outcome space: which (frame, class)
/// pairs earlier queries already detected on and found *empty*.
///
/// The primary structure is a Bloom filter over (key, frame) — constant
/// memory however much video has been scanned, in the spirit of
/// Bloom-filter-backed video retrieval indexes. A raw Bloom answer, though,
/// is only "maybe": acting on a false positive would skip a frame a cold run
/// detects on, and could therefore change answers — unacceptable under this
/// repo's bit-identity contract. The sketch therefore pairs the filter with
/// two exact guards:
///
///  - a per-key scanned bitmap (1 bit per repository frame, allocated per
///    key on first record): `KnownEmpty` answers true only for frames that
///    were *really* scanned, so a Bloom false positive on a never-scanned
///    frame is caught (`guard_rejects`);
///  - an exact registry of scanned-and-non-empty frames: a frame whose scan
///    found detections is never reported empty, however the Bloom bits fall.
///
/// A true `KnownEmpty` is thus a proof, not a bet: the frame was scanned
/// under this exact key and its detection list was empty, so skipping the
/// detector and substituting the empty list reproduces the cold run's bytes.
/// This is the recovery path for cache-evicted empty outcomes — the
/// detection cache evicts empty entries first precisely because the sketch
/// can stand in for them at a fraction of the memory. The exact guards are
/// what the planned persistent/on-disk variant would relax (spilling the
/// bitmap, keeping the filter resident).
///
/// Thread-safe: concurrent sessions record and query under a mutex.
class ScannedSketch {
 public:
  explicit ScannedSketch(ScannedSketchOptions options = {});

  /// \brief Records the outcome of a real detect call on `frame`.
  /// `total_frames` sizes the key's exact scanned bitmap on first use and
  /// must be the keyed repository's `TotalFrames()` (stable per key).
  void RecordScan(const ReuseKey& key, video::FrameId frame, bool found_empty,
                  uint64_t total_frames);

  /// \brief True iff `frame` was scanned under `key` and found empty — safe
  /// to skip detection and substitute an empty detection list.
  bool KnownEmpty(const ReuseKey& key, video::FrameId frame);

  ScannedSketchStats Stats() const;

 private:
  bool BloomMayContainLocked(uint64_t hash) const;
  void BloomInsertLocked(uint64_t hash);

  ScannedSketchOptions options_;
  mutable std::mutex mu_;
  std::vector<uint64_t> bloom_;
  // Exact guards, addressed by full key (never by its hash alone).
  std::unordered_map<ReuseKey, std::vector<uint64_t>, ReuseKeyHash> scanned_;
  std::unordered_set<FrameKey, FrameKeyHash> nonempty_;
  ScannedSketchStats stats_;
};

}  // namespace reuse
}  // namespace exsample

#endif  // EXSAMPLE_REUSE_SCANNED_SKETCH_H_
