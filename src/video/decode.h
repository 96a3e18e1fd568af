#ifndef EXSAMPLE_VIDEO_DECODE_H_
#define EXSAMPLE_VIDEO_DECODE_H_

#include <cstdint>

#include "video/repository.h"
#include "stats/stats_json.h"

namespace exsample {
namespace video {

/// \brief Cost model for random-access frame decoding.
///
/// The paper re-encodes video with a keyframe every 20 frames so random reads
/// are cheap (Sec. V-A, using the Hwang library). Decoding frame f requires
/// seeking to the preceding keyframe and decoding forward, so the cost of a
/// random read is `seek_seconds` plus `(f mod keyframe_interval) + 1` frames
/// of decode work. Sequential reads decode exactly one frame.
struct DecodeCostModel {
  /// Frames between keyframes in the re-encoded video.
  uint64_t keyframe_interval = 20;
  /// Fixed per-random-read overhead (container seek, demux).
  double seek_seconds = 0.002;
  /// Throughput of the decoder in frames per second.
  double decode_fps = 500.0;
  /// When > 0, `PerformRead` spends `charged seconds * wall_clock_scale` of
  /// real time per read (a sleep standing in for the decoder's actual work),
  /// so benchmarks can measure decode/detect overlap in wall-clock. 0 (the
  /// default) keeps the store accounting-only, exactly as before.
  double wall_clock_scale = 0.0;

  /// \brief Seconds to randomly access and decode local frame `frame_in_clip`.
  double RandomReadSeconds(uint64_t frame_in_clip) const;

  /// \brief Seconds to decode the next sequential frame.
  double SequentialReadSeconds() const;
};

/// \brief Tallies of decode work performed by a `SimulatedVideoStore`.
struct DecodeStats {
  uint64_t random_reads = 0;
  uint64_t sequential_reads = 0;
  uint64_t frames_decoded = 0;  // Includes keyframe-to-target warmup frames.
  double total_seconds = 0.0;
};

/// Names every field of `DecodeStats` for the stats export.
inline void ExportFields(const DecodeStats& s, stats::StatsWriter& out) {
  const auto& [random_reads, sequential_reads, frames_decoded, total_seconds] = s;
  out.Counter("random_reads", random_reads);
  out.Counter("sequential_reads", sequential_reads);
  out.Counter("frames_decoded", frames_decoded);
  out.Gauge("total_seconds", total_seconds);
}

/// \brief The accounting half of one frame read, produced by
/// `SimulatedVideoStore::PlanRead` and executable by `PerformRead`.
///
/// Splitting a read into plan + perform is what makes asynchronous decode
/// deterministic: plans are made on the coordinator thread in batch order
/// (position state and charged seconds advance exactly as the synchronous
/// loop's would), while the wall-clock work they describe can run on any
/// thread, in any order, concurrently.
struct ReadPlan {
  FrameId frame = 0;
  /// Seconds charged to the trace for this read.
  double seconds = 0.0;
  /// Whether the read continued the store's sequential position.
  bool sequential = false;
  /// Decode work units performed (keyframe warmup + target for random reads).
  uint64_t frames_decoded = 0;
};

/// \brief Simulated frame store that accounts for decode cost.
///
/// Frames are opaque — this class exists so that examples and benchmarks can
/// report realistic I/O+decode accounting alongside detector cost, mirroring
/// the paper's observation that the sampling loop is "dominated first by the
/// detector call, and second by the random read and decode".
///
/// Two call styles share one accounting core:
///  - `ReadAndDecode(frame)` — the synchronous Algorithm 1 read;
///  - `PlanRead(frame)` then `PerformRead(plan)` — the asynchronous split the
///    decode prefetcher uses to overlap decode with detection. Plans made in
///    the same frame order charge bit-identical seconds to the synchronous
///    calls; `PerformRead` touches no store state and is safe to run from any
///    thread. A real decoder backend (FFmpeg) implements `PerformRead`'s
///    contract — do the work for a read the planner already priced.
class SimulatedVideoStore {
 public:
  SimulatedVideoStore(const VideoRepository* repo, DecodeCostModel cost)
      : repo_(repo), cost_(cost) {}

  /// \brief Simulates `video.read_and_decode(frame_id)` (Algorithm 1 line 8).
  ///
  /// Consecutive reads of adjacent frames are charged at the sequential rate;
  /// anything else is a random read. Returns OutOfRange for invalid frames.
  /// Equivalent to `PlanRead` + `PerformRead`.
  common::Status ReadAndDecode(FrameId frame);

  /// \brief Accounting half of a read: classifies `frame` against the current
  /// sequential position, advances the position, updates `Stats()`, and
  /// returns the plan — without performing the decode work. Not thread-safe:
  /// plans must be made from one thread, in read order (that order *is* the
  /// accounting).
  common::Result<ReadPlan> PlanRead(FrameId frame);

  /// \brief Wall-clock half of a read: performs the work `plan` describes.
  /// Touches no store state, so outstanding plans may execute concurrently on
  /// any threads, in any order. With `wall_clock_scale > 0` this sleeps
  /// `plan.seconds * wall_clock_scale`; otherwise it is free.
  void PerformRead(const ReadPlan& plan) const;

  /// \brief Accumulated decode statistics.
  const DecodeStats& Stats() const { return stats_; }

  /// \brief The cost model the store prices reads with.
  const DecodeCostModel& Cost() const { return cost_; }

  /// \brief Resets statistics (not position state).
  void ResetStats() { stats_ = DecodeStats{}; }

 private:
  const VideoRepository* repo_;
  DecodeCostModel cost_;
  DecodeStats stats_;
  bool has_position_ = false;
  FrameId last_frame_ = 0;
};

}  // namespace video
}  // namespace exsample

#endif  // EXSAMPLE_VIDEO_DECODE_H_
