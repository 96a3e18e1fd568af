#ifndef EXSAMPLE_CORE_ADAPTIVE_EXSAMPLE_H_
#define EXSAMPLE_CORE_ADAPTIVE_EXSAMPLE_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/belief_policy.h"
#include "core/chunk_stats.h"
#include "core/frame_sampler.h"
#include "query/strategy.h"
#include "video/repository.h"

namespace exsample {
namespace core {

/// \brief Options for the adaptive-chunking ExSample variant.
struct AdaptiveExSampleOptions {
  /// Gamma prior of the chunk beliefs.
  BeliefParams belief;
  /// Number of equal chunks to start from.
  size_t initial_chunks = 8;
  /// A chunk splits in half once it has received this many samples (and both
  /// halves would still hold at least `min_chunk_frames`). A chunk with no
  /// frames left never splits.
  uint64_t split_threshold = 32;
  /// Fraction of a parent's evidence, its (n, N1) plus what it inherited,
  /// that its two children carry as prior pseudo-counts, half each. Small
  /// values make the post-split beliefs wide so a few fresh samples quickly
  /// separate the hot child from the cold one; 1.0 would keep the parent's
  /// confidence and slow adaptation down. In [0, 1].
  double inherit_fraction = 0.25;
  /// Minimum chunk span in frames; prevents splitting into slivers.
  uint64_t min_chunk_frames = 1024;
  /// Hard cap on the number of chunks (safety bound on state).
  size_t max_chunks = 4096;
  /// Seed of the strategy's random stream.
  uint64_t seed = 1;
};

/// \brief Automated chunking (the paper's Sec. VII first future-work item):
/// instead of fixing the chunk partition up front, start coarse and split
/// chunks as evidence accumulates.
///
/// Sec. IV-C shows the chunk-count dilemma: few chunks cap the exploitable
/// skew, many chunks dilute the statistics. Adaptive splitting resolves it —
/// a chunk that has been sampled `split_threshold` times has enough evidence
/// to justify a finer view, so it is halved. Sampling then localizes the
/// productive region at progressively finer scales while cold regions stay
/// coarse.
///
/// The beliefs are ExSample's own: one `ChunkStatsTable` and a Thompson pick
/// over its belief groups. A split retires the parent in the table and
/// appends its two halves, whose priors carry a discounted share of the
/// parent's evidence; the parent's sampler hands its unemitted frames to the
/// halves, so no frame is emitted twice. Table indices double as the nodes of
/// the split tree: a frame's chunk is found by descending from its initial
/// chunk through each split.
class AdaptiveExSampleStrategy : public query::SearchStrategy {
 public:
  AdaptiveExSampleStrategy(uint64_t total_frames,
                           AdaptiveExSampleOptions options = {});

  std::optional<video::FrameId> NextFrame() override;
  void Observe(video::FrameId frame, size_t new_results, size_t once_matched) override;
  std::string name() const override { return "exsample-adaptive"; }

  /// \brief Current number of chunks, i.e. unsplit ones (grows over the run).
  size_t NumChunks() const { return stats_.NumChunks() - splits_; }

  /// \brief Total splits performed.
  uint64_t Splits() const { return splits_; }

 private:
  /// One table chunk: a frame range and its sampler while unsplit; once
  /// split, the table index of its left half (the right half follows it).
  struct Node {
    video::FrameId begin = 0;
    video::FrameId end = 0;
    StratifiedFrameSampler sampler;
    size_t left = 0;  ///< 0 while unsplit: an initial chunk is no one's half.
  };

  /// The unsplit chunk holding `frame`.
  size_t ChunkOfFrame(video::FrameId frame) const;
  void MaybeSplit(size_t chunk);

  AdaptiveExSampleOptions options_;
  common::Rng rng_;
  ChunkStatsTable stats_;
  ThompsonPolicy policy_;
  std::vector<Node> nodes_;  ///< One per table chunk, same index.
  size_t initial_chunks_;
  uint64_t splits_ = 0;
};

}  // namespace core
}  // namespace exsample

#endif  // EXSAMPLE_CORE_ADAPTIVE_EXSAMPLE_H_
