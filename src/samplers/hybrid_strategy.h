#ifndef EXSAMPLE_SAMPLERS_HYBRID_STRATEGY_H_
#define EXSAMPLE_SAMPLERS_HYBRID_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/belief_policy.h"
#include "core/chunk_stats.h"
#include "core/frame_sampler.h"
#include "detect/proxy.h"
#include "query/strategy.h"
#include "video/chunking.h"

namespace exsample {
namespace samplers {

/// \brief Options for the ExSample+proxy fusion strategy.
struct HybridOptions {
  /// Gamma prior of the chunk beliefs (as in plain ExSample).
  core::BeliefParams belief;
  /// Candidate frames scored per detector invocation. 1 reduces to plain
  /// ExSample (no scoring cost); larger values trade cheap scoring time for
  /// fewer wasted detector calls.
  size_t candidates_per_pick = 8;
  /// Seed of the strategy's random stream.
  uint64_t seed = 1;
  /// Optional per-chunk prior overrides (cross-query warm start,
  /// `reuse::BeliefBank`), as in `core::ExSampleOptions::chunk_priors`:
  /// empty (the default) keeps the flat `belief` prior everywhere.
  std::vector<core::BeliefParams> chunk_priors;
};

/// \brief The paper's Sec. VII "future work" fusion of ExSample and
/// proxy-based search — implemented without any dataset scan.
///
/// Chunk choice is exactly ExSample's Thompson sampling; *within* the chosen
/// chunk the strategy draws `candidates_per_pick` frames from the stratified
/// sampler, scores only those with the cheap proxy model (paying its
/// per-frame cost incrementally via `CumulativeOverheadSeconds`), and sends
/// the best-scoring candidate to the detector. The paper notes the Sec. III
/// estimates "remain valid even if sampling within a chunk is non-uniform
/// but based on a score", and that the missing piece of proxy methods is "a
/// form of predictive scoring of frames that avoids scanning" — this is that
/// piece: scoring cost scales with frames *sampled*, not with the dataset.
class HybridProxyExSampleStrategy : public query::SearchStrategy {
 public:
  HybridProxyExSampleStrategy(const video::Chunking* chunking,
                              const detect::ProxyScorer* scorer,
                              HybridOptions options = {});

  std::optional<video::FrameId> NextFrame() override;
  void Observe(video::FrameId frame, size_t new_results, size_t once_matched) override;
  // Batch execution uses the base-class adapters: a hybrid batch is
  // `max_frames` independent Thompson picks (each refined by proxy-scored
  // candidates) against the current beliefs, which is exactly what looping
  // NextFrame without intervening feedback produces.
  double CumulativeOverheadSeconds() const override { return scoring_seconds_; }
  std::string name() const override;

  /// \brief Frames scored by the proxy so far (cost accounting and tests).
  uint64_t FramesScored() const { return frames_scored_; }

  /// \brief Read access to the chunk statistics.
  const core::ChunkStatsTable& Stats() const { return stats_; }

  // Posterior export for cross-query warm starts (reuse::BeliefBank).
  const core::ChunkStatsTable* ChunkStatistics() const override { return &stats_; }

 private:
  core::FrameSampler* SamplerFor(size_t chunk);

  const video::Chunking* chunking_;
  const detect::ProxyScorer* scorer_;
  HybridOptions options_;
  common::Rng rng_;
  core::ChunkStatsTable stats_;
  core::ThompsonPolicy policy_;
  std::vector<std::unique_ptr<core::FrameSampler>> samplers_;
  uint64_t frames_scored_ = 0;
  double scoring_seconds_ = 0.0;
};

}  // namespace samplers
}  // namespace exsample

#endif  // EXSAMPLE_SAMPLERS_HYBRID_STRATEGY_H_
