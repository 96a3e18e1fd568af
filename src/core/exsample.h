#ifndef EXSAMPLE_CORE_EXSAMPLE_H_
#define EXSAMPLE_CORE_EXSAMPLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/belief_policy.h"
#include "core/chunk_stats.h"
#include "core/frame_sampler.h"
#include "query/strategy.h"
#include "video/chunking.h"

namespace exsample {
namespace core {

/// \brief Configuration of the ExSample strategy.
struct ExSampleOptions {
  /// Prior pseudo-counts alpha0/beta0 of the Gamma belief (Eq. III.4).
  BeliefParams belief;

  /// Chunk-selection policy.
  enum class Policy {
    kThompson,  ///< The paper's method (Sec. III-C).
    kBayesUcb,  ///< Quantile-index alternative the paper also evaluated.
    kGreedy,    ///< Point-estimate argmax (ablation; can get stuck).
    kUniform,   ///< Uniform chunk choice (chunk-stratified random).
  };
  Policy policy = Policy::kThompson;

  /// How frames are drawn inside the selected chunk. The paper uses random+
  /// ("we also use random+ to sample within a chunk", Sec. III-F).
  WithinChunkSampling within_chunk = WithinChunkSampling::kStratified;

  /// Seed of the strategy's private random stream.
  uint64_t seed = 1;

  /// Optional per-chunk prior overrides (cross-query warm start,
  /// `reuse::BeliefBank`): `chunk_priors[j]` replaces `belief` as chunk j's
  /// prior pseudo-counts. Must be empty or sized to the chunking's chunk
  /// count. A pure prior change — the update math is untouched, and a vector
  /// of flat priors is bit-identical to none. Ignored by the kUniform policy,
  /// which reads no beliefs.
  std::vector<BeliefParams> chunk_priors;
};

/// \brief ExSample (Algorithm 1): adaptive chunk-based sampling for distinct
/// object limit queries.
///
/// Maintains per-chunk (n, N1) statistics, models the per-chunk rate of new
/// results as Gamma(N1 + alpha0, n + beta0), Thompson-samples a chunk, draws
/// a frame within it (random+ by default), and updates the statistics with
/// the discriminator feedback |d0| - |d1| after each processed frame.
///
/// The heavy steps of Algorithm 1 (decode, detect, discriminate) live in
/// `query::QueryRunner`, shared with every baseline; this class is only the
/// sampling brain — which is the paper's contribution.
class ExSampleStrategy : public query::SearchStrategy {
 public:
  ExSampleStrategy(const video::Chunking* chunking, ExSampleOptions options = {});

  /// \brief One Thompson pick and a draw within the picked chunk (Algorithm 1
  /// lines 6–7); nullopt when no chunk has frames left.
  std::optional<video::FrameId> NextFrame() override;
  void Observe(video::FrameId frame, size_t new_results, size_t once_matched) override;

  // NextBatch / ObserveBatch: the base-class adapters, i.e. the batched
  // Thompson draw of Sec. III-F. (n, N1) updates are additive, so batched
  // bookkeeping matches unbatched bookkeeping exactly.

  std::string name() const override;

  /// \brief Read access to the per-chunk statistics (for inspection, tests,
  /// and the bench harness's skew reports).
  const ChunkStatsTable& Stats() const { return stats_; }

  // Posterior export for cross-query warm starts (reuse::BeliefBank).
  const ChunkStatsTable* ChunkStatistics() const override { return &stats_; }

  /// \brief Number of chunks still holding unsampled frames.
  size_t EligibleChunks() const { return stats_.EligibleChunks(); }

 private:
  FrameSampler* SamplerFor(size_t chunk);

  const video::Chunking* chunking_;
  ExSampleOptions options_;
  common::Rng rng_;
  ChunkStatsTable stats_;
  std::unique_ptr<ChunkPolicy> policy_;
  std::vector<std::unique_ptr<FrameSampler>> samplers_;
};

/// \brief Constructs the chunk policy object for an options value (exposed so
/// benches can reuse policy construction).
std::unique_ptr<ChunkPolicy> MakeChunkPolicy(ExSampleOptions::Policy policy);

}  // namespace core
}  // namespace exsample

#endif  // EXSAMPLE_CORE_EXSAMPLE_H_
