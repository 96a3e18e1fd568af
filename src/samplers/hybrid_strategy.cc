#include "samplers/hybrid_strategy.h"

#include "common/hash.h"

namespace exsample {
namespace samplers {

HybridProxyExSampleStrategy::HybridProxyExSampleStrategy(
    const video::Chunking* chunking, const detect::ProxyScorer* scorer,
    HybridOptions options)
    : chunking_(chunking),
      scorer_(scorer),
      options_(options),
      rng_(options.seed),
      stats_(chunking->NumChunks(), options.belief, options.chunk_priors),
      samplers_(chunking->NumChunks()) {
  common::Check(options_.candidates_per_pick >= 1,
                "HybridOptions: candidates_per_pick must be >= 1");
}

core::FrameSampler* HybridProxyExSampleStrategy::SamplerFor(size_t chunk) {
  if (samplers_[chunk] == nullptr) {
    const video::Chunk& c = chunking_->GetChunk(chunk);
    samplers_[chunk] =
        std::make_unique<core::StratifiedFrameSampler>(c.begin, c.end,
                                                       common::HashCombine(
                                                           options_.seed, chunk));
  }
  return samplers_[chunk].get();
}

std::optional<video::FrameId> HybridProxyExSampleStrategy::NextFrame() {
  if (stats_.EligibleChunks() == 0) return std::nullopt;
  const size_t chunk = policy_.PickChunk(stats_, rng_);
  core::FrameSampler* sampler = SamplerFor(chunk);

  // Draw up to `candidates_per_pick` frames from the chunk and keep the one
  // the proxy likes best. Unselected candidates are consumed (they stay
  // skipped): the within-chunk distribution becomes score-weighted, which the
  // Sec. III estimates tolerate.
  std::optional<video::FrameId> best;
  double best_score = -1.0;
  for (size_t c = 0; c < options_.candidates_per_pick; ++c) {
    const std::optional<video::FrameId> frame = sampler->Next(rng_);
    if (!frame.has_value()) break;
    double score;
    if (options_.candidates_per_pick == 1) {
      score = 0.0;  // No scoring needed when there is no choice.
    } else {
      score = scorer_->Score(*frame);
      ++frames_scored_;
      scoring_seconds_ += scorer_->SecondsPerFrame();
    }
    if (score > best_score || !best.has_value()) {
      best_score = score;
      best = frame;
    }
  }
  if (sampler->Remaining() == 0) stats_.Retire(chunk);
  return best;
}

void HybridProxyExSampleStrategy::Observe(video::FrameId frame, size_t new_results,
                                          size_t once_matched) {
  const auto chunk = chunking_->ChunkOfFrame(frame);
  common::CheckOk(chunk.status(),
                  "HybridProxyExSampleStrategy::Observe: frame outside chunking");
  stats_.Update(chunk.value(), new_results, once_matched);
}

std::string HybridProxyExSampleStrategy::name() const {
  return "exsample+proxy/k" + std::to_string(options_.candidates_per_pick);
}

}  // namespace samplers
}  // namespace exsample
