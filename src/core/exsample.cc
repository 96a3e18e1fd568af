#include "core/exsample.h"

#include "common/hash.h"

namespace exsample {
namespace core {

std::unique_ptr<ChunkPolicy> MakeChunkPolicy(ExSampleOptions::Policy policy) {
  switch (policy) {
    case ExSampleOptions::Policy::kThompson:
      return std::make_unique<ThompsonPolicy>();
    case ExSampleOptions::Policy::kBayesUcb:
      return std::make_unique<BayesUcbPolicy>();
    case ExSampleOptions::Policy::kGreedy:
      return std::make_unique<GreedyPolicy>();
    case ExSampleOptions::Policy::kUniform:
      return std::make_unique<UniformChunkPolicy>();
  }
  // Out-of-range enum values (e.g. a miscast integer) must not silently
  // produce a null policy that later dereferences or corrupts statistics.
  common::FatalError("MakeChunkPolicy: out-of-range ExSampleOptions::Policy value");
}

ExSampleStrategy::ExSampleStrategy(const video::Chunking* chunking,
                                   ExSampleOptions options)
    : chunking_(chunking),
      options_(options),
      rng_(options.seed),
      stats_(chunking->NumChunks(), options.belief, options.chunk_priors),
      policy_(MakeChunkPolicy(options.policy)),
      samplers_(chunking->NumChunks()) {}

FrameSampler* ExSampleStrategy::SamplerFor(size_t chunk) {
  if (samplers_[chunk] == nullptr) {
    const video::Chunk& c = chunking_->GetChunk(chunk);
    samplers_[chunk] = MakeFrameSampler(options_.within_chunk, c.begin, c.end,
                                        common::HashCombine(options_.seed, chunk));
  }
  return samplers_[chunk].get();
}

std::optional<video::FrameId> ExSampleStrategy::NextFrame() {
  if (stats_.EligibleChunks() == 0) return std::nullopt;
  const size_t chunk = policy_->PickChunk(stats_, rng_);
  FrameSampler* sampler = SamplerFor(chunk);
  const std::optional<video::FrameId> frame = sampler->Next(rng_);
  common::Check(frame.has_value(),
                "ExSampleStrategy: eligible chunk returned no frame");
  if (sampler->Remaining() == 0) stats_.Retire(chunk);
  return frame;
}

void ExSampleStrategy::Observe(video::FrameId frame, size_t new_results,
                               size_t once_matched) {
  const auto chunk = chunking_->ChunkOfFrame(frame);
  // A frame outside the chunking would mis-attribute evidence; that must be
  // loud in release builds too.
  common::CheckOk(chunk.status(), "ExSampleStrategy::Observe: frame outside chunking");
  stats_.Update(chunk.value(), new_results, once_matched);
}

std::string ExSampleStrategy::name() const {
  std::string name = "exsample";
  switch (options_.policy) {
    case ExSampleOptions::Policy::kThompson:
      break;
    case ExSampleOptions::Policy::kBayesUcb:
      name += "-ucb";
      break;
    case ExSampleOptions::Policy::kGreedy:
      name += "-greedy";
      break;
    case ExSampleOptions::Policy::kUniform:
      name += "-uniformchunk";
      break;
  }
  if (options_.within_chunk == WithinChunkSampling::kUniform) name += "+unif";
  return name;
}

}  // namespace core
}  // namespace exsample
