#include "core/adaptive_exsample.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/hash.h"

namespace exsample {
namespace core {

AdaptiveExSampleStrategy::AdaptiveExSampleStrategy(uint64_t total_frames,
                                                   AdaptiveExSampleOptions options)
    : options_(options),
      rng_(options.seed),
      stats_(std::max<size_t>(1, std::min<uint64_t>(options.initial_chunks,
                                                     total_frames)),
             options.belief),
      initial_chunks_(stats_.NumChunks()) {
  assert(total_frames > 0);
  for (size_t i = 0; i < initial_chunks_; ++i) {
    const video::FrameId begin = total_frames * i / initial_chunks_;
    const video::FrameId end = total_frames * (i + 1) / initial_chunks_;
    // Chunk j's sampler is keyed (seed, j), as ExSample keys its own.
    const uint64_t key = common::HashCombine(options_.seed, i);
    nodes_.push_back(Node{begin, end, StratifiedFrameSampler(begin, end, key)});
  }
}

size_t AdaptiveExSampleStrategy::ChunkOfFrame(video::FrameId frame) const {
  // The initial chunks tile the timeline in order; each split halves one.
  size_t chunk = std::partition_point(nodes_.begin(), nodes_.begin() + initial_chunks_,
                                      [frame](const Node& n) { return n.end <= frame; }) -
                 nodes_.begin();
  common::Check(chunk < initial_chunks_, "AdaptiveExSampleStrategy: frame past the end");
  while (nodes_[chunk].left != 0) {
    const size_t left = nodes_[chunk].left;
    chunk = frame < nodes_[left].end ? left : left + 1;
  }
  return chunk;
}

std::optional<video::FrameId> AdaptiveExSampleStrategy::NextFrame() {
  if (stats_.EligibleChunks() == 0) return std::nullopt;
  const size_t chunk = policy_.PickChunk(stats_, rng_);
  StratifiedFrameSampler& sampler = nodes_[chunk].sampler;
  const std::optional<video::FrameId> frame = sampler.Next(rng_);
  common::Check(frame.has_value(),
                "AdaptiveExSampleStrategy: eligible chunk returned no frame");
  if (sampler.Remaining() == 0) stats_.Retire(chunk);
  return frame;
}

void AdaptiveExSampleStrategy::MaybeSplit(size_t chunk) {
  // An exhausted chunk is retired, and so is a split one.
  if (!stats_.Eligible(chunk)) return;
  if (stats_.State(chunk).n < options_.split_threshold) return;
  if (NumChunks() >= options_.max_chunks) return;
  const video::FrameId begin = nodes_[chunk].begin;
  const video::FrameId end = nodes_[chunk].end;
  if (end - begin < 2 * options_.min_chunk_frames) return;

  // Without per-frame bookkeeping we do not know which half earned which
  // results; each child's prior carries a *discounted* share of the parent's
  // evidence in whole pseudo-counts. The rate estimate carries over, but the
  // widened belief lets a handful of fresh samples separate the hot child
  // from the cold one. The parent's evidence, counts plus whole inherited
  // counts, is whole: rounding drops the residue of the base prior.
  const stats::GammaBelief parent = stats_.Belief(chunk);
  const double share = 0.5 * options_.inherit_fraction;
  const auto inherit = [share](double evidence) {
    return std::floor(share * std::round(evidence));
  };
  BeliefParams prior = options_.belief;
  prior.alpha0 += inherit(parent.alpha() - prior.alpha0);
  prior.beta0 += inherit(parent.beta() - prior.beta0);

  const video::FrameId mid = begin + (end - begin) / 2;
  const size_t left = stats_.NumChunks();  // The halves' indices: left, left + 1.
  auto halves = std::move(nodes_[chunk].sampler)
                    .Split(mid, common::HashCombine(options_.seed, left),
                           common::HashCombine(options_.seed, left + 1));
  stats_.Retire(chunk);
  stats_.AddChunk(prior);
  stats_.AddChunk(prior);
  nodes_[chunk].left = left;
  nodes_.push_back(Node{begin, mid, std::move(halves.first)});
  nodes_.push_back(Node{mid, end, std::move(halves.second)});
  // A half whose frames the parent already emitted has none left to give.
  for (const size_t half : {left, left + 1}) {
    if (nodes_[half].sampler.Remaining() == 0) stats_.Retire(half);
  }
  ++splits_;
}

void AdaptiveExSampleStrategy::Observe(video::FrameId frame, size_t new_results,
                                       size_t once_matched) {
  const size_t chunk = ChunkOfFrame(frame);
  stats_.Update(chunk, new_results, once_matched);
  MaybeSplit(chunk);
}

}  // namespace core
}  // namespace exsample
