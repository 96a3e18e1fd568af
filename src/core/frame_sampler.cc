#include "core/frame_sampler.h"

#include <cassert>

#include "common/hash.h"

namespace exsample {
namespace core {

UniformFrameSampler::UniformFrameSampler(video::FrameId begin, video::FrameId end,
                                         uint64_t key)
    : begin_(begin), size_(end - begin), perm_(end - begin, key) {
  assert(end > begin);
}

std::optional<video::FrameId> UniformFrameSampler::Next(common::Rng& /*rng*/) {
  if (cursor_ >= size_) return std::nullopt;
  return begin_ + perm_(cursor_++);
}

StratifiedFrameSampler::StratifiedFrameSampler(video::FrameId begin, video::FrameId end,
                                               uint64_t key)
    : begin_(begin), size_(end - begin), key_(key) {
  assert(end > begin);
  level_perm_ = std::make_unique<common::RandomPermutation>(1, key_);
}

uint64_t StratifiedFrameSampler::StratumBegin(uint64_t stratum) const {
  // Proportional split avoids empty leading strata when size_ is not a
  // multiple of the stratum count. Computed in 128 bits to avoid overflow
  // for large repositories.
  return static_cast<uint64_t>((static_cast<__uint128_t>(size_) * stratum) /
                               level_size_);
}

bool StratifiedFrameSampler::StratumHasSample(uint64_t stratum_begin,
                                              uint64_t stratum_end) const {
  auto it = sampled_.lower_bound(stratum_begin);
  return it != sampled_.end() && *it < stratum_end;
}

void StratifiedFrameSampler::DescendLevel() {
  ++level_;
  level_size_ = level_size_ << 1;
  level_cursor_ = 0;
  level_perm_ = std::make_unique<common::RandomPermutation>(
      level_size_, common::HashCombine(key_, level_));
}

std::optional<video::FrameId> StratifiedFrameSampler::Next(common::Rng& rng) {
  if (sampled_.size() >= size_) return std::nullopt;
  for (;;) {
    if (level_cursor_ >= level_size_) {
      DescendLevel();
      continue;
    }
    const uint64_t stratum = (*level_perm_)(level_cursor_++);
    const uint64_t stratum_begin = StratumBegin(stratum);
    const uint64_t stratum_end = StratumBegin(stratum + 1);
    if (stratum_end <= stratum_begin) continue;  // Empty stratum (level > log2 n).
    if (StratumHasSample(stratum_begin, stratum_end)) continue;
    // The stratum holds no samples, so any frame inside it is fresh.
    const uint64_t offset = stratum_begin + rng.NextBounded(stratum_end - stratum_begin);
    sampled_.insert(offset);
    return begin_ + offset;
  }
}

std::pair<StratifiedFrameSampler, StratifiedFrameSampler> StratifiedFrameSampler::Split(
    video::FrameId mid, uint64_t left_key, uint64_t right_key) && {
  assert(begin_ < mid && mid < begin_ + size_);
  const uint64_t cut = mid - begin_;
  StratifiedFrameSampler right(mid, begin_ + size_, right_key);
  for (auto it = sampled_.lower_bound(cut); it != sampled_.end();) {
    right.sampled_.insert(right.sampled_.end(), *it - cut);
    it = sampled_.erase(it);
  }
  StratifiedFrameSampler left(begin_, mid, left_key);
  left.sampled_ = std::move(sampled_);
  return {std::move(left), std::move(right)};
}

std::unique_ptr<FrameSampler> MakeFrameSampler(WithinChunkSampling kind,
                                               video::FrameId begin, video::FrameId end,
                                               uint64_t key) {
  switch (kind) {
    case WithinChunkSampling::kStratified:
      return std::make_unique<StratifiedFrameSampler>(begin, end, key);
    case WithinChunkSampling::kUniform:
      return std::make_unique<UniformFrameSampler>(begin, end, key);
  }
  return nullptr;
}

}  // namespace core
}  // namespace exsample
