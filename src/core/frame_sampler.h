#ifndef EXSAMPLE_CORE_FRAME_SAMPLER_H_
#define EXSAMPLE_CORE_FRAME_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/permutation.h"
#include "common/rng.h"
#include "video/repository.h"

namespace exsample {
namespace core {

/// \brief Draws frames from one frame range [begin, end) without replacement.
///
/// Implementations back Algorithm 1's `chunks[j*].sample()` (line 7). They
/// must eventually emit every frame in the range exactly once.
class FrameSampler {
 public:
  virtual ~FrameSampler() = default;

  /// \brief Next frame, or nullopt when every frame has been emitted.
  virtual std::optional<video::FrameId> Next(common::Rng& rng) = 0;

  /// \brief Frames not yet emitted.
  virtual uint64_t Remaining() const = 0;
};

/// \brief Uniform sampling without replacement, in O(1) memory, by walking a
/// keyed pseudo-random permutation of the range.
class UniformFrameSampler : public FrameSampler {
 public:
  UniformFrameSampler(video::FrameId begin, video::FrameId end, uint64_t key);

  std::optional<video::FrameId> Next(common::Rng& rng) override;
  uint64_t Remaining() const override { return size_ - cursor_; }

 private:
  video::FrameId begin_;
  uint64_t size_;
  uint64_t cursor_ = 0;
  common::RandomPermutation perm_;
};

/// \brief The paper's "random+" sampler (Sec. III-F): stratified sampling
/// that deliberately avoids frames temporally near previous samples.
///
/// Level k partitions the range into 2^k equal strata. Within a level the
/// strata are visited in pseudo-random order; a stratum that already contains
/// a sample (from a coarser level) is skipped, and one uniformly random
/// not-yet-sampled frame is drawn from each remaining stratum. When strata
/// shrink to single frames the process degenerates into plain without-
/// replacement sampling, so the full range is eventually covered.
class StratifiedFrameSampler : public FrameSampler {
 public:
  StratifiedFrameSampler(video::FrameId begin, video::FrameId end, uint64_t key);

  std::optional<video::FrameId> Next(common::Rng& rng) override;
  uint64_t Remaining() const override { return size_ - sampled_.size(); }

  /// \brief Consumes this sampler, handing the frames it has not emitted to
  /// two samplers over [begin, mid) and [mid, end), keyed `left_key` and
  /// `right_key`. Each half starts at level 0 with this sampler's emitted
  /// frames in its range counted as emitted, so together the halves emit
  /// exactly the rest, each inside its own half. Requires begin < mid < end.
  std::pair<StratifiedFrameSampler, StratifiedFrameSampler> Split(
      video::FrameId mid, uint64_t left_key, uint64_t right_key) &&;

  /// \brief The current stratification level (exposed for tests).
  uint32_t level() const { return level_; }

 private:
  // Stratum s at the current level covers offsets
  // [floor(size*s/2^level), floor(size*(s+1)/2^level)).
  uint64_t StratumBegin(uint64_t stratum) const;
  bool StratumHasSample(uint64_t stratum_begin, uint64_t stratum_end) const;
  void DescendLevel();

  video::FrameId begin_;
  uint64_t size_;
  uint64_t key_;
  uint32_t level_ = 0;
  uint64_t level_size_ = 1;    // 2^level_, capped at size_ semantics.
  uint64_t level_cursor_ = 0;  // Next stratum visit index at this level.
  std::unique_ptr<common::RandomPermutation> level_perm_;
  std::set<uint64_t> sampled_;  // Offsets already emitted (ordered for range
                                // emptiness checks).
};

/// \brief Factory selector for within-chunk sampling.
enum class WithinChunkSampling {
  kStratified,  // random+ (the paper's default inside ExSample)
  kUniform,     // plain without-replacement
};

/// \brief Creates a sampler of the given kind over [begin, end).
std::unique_ptr<FrameSampler> MakeFrameSampler(WithinChunkSampling kind,
                                               video::FrameId begin, video::FrameId end,
                                               uint64_t key);

}  // namespace core
}  // namespace exsample

#endif  // EXSAMPLE_CORE_FRAME_SAMPLER_H_
