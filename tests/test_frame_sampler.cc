#include "core/frame_sampler.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"

namespace exsample {
namespace core {
namespace {

class UniformSamplerSizeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniformSamplerSizeTest, EmitsEveryFrameExactlyOnce) {
  const uint64_t size = GetParam();
  UniformFrameSampler sampler(1000, 1000 + size, /*key=*/5);
  common::Rng rng(1);
  std::set<video::FrameId> seen;
  for (uint64_t i = 0; i < size; ++i) {
    EXPECT_EQ(sampler.Remaining(), size - i);
    auto frame = sampler.Next(rng);
    ASSERT_TRUE(frame.has_value());
    EXPECT_GE(*frame, 1000u);
    EXPECT_LT(*frame, 1000 + size);
    EXPECT_TRUE(seen.insert(*frame).second) << "duplicate " << *frame;
  }
  EXPECT_FALSE(sampler.Next(rng).has_value());
  EXPECT_EQ(sampler.Remaining(), 0u);
  EXPECT_EQ(seen.size(), size);
}

INSTANTIATE_TEST_SUITE_P(Sizes, UniformSamplerSizeTest,
                         ::testing::Values(1, 2, 3, 64, 100, 1023, 4096));

class StratifiedSamplerSizeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StratifiedSamplerSizeTest, EmitsEveryFrameExactlyOnce) {
  const uint64_t size = GetParam();
  StratifiedFrameSampler sampler(500, 500 + size, /*key=*/7);
  common::Rng rng(2);
  std::set<video::FrameId> seen;
  for (uint64_t i = 0; i < size; ++i) {
    auto frame = sampler.Next(rng);
    ASSERT_TRUE(frame.has_value()) << "exhausted early at " << i;
    EXPECT_GE(*frame, 500u);
    EXPECT_LT(*frame, 500 + size);
    EXPECT_TRUE(seen.insert(*frame).second) << "duplicate " << *frame;
  }
  EXPECT_FALSE(sampler.Next(rng).has_value());
  EXPECT_EQ(seen.size(), size);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StratifiedSamplerSizeTest,
                         ::testing::Values(1, 2, 3, 5, 64, 100, 1023, 4096));

TEST(StratifiedSamplerTest, CoverageAfterLevelCompletion) {
  // The paper's random+ guarantee: after finishing level k, every one of the
  // 2^k equal strata contains at least one sample. (Plain random sampling
  // would need ~k 2^k samples for the same coverage.)
  constexpr uint64_t kSize = 1 << 16;
  StratifiedFrameSampler sampler(0, kSize, 11);
  common::Rng rng(3);
  std::set<video::FrameId> seen;
  constexpr uint32_t kLevel = 6;
  while (sampler.level() <= kLevel) {
    auto frame = sampler.Next(rng);
    ASSERT_TRUE(frame.has_value());
    seen.insert(*frame);
  }
  constexpr uint64_t kStrata = 1 << kLevel;
  for (uint64_t s = 0; s < kStrata; ++s) {
    const uint64_t lo = kSize * s / kStrata;
    const uint64_t hi = kSize * (s + 1) / kStrata;
    auto it = seen.lower_bound(lo);
    EXPECT_TRUE(it != seen.end() && *it < hi) << "stratum " << s << " empty";
  }
}

TEST(StratifiedSamplerTest, AvoidsTemporalClustering) {
  // After n samples from an N-frame range, the smallest pairwise gap should
  // be near N/2n (stratified), not N/n^2 (uniform birthday-style collisions).
  constexpr uint64_t kSize = 1 << 20;
  constexpr int kSamples = 128;
  StratifiedFrameSampler sampler(0, kSize, 13);
  common::Rng rng(4);
  std::set<video::FrameId> seen;
  for (int i = 0; i < kSamples; ++i) {
    seen.insert(*sampler.Next(rng));
  }
  uint64_t min_gap = kSize;
  video::FrameId prev = 0;
  bool first = true;
  for (video::FrameId f : seen) {
    if (!first) min_gap = std::min(min_gap, f - prev);
    prev = f;
    first = false;
  }
  // 128 samples over 2^20 frames: strata of 2^13 guarantee gaps >= 1 within
  // independent strata; empirically the min gap stays far above what uniform
  // sampling yields (uniform: expected min gap ~ kSize/kSamples^2 = 64).
  EXPECT_GT(min_gap, 512u);
}

TEST(StratifiedSamplerTest, FirstSampleIsUniformlySpread) {
  // Level 0 is the whole range: the very first draw lands anywhere.
  std::set<video::FrameId> firsts;
  for (uint64_t key = 0; key < 64; ++key) {
    StratifiedFrameSampler sampler(0, 1024, key);
    common::Rng rng(key);
    firsts.insert(*sampler.Next(rng));
  }
  // 64 independent first draws should not collapse to a few values.
  EXPECT_GT(firsts.size(), 48u);
}

TEST(StratifiedSamplerTest, LevelAdvancesAsSamplesAccumulate) {
  StratifiedFrameSampler sampler(0, 4096, 17);
  common::Rng rng(5);
  EXPECT_EQ(sampler.level(), 0u);
  for (int i = 0; i < 100; ++i) sampler.Next(rng);
  EXPECT_GE(sampler.level(), 6u);  // >= 2^6 visited strata by 100 samples.
  EXPECT_LE(sampler.level(), 8u);
}

TEST(StratifiedSamplerTest, SplitHalvesEmitExactlyTheUnemittedFrames) {
  // After k draws, the two halves together emit the range minus those k
  // frames: each remaining frame once, inside its own half.
  constexpr video::FrameId kBegin = 1000, kMid = 1137, kEnd = 1300;
  for (const uint64_t k : {0, 1, 7, 100, 299, 300}) {
    StratifiedFrameSampler sampler(kBegin, kEnd, /*key=*/19);
    common::Rng rng(k + 1);
    std::set<video::FrameId> emitted;
    for (uint64_t i = 0; i < k; ++i) emitted.insert(*sampler.Next(rng));
    auto halves = std::move(sampler).Split(kMid, /*left_key=*/23, /*right_key=*/29);
    EXPECT_EQ(halves.first.level(), 0u);
    EXPECT_EQ(halves.second.level(), 0u);
    EXPECT_EQ(halves.first.Remaining() + halves.second.Remaining(), kEnd - kBegin - k);
    std::set<video::FrameId> rest;
    const struct {
      StratifiedFrameSampler* half;
      video::FrameId begin, end;
    } parts[] = {{&halves.first, kBegin, kMid}, {&halves.second, kMid, kEnd}};
    for (const auto& part : parts) {
      while (const std::optional<video::FrameId> frame = part.half->Next(rng)) {
        EXPECT_GE(*frame, part.begin) << "k=" << k;
        EXPECT_LT(*frame, part.end) << "k=" << k;
        EXPECT_EQ(emitted.count(*frame), 0u) << "re-emitted " << *frame;
        EXPECT_TRUE(rest.insert(*frame).second) << "duplicate " << *frame;
      }
      EXPECT_EQ(part.half->Remaining(), 0u);
    }
    EXPECT_EQ(rest.size(), kEnd - kBegin - k);
  }
}

TEST(MakeFrameSamplerTest, FactoryKinds) {
  auto uniform = MakeFrameSampler(WithinChunkSampling::kUniform, 0, 10, 1);
  auto stratified = MakeFrameSampler(WithinChunkSampling::kStratified, 0, 10, 1);
  ASSERT_NE(uniform, nullptr);
  ASSERT_NE(stratified, nullptr);
  EXPECT_NE(dynamic_cast<UniformFrameSampler*>(uniform.get()), nullptr);
  EXPECT_NE(dynamic_cast<StratifiedFrameSampler*>(stratified.get()), nullptr);
}

TEST(FrameSamplerTest, DeterministicByKeyAndRngSeed) {
  for (auto kind : {WithinChunkSampling::kUniform, WithinChunkSampling::kStratified}) {
    auto a = MakeFrameSampler(kind, 0, 1000, 3);
    auto b = MakeFrameSampler(kind, 0, 1000, 3);
    common::Rng rng_a(9), rng_b(9);
    for (int i = 0; i < 1000; ++i) {
      EXPECT_EQ(a->Next(rng_a), b->Next(rng_b));
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace exsample
