#include "core/exsample.h"

#include <gtest/gtest.h>

#include <set>

#include "video/chunking.h"

namespace exsample {
namespace core {
namespace {

video::Chunking SmallChunking(uint64_t frames, size_t chunks) {
  return video::MakeFixedCountChunks(frames, chunks).value();
}

TEST(ExSampleStrategyTest, EmitsFramesWithinRepository) {
  const video::Chunking chunking = SmallChunking(1000, 4);
  ExSampleStrategy strategy(&chunking);
  for (int i = 0; i < 200; ++i) {
    auto frame = strategy.NextFrame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_LT(*frame, 1000u);
    strategy.Observe(*frame, 0, 0);
  }
}

TEST(ExSampleStrategyTest, ExhaustsEveryFrameExactlyOnce) {
  const video::Chunking chunking = SmallChunking(256, 4);
  ExSampleStrategy strategy(&chunking);
  std::set<video::FrameId> seen;
  for (int i = 0; i < 256; ++i) {
    auto frame = strategy.NextFrame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(seen.insert(*frame).second);
    strategy.Observe(*frame, 0, 0);
  }
  EXPECT_FALSE(strategy.NextFrame().has_value());
  EXPECT_EQ(strategy.EligibleChunks(), 0u);
}

TEST(ExSampleStrategyTest, ObserveUpdatesTheRightChunk) {
  const video::Chunking chunking = SmallChunking(1000, 4);
  ExSampleStrategy strategy(&chunking);
  // Feed synthetic feedback for frames we place explicitly.
  strategy.Observe(10, 2, 0);    // Chunk 0.
  strategy.Observe(260, 1, 1);   // Chunk 1.
  strategy.Observe(990, 0, 3);   // Chunk 3.
  const ChunkStatsTable& stats = strategy.Stats();
  EXPECT_EQ(stats.State(0).n1, 2);
  EXPECT_EQ(stats.State(0).n, 1u);
  EXPECT_EQ(stats.State(1).n1, 0);
  EXPECT_EQ(stats.State(3).n1, -3);
  EXPECT_EQ(stats.State(2).n, 0u);
}

TEST(ExSampleStrategyTest, ConcentratesOnRewardingChunk) {
  // Reward every sample from chunk 2; after a burn-in, the strategy should
  // send the bulk of its samples there (the bandit behaviour of Sec. III).
  const video::Chunking chunking = SmallChunking(40000, 8);
  ExSampleOptions options;
  options.seed = 5;
  ExSampleStrategy strategy(&chunking, options);
  uint64_t to_chunk2 = 0;
  for (int i = 0; i < 2000; ++i) {
    auto frame = strategy.NextFrame();
    ASSERT_TRUE(frame.has_value());
    const uint32_t chunk = chunking.ChunkOfFrame(*frame).value();
    if (chunk == 2) {
      ++to_chunk2;
      strategy.Observe(*frame, 1, 0);  // Always a fresh result.
    } else {
      strategy.Observe(*frame, 0, 0);  // Never anything.
    }
  }
  EXPECT_GT(to_chunk2, 1200u);
}

TEST(ExSampleStrategyTest, RefocusesWhenChunkDriesUp) {
  // Chunk 0 rewards for a while, then dries up (d1 feedback); chunk 1 starts
  // rewarding. ExSample must shift its allocation (the paper: "as new
  // results are exhausted, ExSample naturally refocuses its sampling").
  const video::Chunking chunking = SmallChunking(40000, 2);
  ExSampleOptions options;
  options.seed = 6;
  ExSampleStrategy strategy(&chunking, options);
  // Phase 1: chunk 0 productive.
  for (int i = 0; i < 300; ++i) {
    auto frame = strategy.NextFrame();
    const uint32_t chunk = chunking.ChunkOfFrame(*frame).value();
    strategy.Observe(*frame, chunk == 0 ? 1 : 0, 0);
  }
  // Phase 2: chunk 0 only re-finds old objects; chunk 1 has fresh ones.
  uint64_t to_chunk1 = 0;
  for (int i = 0; i < 1500; ++i) {
    auto frame = strategy.NextFrame();
    const uint32_t chunk = chunking.ChunkOfFrame(*frame).value();
    if (chunk == 0) {
      strategy.Observe(*frame, 0, 1);  // Every detection matches once: N1 falls.
    } else {
      strategy.Observe(*frame, 1, 0);
      ++to_chunk1;
    }
  }
  EXPECT_GT(to_chunk1, 750u);
}

TEST(ExSampleStrategyTest, BatchedUpdatesAreCommutative) {
  // Batched mode draws B frames per belief refresh (Sec. III-F); the chunk
  // statistics after observing a batch must match the unbatched bookkeeping.
  const video::Chunking chunking = SmallChunking(10000, 4);
  ExSampleOptions options;
  options.seed = 7;
  ExSampleStrategy strategy(&chunking, options);
  const std::vector<video::FrameId> frames = strategy.NextBatch(16);
  ASSERT_EQ(frames.size(), 16u);
  for (video::FrameId f : frames) strategy.Observe(f, 1, 0);
  uint64_t total_n = 0;
  int64_t total_n1 = 0;
  for (size_t j = 0; j < 4; ++j) {
    total_n += strategy.Stats().State(j).n;
    total_n1 += strategy.Stats().State(j).n1;
  }
  EXPECT_EQ(total_n, 16u);
  EXPECT_EQ(total_n1, 16);
}

TEST(ExSampleStrategyTest, BatchedStillExhaustsCleanly) {
  const video::Chunking chunking = SmallChunking(64, 4);
  ExSampleStrategy strategy(&chunking);
  std::set<video::FrameId> seen;
  for (int b = 0; b < 4; ++b) {
    const std::vector<video::FrameId> batch = strategy.NextBatch(16);
    ASSERT_EQ(batch.size(), 16u);
    for (const video::FrameId frame : batch) {
      EXPECT_TRUE(seen.insert(frame).second);
      strategy.Observe(frame, 0, 0);
    }
  }
  EXPECT_TRUE(strategy.NextBatch(16).empty());
}

TEST(ExSampleStrategyTest, DeterministicBySeed) {
  const video::Chunking chunking = SmallChunking(5000, 8);
  ExSampleOptions options;
  options.seed = 42;
  ExSampleStrategy a(&chunking, options), b(&chunking, options);
  for (int i = 0; i < 500; ++i) {
    auto fa = a.NextFrame();
    auto fb = b.NextFrame();
    ASSERT_EQ(fa, fb);
    a.Observe(*fa, i % 7 == 0 ? 1 : 0, 0);
    b.Observe(*fb, i % 7 == 0 ? 1 : 0, 0);
  }
}

TEST(ExSampleStrategyTest, NamesReflectConfiguration) {
  const video::Chunking chunking = SmallChunking(100, 2);
  EXPECT_EQ(ExSampleStrategy(&chunking).name(), "exsample");
  ExSampleOptions ucb;
  ucb.policy = ExSampleOptions::Policy::kBayesUcb;
  EXPECT_EQ(ExSampleStrategy(&chunking, ucb).name(), "exsample-ucb");
  ExSampleOptions uniform;
  uniform.within_chunk = WithinChunkSampling::kUniform;
  EXPECT_EQ(ExSampleStrategy(&chunking, uniform).name(), "exsample+unif");
  ExSampleOptions greedy;
  greedy.policy = ExSampleOptions::Policy::kGreedy;
  EXPECT_EQ(ExSampleStrategy(&chunking, greedy).name(), "exsample-greedy");
}

TEST(MakeChunkPolicyTest, ConstructsEveryKind) {
  EXPECT_EQ(MakeChunkPolicy(ExSampleOptions::Policy::kThompson)->name(), "thompson");
  EXPECT_EQ(MakeChunkPolicy(ExSampleOptions::Policy::kBayesUcb)->name(), "bayes-ucb");
  EXPECT_EQ(MakeChunkPolicy(ExSampleOptions::Policy::kGreedy)->name(), "greedy");
  EXPECT_EQ(MakeChunkPolicy(ExSampleOptions::Policy::kUniform)->name(), "uniform-chunk");
}

TEST(ExSampleStrategyTest, SingleChunkBehavesLikeRandom) {
  // With one chunk there is nothing to adapt: the strategy must still emit
  // all frames without replacement (paper Sec. IV-C: one chunk == random).
  const video::Chunking chunking = SmallChunking(128, 1);
  ExSampleStrategy strategy(&chunking);
  std::set<video::FrameId> seen;
  for (int i = 0; i < 128; ++i) {
    auto frame = strategy.NextFrame();
    ASSERT_TRUE(frame.has_value());
    seen.insert(*frame);
    strategy.Observe(*frame, 0, 0);
  }
  EXPECT_EQ(seen.size(), 128u);
}

}  // namespace
}  // namespace core
}  // namespace exsample
