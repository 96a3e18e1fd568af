#include "core/adaptive_exsample.h"

#include <gtest/gtest.h>

#include <set>

#include "core/exsample.h"
#include "query/curves.h"
#include "query/runner.h"
#include "scene/generator.h"
#include "track/oracle_discriminator.h"

namespace exsample {
namespace core {
namespace {

TEST(AdaptiveExSampleTest, StartsWithInitialChunks) {
  AdaptiveExSampleOptions options;
  options.initial_chunks = 8;
  AdaptiveExSampleStrategy strategy(100000, options);
  EXPECT_EQ(strategy.NumChunks(), 8u);
  EXPECT_EQ(strategy.Splits(), 0u);
  EXPECT_EQ(strategy.name(), "exsample-adaptive");
}

TEST(AdaptiveExSampleTest, EmitsUniqueInRangeFrames) {
  AdaptiveExSampleOptions options;
  options.initial_chunks = 4;
  options.split_threshold = 10;
  options.min_chunk_frames = 16;
  AdaptiveExSampleStrategy strategy(4096, options);
  std::set<video::FrameId> seen;
  for (int i = 0; i < 2000; ++i) {
    auto frame = strategy.NextFrame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_LT(*frame, 4096u);
    EXPECT_TRUE(seen.insert(*frame).second) << "duplicate " << *frame;
    // Reward a narrow hot region to force lopsided sampling and splits.
    strategy.Observe(*frame, (*frame >= 1000 && *frame < 1100) ? 1 : 0, 0);
  }
  EXPECT_GT(strategy.Splits(), 0u);
}

TEST(AdaptiveExSampleTest, ExhaustsEntireRange) {
  AdaptiveExSampleOptions options;
  options.initial_chunks = 4;
  options.split_threshold = 8;
  options.min_chunk_frames = 4;
  AdaptiveExSampleStrategy strategy(512, options);
  std::set<video::FrameId> seen;
  for (int i = 0; i < 512; ++i) {
    auto frame = strategy.NextFrame();
    ASSERT_TRUE(frame.has_value()) << "exhausted early at " << i;
    EXPECT_TRUE(seen.insert(*frame).second);
    strategy.Observe(*frame, 0, 0);
  }
  EXPECT_FALSE(strategy.NextFrame().has_value());
  EXPECT_EQ(seen.size(), 512u);
}

TEST(AdaptiveExSampleTest, ExhaustedChunkDoesNotSplit) {
  // Two 32-frame chunks reach the split threshold only with their last
  // frame: nothing is left to hand to halves, so neither splits.
  AdaptiveExSampleOptions options;
  options.initial_chunks = 2;
  options.split_threshold = 32;
  options.min_chunk_frames = 1;
  AdaptiveExSampleStrategy strategy(64, options);
  std::set<video::FrameId> seen;
  for (int i = 0; i < 64; ++i) {
    auto frame = strategy.NextFrame();
    ASSERT_TRUE(frame.has_value()) << "exhausted early at " << i;
    EXPECT_TRUE(seen.insert(*frame).second);
    strategy.Observe(*frame, 1, 0);
  }
  EXPECT_FALSE(strategy.NextFrame().has_value());
  EXPECT_EQ(strategy.Splits(), 0u);
  EXPECT_EQ(strategy.NumChunks(), 2u);
}

TEST(AdaptiveExSampleTest, HalfWithNoFramesLeftIsNeverPicked) {
  // Two-frame chunks split after one sample: the half holding the emitted
  // frame has none left and must not be picked.
  AdaptiveExSampleOptions options;
  options.initial_chunks = 2;
  options.split_threshold = 1;
  options.min_chunk_frames = 1;
  AdaptiveExSampleStrategy strategy(4, options);
  std::set<video::FrameId> seen;
  for (int i = 0; i < 4; ++i) {
    auto frame = strategy.NextFrame();
    ASSERT_TRUE(frame.has_value()) << "exhausted early at " << i;
    EXPECT_TRUE(seen.insert(*frame).second);
    strategy.Observe(*frame, 0, 0);
  }
  EXPECT_FALSE(strategy.NextFrame().has_value());
  EXPECT_EQ(strategy.Splits(), 2u);
  EXPECT_EQ(strategy.NumChunks(), 4u);
}

TEST(AdaptiveExSampleTest, SplitsConcentrateOnHotRegion) {
  AdaptiveExSampleOptions options;
  options.initial_chunks = 2;
  options.split_threshold = 16;
  options.min_chunk_frames = 256;
  AdaptiveExSampleStrategy strategy(1 << 16, options);
  // Hot region: last 1/16 of the range.
  const video::FrameId hot_begin = (1 << 16) - (1 << 12);
  uint64_t hot_hits = 0;
  for (int i = 0; i < 1500; ++i) {
    auto frame = strategy.NextFrame();
    ASSERT_TRUE(frame.has_value());
    const bool hot = *frame >= hot_begin;
    hot_hits += hot ? 1 : 0;
    strategy.Observe(*frame, hot ? 1 : 0, 0);
  }
  // The hot 1/16 should receive far more than 1/16 of the samples.
  EXPECT_GT(hot_hits, 1500u / 4);
  EXPECT_GT(strategy.NumChunks(), 4u);
}

TEST(AdaptiveExSampleTest, RespectsMaxChunksAndMinSize) {
  AdaptiveExSampleOptions options;
  options.initial_chunks = 2;
  options.split_threshold = 4;
  options.min_chunk_frames = 64;
  options.max_chunks = 8;
  AdaptiveExSampleStrategy strategy(4096, options);
  for (int i = 0; i < 3000; ++i) {
    auto frame = strategy.NextFrame();
    if (!frame.has_value()) break;
    strategy.Observe(*frame, 1, 0);
  }
  EXPECT_LE(strategy.NumChunks(), 8u);
}

TEST(AdaptiveExSampleTest, SingleFrameTimeline) {
  AdaptiveExSampleOptions options;
  options.initial_chunks = 8;  // Clamped to the frame count.
  AdaptiveExSampleStrategy strategy(1, options);
  EXPECT_EQ(strategy.NumChunks(), 1u);
  auto frame = strategy.NextFrame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, 0u);
  strategy.Observe(*frame, 1, 0);
  EXPECT_FALSE(strategy.NextFrame().has_value());
}

TEST(AdaptiveExSampleTest, ObserveRoutesToCorrectChunkAfterSplits) {
  // Feed observations at known frames and verify via total sample counts
  // that the internal chunk lookup stays consistent while chunks multiply.
  AdaptiveExSampleOptions options;
  options.initial_chunks = 4;
  options.split_threshold = 8;
  options.min_chunk_frames = 32;
  AdaptiveExSampleStrategy strategy(1 << 14, options);
  common::Rng rng(77);
  uint64_t observed = 0;
  for (int i = 0; i < 600; ++i) {
    // Mix strategy-driven frames with externally chosen ones (batch replay).
    const video::FrameId frame =
        (i % 3 == 0) ? rng.NextBounded(1 << 14)
                     : strategy.NextFrame().value_or(rng.NextBounded(1 << 14));
    strategy.Observe(frame, rng.NextBounded(2), 0);
    ++observed;
  }
  EXPECT_GT(strategy.Splits(), 0u);
  EXPECT_GT(strategy.NumChunks(), 4u);
  EXPECT_LE(strategy.NumChunks(), options.max_chunks);
  (void)observed;
}

TEST(AdaptiveExSampleTest, BeatsCoarseStaticChunkingUnderSkew) {
  // The point of the extension: start with 8 chunks, end up competitive with
  // well-chosen static chunking on a skewed scene.
  common::Rng rng(5);
  const uint64_t frames = 1 << 21;
  scene::SceneSpec spec;
  spec.total_frames = frames;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 500;
  cls.duration.mean_frames = 300.0;
  cls.placement = scene::PlacementSpec::NormalCenter(1.0 / 64);
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, nullptr, rng)).value();

  auto run = [&](query::SearchStrategy* strategy) {
    detect::SimulatedDetector detector(&truth, detect::DetectorOptions::Perfect(0));
    track::OracleDiscriminator discrim;
    query::RunnerOptions ropts;
    ropts.true_distinct_target = 250;
    ropts.max_samples = 400000;
    query::QueryRunner runner(&truth, &detector, &discrim, ropts);
    return runner.Run(strategy);
  };

  std::vector<query::QueryTrace> coarse_runs, adaptive_runs;
  auto coarse_chunking = video::MakeFixedCountChunks(frames, 8).value();
  for (uint64_t seed = 0; seed < 3; ++seed) {
    ExSampleOptions copts;
    copts.seed = 100 + seed;
    ExSampleStrategy coarse(&coarse_chunking, copts);
    coarse_runs.push_back(run(&coarse));

    AdaptiveExSampleOptions aopts;
    aopts.initial_chunks = 8;
    aopts.seed = 200 + seed;
    AdaptiveExSampleStrategy adaptive(frames, aopts);
    adaptive_runs.push_back(run(&adaptive));
  }
  const auto coarse_median = query::MedianSamplesToRecall(coarse_runs, 0.5);
  const auto adaptive_median = query::MedianSamplesToRecall(adaptive_runs, 0.5);
  ASSERT_TRUE(coarse_median.has_value());
  ASSERT_TRUE(adaptive_median.has_value());
  // With 8 static chunks the max exploitable skew is 8x/2; adaptive should
  // localize the 1/64 hot region much more tightly.
  EXPECT_LT(*adaptive_median, *coarse_median);
}

}  // namespace
}  // namespace core
}  // namespace exsample
