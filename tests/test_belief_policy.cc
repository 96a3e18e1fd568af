#include "core/belief_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "stats/gamma_belief.h"
#include "stats/special_functions.h"

namespace exsample {
namespace core {
namespace {

TEST(ThompsonPolicyTest, ColdStartPicksUniformly) {
  // With identical beliefs everywhere, Thompson sampling breaks ties at
  // random (paper: "during the first execution ... Thompson sampling
  // effectively breaks ties at random").
  ChunkStatsTable stats(4);
  ThompsonPolicy policy;
  common::Rng rng(1);
  std::map<size_t, int> counts;
  for (int i = 0; i < 8000; ++i) {
    ++counts[policy.PickChunk(stats, rng)];
  }
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_GT(counts[j], 1500) << "chunk " << j;
  }
}

TEST(ThompsonPolicyTest, PrefersProductiveChunk) {
  // Chunk 1 has found many unique results; chunk 0 many samples, nothing.
  ChunkStatsTable stats(2);
  for (int i = 0; i < 100; ++i) stats.Update(0, 0, 0);
  for (int i = 0; i < 100; ++i) stats.Update(1, 1, 0);
  ThompsonPolicy policy;
  common::Rng rng(2);
  int chunk1 = 0;
  for (int i = 0; i < 2000; ++i) {
    if (policy.PickChunk(stats, rng) == 1) ++chunk1;
  }
  EXPECT_GT(chunk1, 1900);
}

TEST(ThompsonPolicyTest, StillExploresEmptyChunks) {
  // A chunk with zero results keeps a nonzero pick probability thanks to
  // alpha0 (the paper's rationale for the prior): the Gamma(alpha0, n+beta0)
  // belief has a heavy enough upper tail to occasionally beat a modestly
  // productive chunk.
  ChunkStatsTable stats(2);
  for (int i = 0; i < 5; ++i) stats.Update(0, 0, 0);          // Nothing yet.
  for (int i = 0; i < 5; ++i) stats.Update(1, i == 0 ? 1 : 0, 0);  // One hit.
  ThompsonPolicy policy;
  common::Rng rng(3);
  int explored = 0;
  for (int i = 0; i < 20000; ++i) {
    if (policy.PickChunk(stats, rng) == 0) ++explored;
  }
  EXPECT_GT(explored, 500);
  EXPECT_LT(explored, 10000);  // ...but the productive chunk clearly leads.
}

TEST(ThompsonPolicyTest, RespectsEligibility) {
  ChunkStatsTable stats(3);
  for (int i = 0; i < 100; ++i) stats.Update(1, 5, 0);  // Chunk 1 is by far best...
  stats.Retire(1);                                       // ...but exhausted.
  ThompsonPolicy policy;
  common::Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const size_t pick = policy.PickChunk(stats, rng);
    EXPECT_NE(pick, 1u);
  }
}

TEST(BayesUcbPolicyTest, FavorsUnsampledChunksEarly) {
  // An unsampled chunk has a wide belief; its upper quantile should beat a
  // sampled chunk with mediocre returns.
  ChunkStatsTable stats(2);
  for (int i = 0; i < 200; ++i) stats.Update(0, i % 50 == 0 ? 1 : 0, 0);
  BayesUcbPolicy policy;
  common::Rng rng(5);
  int unexplored_picks = 0;
  for (int i = 0; i < 100; ++i) {
    if (policy.PickChunk(stats, rng) == 1) ++unexplored_picks;
  }
  EXPECT_GT(unexplored_picks, 90);
}

TEST(BayesUcbPolicyTest, ConvergesToBestChunk) {
  ChunkStatsTable stats(2);
  for (int i = 0; i < 500; ++i) stats.Update(0, 0, 0);
  for (int i = 0; i < 500; ++i) stats.Update(1, i % 5 == 0 ? 1 : 0, 0);
  BayesUcbPolicy policy;
  common::Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(policy.PickChunk(stats, rng), 1u);
  }
}

TEST(BayesUcbPolicyTest, IndexIsTheUpperTailQuantile) {
  const double beta = 2.5;
  for (const double alpha : {0.1, 1.1, 5.1, 50.1}) {
    for (double t = 10.0; t <= 1e13; t *= 10.0) {
      const double index = BayesUcbPolicy::Index(alpha, beta, t);
      const double tail = std::max(1.0 / t, 1e-12);
      EXPECT_NEAR(stats::RegularizedGammaQ(alpha, beta * index) / tail, 1.0, 1e-9)
          << "alpha " << alpha << " t " << t;
      // The lower-tail quantile it replaces stops on an absolute 1e-12 in P,
      // so it is a reference only while 1/t is far above that.
      if (t <= 1e4) {
        const double lower = stats::GammaBelief(alpha, beta).Quantile(1.0 - 1.0 / t);
        EXPECT_NEAR(index / lower, 1.0, 1e-6) << "alpha " << alpha << " t " << t;
      }
    }
  }
}

TEST(GreedyPolicyTest, PicksHighestPointEstimate) {
  ChunkStatsTable stats(3);
  for (int i = 0; i < 10; ++i) stats.Update(0, 0, 0);
  for (int i = 0; i < 10; ++i) stats.Update(1, 1, 0);
  for (int i = 0; i < 10; ++i) stats.Update(2, i < 5 ? 1 : 0, 0);
  GreedyPolicy policy;
  common::Rng rng(7);
  EXPECT_EQ(policy.PickChunk(stats, rng), 1u);
}

TEST(GreedyPolicyTest, BreaksTiesRandomly) {
  ChunkStatsTable stats(3);  // All identical: three-way tie.
  GreedyPolicy policy;
  common::Rng rng(8);
  std::map<size_t, int> counts;
  for (int i = 0; i < 6000; ++i) {
    ++counts[policy.PickChunk(stats, rng)];
  }
  for (size_t j = 0; j < 3; ++j) EXPECT_GT(counts[j], 1500);
}

TEST(GreedyPolicyTest, CanGetStuckOnLuckyChunk) {
  // The failure mode the paper warns about (Sec. III-B): one early lucky
  // result keeps greedy locked on a chunk even though another chunk is
  // unexplored. With alpha0=.1, beta0=1, the lucky chunk's estimate
  // 1.1/(n+1) stays above the fresh chunk's prior mean 0.1 until n reaches
  // 10 — greedy wastes all of those samples on the lucky chunk.
  ChunkStatsTable stats(2);
  stats.Update(0, 1, 0);  // One lucky hit in one sample: estimate ~1.0.
  GreedyPolicy policy;
  common::Rng rng(9);
  for (int round = 0; round < 9; ++round) {
    const size_t pick = policy.PickChunk(stats, rng);
    EXPECT_EQ(pick, 0u) << "round " << round;
    stats.Update(0, 0, 0);  // The lucky chunk never pays off again.
  }
  EXPECT_EQ(stats.State(1).n, 0u);  // Chunk 1 never sampled during the streak.
  // Thompson sampling under the same history does explore chunk 1.
  ThompsonPolicy thompson;
  int thompson_explores = 0;
  for (int i = 0; i < 2000; ++i) {
    if (thompson.PickChunk(stats, rng) == 1) ++thompson_explores;
  }
  EXPECT_GT(thompson_explores, 100);
}

TEST(UniformChunkPolicyTest, UniformOverEligible) {
  ChunkStatsTable stats(4);
  for (int i = 0; i < 100; ++i) stats.Update(2, 10, 0);  // Stats are ignored.
  stats.Retire(2);
  UniformChunkPolicy policy;
  common::Rng rng(10);
  std::map<size_t, int> counts;
  for (int i = 0; i < 9000; ++i) {
    ++counts[policy.PickChunk(stats, rng)];
  }
  EXPECT_EQ(counts[2], 0);
  for (size_t j : {size_t{0}, size_t{1}, size_t{3}}) EXPECT_GT(counts[j], 2500);
}

TEST(PolicyNamesTest, Names) {
  EXPECT_EQ(ThompsonPolicy().name(), "thompson");
  EXPECT_EQ(BayesUcbPolicy().name(), "bayes-ucb");
  EXPECT_EQ(GreedyPolicy().name(), "greedy");
  EXPECT_EQ(UniformChunkPolicy().name(), "uniform-chunk");
}

}  // namespace
}  // namespace core
}  // namespace exsample
