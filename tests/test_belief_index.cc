// The belief-group index of `ChunkStatsTable` and the state-keyed picks built
// on it. A policy scores each group of bit-identical beliefs once and picks a
// member uniformly; these tests hold that to a brute-force per-chunk loop, the
// argmax the grouped pick replaces, kept here as the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/belief_policy.h"
#include "core/chunk_stats.h"
#include "stats/special_functions.h"

namespace exsample {
namespace core {
namespace {

// One Gamma draw per eligible chunk, then the argmax: Sec. III-C verbatim.
size_t BruteForceThompson(const ChunkStatsTable& stats, common::Rng& rng) {
  double best = -std::numeric_limits<double>::infinity();
  size_t pick = stats.NumChunks();
  for (size_t j = 0; j < stats.NumChunks(); ++j) {
    if (!stats.Eligible(j)) continue;
    const double draw = stats.Belief(j).Sample(rng);
    if (draw > best) {
      best = draw;
      pick = j;
    }
  }
  return pick;
}

/// `chunks` chunks, each brought to (N1, n) by n updates that spread the
/// N1 hits as evenly as they go.
struct StateMix {
  size_t chunks;
  uint64_t n;
  uint64_t n1;
};

// Brings `chunk` through n updates that spread its N1 hits as evenly as
// they go.
void Feed(ChunkStatsTable& stats, size_t chunk, uint64_t n, uint64_t n1) {
  for (uint64_t i = 0; i < n; ++i) {
    stats.Update(chunk, n1 / n + (i < n1 % n ? 1 : 0), 0);
  }
}

ChunkStatsTable MakeTable(const std::vector<StateMix>& mix, BeliefParams prior = {},
                          std::vector<BeliefParams> chunk_priors = {}) {
  size_t total = 0;
  for (const StateMix& m : mix) total += m.chunks;
  ChunkStatsTable stats(total, prior, std::move(chunk_priors));
  size_t chunk = 0;
  for (const StateMix& m : mix) {
    for (size_t c = 0; c < m.chunks; ++c, ++chunk) Feed(stats, chunk, m.n, m.n1);
  }
  return stats;
}

std::pair<uint64_t, uint64_t> BitsOf(const stats::GammaBelief& belief) {
  const double alpha = belief.alpha();
  const double beta = belief.beta();
  std::pair<uint64_t, uint64_t> bits;
  std::memcpy(&bits.first, &alpha, sizeof(alpha));
  std::memcpy(&bits.second, &beta, sizeof(beta));
  return bits;
}

size_t LiveGroups(const ChunkStatsTable& stats) {
  size_t live = 0;
  for (const BeliefGroup& group : stats.Groups()) live += group.members.empty() ? 0 : 1;
  return live;
}

// Every eligible chunk sits exactly once in the group of its own belief, no
// two live groups share a belief, and group sizes sum to the eligible count.
void ExpectIndexConsistent(const ChunkStatsTable& stats) {
  std::vector<int> seen(stats.NumChunks(), 0);
  std::set<std::pair<uint64_t, uint64_t>> beliefs;
  size_t members = 0;
  for (const BeliefGroup& group : stats.Groups()) {
    if (group.members.empty()) continue;
    const auto key = BitsOf(stats::GammaBelief(group.alpha, group.beta));
    EXPECT_TRUE(beliefs.insert(key).second) << "two groups hold one belief";
    members += group.members.size();
    for (const size_t chunk : group.members) {
      ASSERT_LT(chunk, stats.NumChunks());
      ++seen[chunk];
      EXPECT_TRUE(stats.Eligible(chunk)) << chunk;
      EXPECT_EQ(BitsOf(stats.Belief(chunk)), key) << "chunk " << chunk;
    }
  }
  EXPECT_EQ(members, stats.EligibleChunks());
  for (size_t j = 0; j < stats.NumChunks(); ++j) {
    EXPECT_EQ(seen[j], stats.Eligible(j) ? 1 : 0) << "chunk " << j;
  }
}

// Two-sample chi-square over paired counts (equal totals): sum (a-b)^2/(a+b)
// over cells, with cells under 10 pooled so the statistic stays chi-square.
// Fails when it exceeds the p = 0.001 critical value.
void ExpectSameDistribution(const std::vector<uint64_t>& a,
                            const std::vector<uint64_t>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  double chi = 0.0;
  size_t cells = 0;
  uint64_t pooled_a = 0, pooled_b = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] + b[i] < 10) {
      pooled_a += a[i];
      pooled_b += b[i];
      continue;
    }
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    chi += d * d / static_cast<double>(a[i] + b[i]);
    ++cells;
  }
  if (pooled_a + pooled_b > 0) {
    const double d = static_cast<double>(pooled_a) - static_cast<double>(pooled_b);
    chi += d * d / static_cast<double>(pooled_a + pooled_b);
    ++cells;
  }
  if (cells < 2) return;  // One cell: nothing to compare.
  const double dof = static_cast<double>(cells - 1);
  // Chi-square(k) is Gamma(k/2, rate 1/2).
  const double critical = 2.0 * stats::InverseRegularizedGammaP(dof / 2.0, 0.999);
  EXPECT_LT(chi, critical) << what << ": chi-square " << chi << " on " << dof
                           << " degrees of freedom";
}

// One-sample chi-square of counts against a uniform spread over their cells.
void ExpectUniform(const std::vector<uint64_t>& counts, const char* what) {
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  const double expected = static_cast<double>(total) / static_cast<double>(counts.size());
  double chi = 0.0;
  for (const uint64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi += d * d / expected;
  }
  const double dof = static_cast<double>(counts.size() - 1);
  const double critical = 2.0 * stats::InverseRegularizedGammaP(dof / 2.0, 0.999);
  EXPECT_LT(chi, critical) << what << ": chi-square " << chi << " on " << dof
                           << " degrees of freedom";
}

// Per-state pick counts of the grouped Thompson pick and of the brute-force
// loop, `picks` each from their own fixed-seed stream. A state is a group slot.
void ExpectThompsonMatchesBruteForce(const ChunkStatsTable& stats, int picks,
                                     uint64_t seed, const char* what) {
  std::vector<size_t> state_of(stats.NumChunks(), 0);
  for (size_t slot = 0; slot < stats.Groups().size(); ++slot) {
    for (const size_t chunk : stats.Groups()[slot].members) state_of[chunk] = slot;
  }
  std::vector<uint64_t> grouped(stats.Groups().size(), 0);
  std::vector<uint64_t> brute(stats.Groups().size(), 0);
  ThompsonPolicy policy;
  common::Rng rng_grouped(seed), rng_brute(seed + 1);
  for (int i = 0; i < picks; ++i) {
    const size_t pick = policy.PickChunk(stats, rng_grouped);
    ASSERT_TRUE(stats.Eligible(pick));
    ++grouped[state_of[pick]];
    ++brute[state_of[BruteForceThompson(stats, rng_brute)]];
  }
  ExpectSameDistribution(grouped, brute, what);
}

// 1,600 chunks (a BDD dataset) in 10 states, 900 of them still unsampled: the
// mix an analyst query's picks see, with two groups far above the direct-draw
// limit.
const std::vector<StateMix> kAnalystMix = {
    {900, 0, 0}, {520, 1, 0}, {100, 2, 0}, {30, 3, 0}, {20, 1, 1},
    {12, 2, 1},  {8, 4, 0},   {5, 3, 2},   {3, 5, 1},  {2, 6, 3}};

// 30 chunks (the dashcam dataset): every group is small enough to draw
// directly.
const std::vector<StateMix> kDashcamMix = {
    {8, 0, 0}, {6, 1, 0}, {4, 1, 1}, {3, 2, 0}, {2, 3, 2},
    {2, 4, 1}, {2, 3, 0}, {1, 5, 3}, {1, 2, 1}, {1, 6, 4}};

TEST(BeliefIndexTest, ThompsonMatchesPerChunkLoopOnAnalystTable) {
  const ChunkStatsTable stats = MakeTable(kAnalystMix);
  ASSERT_EQ(stats.EligibleChunks(), 1600u);
  ExpectThompsonMatchesBruteForce(stats, 10000, 11, "analyst table");
}

TEST(BeliefIndexTest, ThompsonMatchesPerChunkLoopLaterInAQuery) {
  // The same dataset once every chunk has been sampled: the states compete.
  const ChunkStatsTable stats = MakeTable({{700, 1, 0}, {500, 2, 0}, {200, 3, 0},
                                           {80, 1, 1},  {50, 2, 1},  {30, 4, 0},
                                           {20, 3, 2},  {10, 5, 1},  {6, 6, 3},
                                           {4, 2, 2}});
  ASSERT_EQ(stats.EligibleChunks(), 1600u);
  ExpectThompsonMatchesBruteForce(stats, 10000, 16, "later analyst table");
}

TEST(BeliefIndexTest, ThompsonMatchesPerChunkLoopWithOneHotChunk) {
  // One chunk found three results in five samples; 999 found none. The cold
  // group's maximum comes from the tail inverse, so its rare wins test the
  // inverse's accuracy where it matters.
  const ChunkStatsTable stats = MakeTable({{999, 5, 0}, {1, 5, 3}});
  ExpectThompsonMatchesBruteForce(stats, 20000, 12, "one hot chunk");
}

TEST(BeliefIndexTest, ThompsonMatchesPerChunkLoopJustAboveTheDirectDrawLimit) {
  // 30 unsampled chunks, whose maximum comes from the tail inverse, against
  // one chunk with five hits in four samples, drawn directly: each wins about
  // half the picks. A maximum over 31 draws instead of 30 would move the
  // group's share by 1.1 points, about five standard deviations here.
  const ChunkStatsTable stats = MakeTable({{30, 0, 0}, {1, 4, 5}});
  ExpectThompsonMatchesBruteForce(stats, 100000, 17, "30 cold chunks and one hot");
}

TEST(BeliefIndexTest, ThompsonMatchesPerChunkLoopPerChunkOnDashcamTable) {
  // Per *chunk* here, not per state: that also checks the uniform pick inside
  // the winning group.
  const ChunkStatsTable stats = MakeTable(kDashcamMix);
  ASSERT_EQ(stats.NumChunks(), 30u);
  std::vector<uint64_t> grouped(30, 0), brute(30, 0);
  ThompsonPolicy policy;
  common::Rng rng_grouped(13), rng_brute(14);
  for (int i = 0; i < 60000; ++i) {
    ++grouped[policy.PickChunk(stats, rng_grouped)];
    ++brute[BruteForceThompson(stats, rng_brute)];
  }
  ExpectSameDistribution(grouped, brute, "dashcam table, per chunk");
}

TEST(BeliefIndexTest, ThompsonMatchesPerChunkLoopWithWarmPriors) {
  // Warm-start priors make the group key the final (alpha, beta), not
  // (N1, n): chunks with different priors and counts share a belief.
  const BeliefParams flat;
  const std::vector<BeliefParams> kinds = {
      {0.1, 1.0}, {1.1, 2.0}, {3.1, 6.0}, {0.1, 4.0}};
  std::vector<BeliefParams> priors;
  std::vector<StateMix> mix;
  // (prior kind, chunks, n, N1): kind 0 with one hit in one sample reaches
  // kind 1's prior unsampled, kind 0 after three misses reaches kind 3's, and
  // kind 1 with two hits in four samples reaches kind 2's.
  const struct {
    size_t kind, chunks;
    uint64_t n, n1;
  } rows[] = {{0, 700, 0, 0}, {1, 300, 0, 0}, {0, 200, 1, 1}, {2, 100, 0, 0},
              {3, 150, 0, 0}, {0, 120, 3, 0}, {2, 20, 2, 1},  {1, 10, 4, 2}};
  for (const auto& row : rows) {
    mix.push_back({row.chunks, row.n, row.n1});
    priors.insert(priors.end(), row.chunks, kinds[row.kind]);
  }
  const ChunkStatsTable stats = MakeTable(mix, flat, priors);
  ExpectIndexConsistent(stats);
  EXPECT_EQ(LiveGroups(stats), 5u) << "8 (prior, N1, n) states hold 5 distinct beliefs";
  ExpectThompsonMatchesBruteForce(stats, 10000, 15, "warm priors");
}

// Splits `parent` as adaptive chunking does: retires it and appends two
// children under `prior`. Returns the left child; the right one follows it.
size_t Split(ChunkStatsTable& stats, size_t parent, BeliefParams prior) {
  stats.Retire(parent);
  const size_t left = stats.AddChunk(prior);
  EXPECT_EQ(stats.AddChunk(prior), left + 1);
  return left;
}

TEST(BeliefIndexTest, ThompsonMatchesPerChunkLoopAfterSplits) {
  // An adaptive-chunking table: split parents are retired, and their
  // children start from priors holding half the parent's (n, N1) evidence
  // (inherit_fraction 1), so children of one parent share a belief until
  // their own samples part them.
  ChunkStatsTable stats(8);
  Feed(stats, 0, 32, 6);
  Feed(stats, 1, 32, 1);
  for (size_t j = 2; j < 8; ++j) Feed(stats, j, 2 + j, j % 3 == 0 ? 1 : 0);
  const size_t hot = Split(stats, 0, {0.1 + 3, 1.0 + 16});   // Chunks 8, 9.
  const size_t cold = Split(stats, 1, {0.1 + 0, 1.0 + 16});  // Chunks 10, 11.
  Feed(stats, hot, 32, 8);
  const size_t hotter = Split(stats, hot, {0.1 + 5, 1.0 + 24});  // Chunks 12, 13.
  Feed(stats, hot + 1, 3, 0);
  Feed(stats, cold, 1, 1);
  Feed(stats, cold + 1, 2, 0);
  Feed(stats, hotter, 4, 2);
  stats.Retire(7);  // Exhausted.
  ASSERT_EQ(stats.NumChunks(), 14u);
  ASSERT_EQ(stats.EligibleChunks(), 10u);
  ExpectIndexConsistent(stats);
  for (const size_t parent : {size_t{0}, size_t{1}, hot}) {
    EXPECT_FALSE(stats.Eligible(parent)) << parent;
  }
  ExpectThompsonMatchesBruteForce(stats, 20000, 19, "split table");
}

TEST(BeliefIndexTest, GreedyTiesAcrossGroupsStayUniformOverChunks) {
  // With prior (1, 1), three unsampled chunks (mean 1/1) tie exactly with one
  // chunk holding one hit in one sample (mean 2/2): groups of 3 and 1, so each
  // of the four chunks must win a quarter of the picks. Two chunks with a miss
  // (mean 1/2) never win.
  const ChunkStatsTable stats =
      MakeTable({{3, 0, 0}, {1, 1, 1}, {2, 1, 0}}, BeliefParams{1.0, 1.0});
  GreedyPolicy policy;
  common::Rng rng(21);
  std::vector<uint64_t> counts(6, 0);
  for (int i = 0; i < 8000; ++i) ++counts[policy.PickChunk(stats, rng)];
  EXPECT_EQ(counts[4], 0u);
  EXPECT_EQ(counts[5], 0u);
  ExpectUniform({counts[0], counts[1], counts[2], counts[3]}, "greedy tie");
}

TEST(BeliefIndexTest, BayesUcbTiesStayUniformOverChunks) {
  // Chunk 0 (prior (1.1, 2), unsampled) and chunks 1-2 (flat prior, one hit in
  // one sample) hold one belief: an exact tie, uniform over the three. Chunk 3
  // is retired, chunk 4 scored lower.
  const BeliefParams flat;
  std::vector<BeliefParams> priors(5, flat);
  priors[0] = {1.1, 2.0};
  ChunkStatsTable stats =
      MakeTable({{1, 0, 0}, {2, 1, 1}, {1, 1, 1}, {1, 9, 0}}, flat, priors);
  stats.Retire(3);
  BayesUcbPolicy policy;
  common::Rng rng(22);
  std::vector<uint64_t> counts(5, 0);
  for (int i = 0; i < 6000; ++i) ++counts[policy.PickChunk(stats, rng)];
  EXPECT_EQ(counts[3], 0u);
  EXPECT_EQ(counts[4], 0u);
  ExpectUniform({counts[0], counts[1], counts[2]}, "bayes-ucb tie");
}

TEST(BeliefIndexTest, UniformPolicyIsUniformOverEligibleChunks) {
  ChunkStatsTable stats = MakeTable(kDashcamMix);
  for (const size_t retired : {size_t{0}, size_t{9}, size_t{29}}) stats.Retire(retired);
  UniformChunkPolicy policy;
  common::Rng rng(23);
  std::vector<uint64_t> counts(30, 0);
  for (int i = 0; i < 27000; ++i) ++counts[policy.PickChunk(stats, rng)];
  std::vector<uint64_t> eligible;
  for (size_t j = 0; j < 30; ++j) {
    if (stats.Eligible(j)) {
      eligible.push_back(counts[j]);
    } else {
      EXPECT_EQ(counts[j], 0u) << "retired chunk " << j;
    }
  }
  EXPECT_EQ(eligible.size(), 27u);
  ExpectUniform(eligible, "uniform policy");
}

TEST(BeliefIndexTest, InvariantsHoldUnderRandomUpdatesAndRetires) {
  const BeliefParams flat;
  const std::vector<BeliefParams> kinds = {{0.1, 1.0}, {1.1, 2.0}, {2.1, 3.0}};
  for (const bool warm : {false, true}) {
    const size_t chunks = 200;
    std::vector<BeliefParams> priors;
    common::Rng rng(warm ? 31 : 32);
    if (warm) {
      for (size_t j = 0; j < chunks; ++j) priors.push_back(kinds[rng.NextBounded(3)]);
    }
    ChunkStatsTable stats(chunks, flat, priors);
    ExpectIndexConsistent(stats);
    size_t peak_live = stats.Groups().size();
    for (int step = 0; step < 4000; ++step) {
      const size_t chunk = rng.NextBounded(stats.NumChunks());
      if (rng.NextBounded(40) == 0) {
        stats.Retire(chunk);  // Idempotent on an already retired chunk.
      } else if (rng.NextBounded(80) == 0) {
        // A split's child: appended eligible and unsampled under its own
        // prior (on the flat table, the first one gives every chunk its own).
        const BeliefParams& prior = kinds[rng.NextBounded(3)];
        const size_t added = stats.AddChunk(prior);
        EXPECT_EQ(added, stats.NumChunks() - 1);
        EXPECT_TRUE(stats.Eligible(added));
        EXPECT_EQ(BitsOf(stats.Belief(added)),
                  BitsOf(stats::GammaBelief(prior.alpha0, prior.beta0)));
      } else {
        // Hits, misses and noisy second sightings (N1 may go negative).
        const size_t hits = rng.NextBounded(8) == 0 ? 1 + rng.NextBounded(2) : 0;
        const size_t twice = rng.NextBounded(10) == 0 ? 1 : 0;
        stats.Update(chunk, hits, twice);
      }
      peak_live = std::max(peak_live, LiveGroups(stats));
      if (step % 100 == 0) ExpectIndexConsistent(stats);
    }
    ExpectIndexConsistent(stats);
    // Freed slots are reused: the slot vector never outgrows the live peak.
    EXPECT_LE(stats.Groups().size(), peak_live) << (warm ? "warm" : "flat");
    EXPECT_GT(stats.NumChunks(), chunks);
    EXPECT_LT(stats.EligibleChunks(), stats.NumChunks());
  }
}

TEST(BeliefIndexTest, RetiredChunksKeepCountingOutsideTheIndex) {
  ChunkStatsTable stats(3);
  stats.Retire(1);
  stats.Update(1, 2, 0);  // A frame drawn before retirement reports late.
  EXPECT_EQ(stats.State(1).n, 1u);
  EXPECT_EQ(stats.State(1).n1, 2);
  EXPECT_FALSE(stats.Eligible(1));
  EXPECT_EQ(stats.EligibleChunks(), 2u);
  ExpectIndexConsistent(stats);
  ThompsonPolicy policy;
  common::Rng rng(41);
  for (int i = 0; i < 200; ++i) EXPECT_NE(policy.PickChunk(stats, rng), 1u);
}

}  // namespace
}  // namespace core
}  // namespace exsample
