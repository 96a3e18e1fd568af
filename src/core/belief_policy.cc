#include "core/belief_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"
#include "stats/special_functions.h"

namespace exsample {
namespace core {

namespace {

// Thompson draws the maximum of a group of up to this many members as that
// many direct Gamma draws, and inverts the maximum's distribution above it:
// no group then costs more than its m direct draws. bench_micro on a 4-vCPU
// KVM guest: one draw (BM_GammaSample) costs 50 ns at shape 0.1 and 30 ns at
// shape 1; one inversion with its lgamma (BM_GammaGroupMax) 0.9-1.2 us at
// shape 0.1, 0.54-0.75 us at shape 1.1 and 0.48 us at shape 5.1, so at most
// the price of 25 direct draws.
constexpr size_t kMaxDirectDraws = 24;

// Shared scan: the belief group with the highest score wins, then one of its
// members uniformly. Exact ties between groups resolve by a reservoir weighted
// by group size, so tied chunks stay uniform. `score(group, best)` sees the
// best score so far and may return -inf for a group that cannot beat it.
template <typename ScoreFn>
size_t ArgmaxGroups(const ChunkStatsTable& stats, common::Rng& rng, ScoreFn&& score) {
  double best = -std::numeric_limits<double>::infinity();
  const BeliefGroup* winner = nullptr;
  uint64_t tied = 0;  // Chunks in the groups tied at `best`.
  for (const BeliefGroup& group : stats.Groups()) {
    const size_t m = group.members.size();
    if (m == 0) continue;  // A free slot.
    const double s = score(group, best);
    if (s > best) {
      best = s;
      winner = &group;
      tied = m;
    } else if (s == best) {
      tied += m;
      if (rng.NextBounded(tied) < m) winner = &group;
    }
  }
  common::Check(winner != nullptr, "PickChunk requires at least one eligible chunk");
  return winner->members[rng.NextBounded(winner->members.size())];
}

}  // namespace

size_t ThompsonPolicy::PickChunk(const ChunkStatsTable& stats, common::Rng& rng) {
  return ArgmaxGroups(stats, rng, [&rng](const BeliefGroup& group, double best) {
    const size_t m = group.members.size();
    if (m <= kMaxDirectDraws) {
      double max = rng.Gamma(group.alpha, group.beta);
      for (size_t i = 1; i < m; ++i) {
        max = std::max(max, rng.Gamma(group.alpha, group.beta));
      }
      return max;
    }
    // The maximum of m iid draws has CDF F^m, so it is F^-1(U^(1/m)). Its
    // upper tail t = 1 - U^(1/m) goes through expm1: U^(1/m) rounds to 1 for
    // large m.
    const double t = -std::expm1(std::log(rng.NextDouble()) / static_cast<double>(m));
    const double log_gamma_alpha = std::lgamma(group.alpha);
    // The maximum beats `best` only if t < Q(alpha, beta * best): one
    // evaluation of Q instead of the several the inversion takes.
    if (best > 0.0 &&
        t >= stats::RegularizedGammaQ(group.alpha, group.beta * best, log_gamma_alpha)) {
      return -std::numeric_limits<double>::infinity();
    }
    return stats::InverseRegularizedGammaQ(group.alpha, t, log_gamma_alpha) / group.beta;
  });
}

double BayesUcbPolicy::Index(double alpha, double beta, double t) {
  // Quantile level 1 - 1/t grows toward 1 as evidence accumulates, shrinking
  // the exploration bonus (Kaufmann's Bayes-UCB index). Through the upper
  // tail 1/t the inversion keeps a relative error; at a lower-tail level
  // near 1 it would stop on an absolute one.
  const double tail = std::max(1.0 / t, 1e-12);
  return stats::InverseRegularizedGammaQ(alpha, tail, std::lgamma(alpha)) / beta;
}

size_t BayesUcbPolicy::PickChunk(const ChunkStatsTable& stats, common::Rng& rng) {
  const double t = static_cast<double>(stats.TotalSamples()) + 1.0;
  return ArgmaxGroups(stats, rng, [t](const BeliefGroup& group, double) {
    return Index(group.alpha, group.beta, t);
  });
}

size_t GreedyPolicy::PickChunk(const ChunkStatsTable& stats, common::Rng& rng) {
  return ArgmaxGroups(stats, rng, [](const BeliefGroup& group, double) {
    return stats::GammaBelief(group.alpha, group.beta).Mean();
  });
}

size_t UniformChunkPolicy::PickChunk(const ChunkStatsTable& stats, common::Rng& rng) {
  return ArgmaxGroups(stats, rng, [](const BeliefGroup&, double) { return 0.0; });
}

}  // namespace core
}  // namespace exsample
