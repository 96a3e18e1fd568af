#ifndef EXSAMPLE_CORE_BELIEF_POLICY_H_
#define EXSAMPLE_CORE_BELIEF_POLICY_H_

#include <string>

#include "common/rng.h"
#include "core/chunk_stats.h"

namespace exsample {
namespace core {

/// \brief Chooses which chunk to sample next from the per-chunk statistics
/// (Algorithm 1, lines 3–6 abstracted).
///
/// A policy picks among the table's eligible chunks (at least one must be
/// eligible). It scores each belief group of `ChunkStatsTable::Groups()` once,
/// not each chunk, and picks a member of the winning group uniformly: members
/// hold iid beliefs, so the pick distribution is the per-chunk argmax's at a
/// cost of O(belief states). Exact ties between groups are broken with
/// probability proportional to group size, so tied chunks stay uniform.
class ChunkPolicy {
 public:
  virtual ~ChunkPolicy() = default;

  /// \brief Picks the next chunk index.
  virtual size_t PickChunk(const ChunkStatsTable& stats, common::Rng& rng) = 0;

  /// \brief Policy name for reports.
  virtual std::string name() const = 0;
};

/// \brief Thompson sampling over Gamma beliefs (the paper's method,
/// Sec. III-C): draw R_j ~ Gamma(N1_j + alpha0, n_j + beta0) for every chunk
/// and take the argmax. A group of m identical beliefs draws its maximum once:
/// m direct draws for small m, otherwise one inversion of the maximum's
/// distribution through the upper tail, `stats::InverseRegularizedGammaQ`. On
/// the first iteration all beliefs are identical, so the pick is uniform.
class ThompsonPolicy : public ChunkPolicy {
 public:
  size_t PickChunk(const ChunkStatsTable& stats, common::Rng& rng) override;
  std::string name() const override { return "thompson"; }
};

/// \brief Bayes-UCB (Kaufmann): use the upper 1 - 1/t quantile of the same
/// Gamma belief instead of a random draw. The paper reports results
/// indistinguishable from Thompson sampling (Sec. III-C).
class BayesUcbPolicy : public ChunkPolicy {
 public:
  size_t PickChunk(const ChunkStatsTable& stats, common::Rng& rng) override;
  std::string name() const override { return "bayes-ucb"; }

  /// \brief The index of a Gamma(`alpha`, `beta`) belief at step `t` (total
  /// samples + 1): the x whose upper tail Q(alpha, beta * x) is 1/t, with the
  /// tail floored at 1e-12. Taken through `stats::InverseRegularizedGammaQ`,
  /// so it holds the tail to a relative error however large t grows.
  static double Index(double alpha, double beta, double t);
};

/// \brief Greedy point-estimate policy: argmax of (N1+alpha0)/(n+beta0) with
/// random tie-breaking. Included as the ablation the paper warns about: a raw
/// point estimate "could get stuck sampling chunks with an early lucky result
/// and ignore better chunks with unlucky early results" (Sec. III-B).
class GreedyPolicy : public ChunkPolicy {
 public:
  size_t PickChunk(const ChunkStatsTable& stats, common::Rng& rng) override;
  std::string name() const override { return "greedy"; }
};

/// \brief Uniform-random chunk choice (reduces ExSample to chunk-stratified
/// random sampling; with one chunk it is exactly random sampling).
class UniformChunkPolicy : public ChunkPolicy {
 public:
  size_t PickChunk(const ChunkStatsTable& stats, common::Rng& rng) override;
  std::string name() const override { return "uniform-chunk"; }
};

}  // namespace core
}  // namespace exsample

#endif  // EXSAMPLE_CORE_BELIEF_POLICY_H_
