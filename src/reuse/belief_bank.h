#ifndef EXSAMPLE_REUSE_BELIEF_BANK_H_
#define EXSAMPLE_REUSE_BELIEF_BANK_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/chunk_stats.h"
#include "core/estimator.h"
#include "reuse/reuse_key.h"
#include "stats/stats_json.h"
#include "video/chunking.h"

namespace exsample {
namespace reuse {

/// \brief Stable 64-bit hash of a chunking's layout (chunk begin/end pairs
/// and total frames). Persisted posteriors are only meaningful against the
/// chunk grid they were accumulated on, so the belief bank keys by this next
/// to the `ReuseKey`.
uint64_t ChunkingSignature(const video::Chunking& chunking);

/// \brief Counters of one `BeliefBank`.
struct BeliefBankStats {
  /// Posterior tables recorded by finished queries.
  uint64_t posteriors_recorded = 0;
  /// Queries whose priors were warm-started from the bank.
  uint64_t warm_starts = 0;
};

/// Names every field of `BeliefBankStats` for the stats export.
inline void ExportFields(const BeliefBankStats& s, stats::StatsWriter& out) {
  const auto& [posteriors_recorded, warm_starts] = s;
  out.Counter("posteriors_recorded", posteriors_recorded);
  out.Counter("warm_starts", warm_starts);
}

/// \brief Persisted per-chunk posterior evidence for warm-starting later
/// queries' chunk beliefs.
///
/// When a query finishes, its strategy's per-chunk `(n, N1)` table — the
/// sufficient statistics of the Gamma posterior Gamma(N1 + alpha0, n + beta0)
/// — is accumulated here under (reuse key, chunking signature). A later query
/// for the same class over the same chunk grid seeds its *prior* from that
/// summary: chunk j starts from BeliefParams{alpha0 + w·ΣN1_j, beta0 + w·Σn_j}
/// instead of the flat {alpha0, beta0}. This is a pure prior change — the
/// paper's update math (Algorithm 1 lines 11–12, Eq. III.4) is untouched;
/// with weight w = 1 it is exactly Bayesian updating, as if the new query's
/// belief had also observed the earlier queries' samples. Chunks that earlier
/// queries found fruitful are therefore sampled first, and chunks scanned dry
/// are deprioritized from the very first Thompson draw.
///
/// Thread-safe. The bank stores plain counts, not belief objects, so it is
/// trivially serializable — the hook the persistent/on-disk follow-on builds
/// on.
class BeliefBank {
 public:
  /// \brief Accumulates a finished query's posterior table. `stats` must be
  /// the per-chunk table of a strategy that ran over the chunking hashed by
  /// `chunking_signature`.
  void RecordPosterior(const ReuseKey& key, uint64_t chunking_signature,
                       const core::ChunkStatsTable& stats);

  /// \brief Builds warm per-chunk priors from the accumulated evidence,
  /// scaled by `weight` on top of the flat prior `base`. Returns an empty
  /// vector when the bank holds nothing for (key, signature) — the caller
  /// then keeps its cold prior.
  std::vector<core::BeliefParams> WarmPriors(const ReuseKey& key,
                                             uint64_t chunking_signature,
                                             const core::BeliefParams& base,
                                             double weight);

  BeliefBankStats Stats() const;

 private:
  struct BankKey {
    ReuseKey key;
    uint64_t chunking_signature = 0;
    friend bool operator==(const BankKey& a, const BankKey& b) {
      return a.key == b.key && a.chunking_signature == b.chunking_signature;
    }
  };
  struct BankKeyHash {
    size_t operator()(const BankKey& k) const {
      return static_cast<size_t>(common::HashCombine(k.key.Hash(), k.chunking_signature));
    }
  };
  struct ChunkEvidence {
    uint64_t n = 0;
    uint64_t n1 = 0;  // Clamped at 0 per chunk, as belief construction does.
  };

  mutable std::mutex mu_;
  std::unordered_map<BankKey, std::vector<ChunkEvidence>, BankKeyHash> bank_;
  BeliefBankStats stats_;
};

}  // namespace reuse
}  // namespace exsample

#endif  // EXSAMPLE_REUSE_BELIEF_BANK_H_
