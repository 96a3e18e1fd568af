#ifndef EXSAMPLE_CORE_CHUNK_STATS_H_
#define EXSAMPLE_CORE_CHUNK_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/estimator.h"

namespace exsample {
namespace core {

/// \brief Per-chunk sufficient statistics of ExSample (Algorithm 1 state).
struct ChunkState {
  /// Frames sampled from this chunk so far (n_j).
  uint64_t n = 0;
  /// Results seen exactly once, as maintained by line 11 of Algorithm 1:
  /// N1 += |d0| - |d1|. Kept as a signed value because the update can
  /// transiently drive it negative when a noisy discriminator reports more
  /// second sightings than first sightings; belief construction clamps at 0.
  int64_t n1 = 0;
};

/// \brief The eligible chunks whose beliefs are bit-identical: one Gamma
/// (alpha, beta) and its members.
///
/// Members hold iid beliefs, so a policy scores the group once instead of
/// scoring every member (Thompson draws the group's maximum) and then picks a
/// member uniformly.
struct BeliefGroup {
  double alpha = 0.0;
  double beta = 0.0;
  /// Member chunk indices, in no meaningful order. Empty for a free slot.
  std::vector<size_t> members;
};

/// \brief The table of per-chunk (n, N1) statistics, with each chunk's prior
/// and an index of the eligible chunks grouped by belief.
///
/// Chunk j's belief is Gamma(N1⁺_j + alpha0_j, n_j + beta0_j), built exactly
/// as `MakeBelief` builds it; the prior (alpha0_j, beta0_j) is the flat prior
/// or chunk j's own (a warm start's, `reuse::BeliefBank`, or a split child's
/// share of its parent's evidence). Every chunk starts eligible; `Retire`
/// removes one that has no frames left. `Update`, `Retire` and `AddChunk`
/// keep the index current in O(1) each, and a pick walks it in O(belief
/// states) instead of O(chunks).
class ChunkStatsTable {
 public:
  /// `chunk_priors` is empty (every chunk takes `prior`) or holds one prior
  /// per chunk.
  explicit ChunkStatsTable(size_t num_chunks, BeliefParams prior = {},
                           std::vector<BeliefParams> chunk_priors = {});

  /// \brief Applies Algorithm 1 lines 11–12 for one processed frame:
  /// N1[j] += new_results - once_matched; n[j] += 1.
  void Update(size_t chunk, size_t new_results, size_t once_matched);

  /// \brief Marks a chunk ineligible (its frames are exhausted): policies
  /// never pick it again. Its statistics keep updating. Idempotent.
  void Retire(size_t chunk);

  /// \brief Appends an eligible, unsampled chunk with its own prior and
  /// returns its index.
  size_t AddChunk(BeliefParams prior);

  /// \brief Number of chunks (M).
  size_t NumChunks() const { return entries_.size(); }

  /// \brief Per-chunk state.
  const ChunkState& State(size_t chunk) const { return entries_[chunk].state; }

  /// \brief N1 clamped at zero (the value used for belief construction).
  uint64_t N1NonNegative(size_t chunk) const;

  /// \brief Chunk j's current belief.
  stats::GammaBelief Belief(size_t chunk) const;

  /// \brief Total frames sampled across all chunks.
  uint64_t TotalSamples() const { return total_samples_; }

  /// \brief Sum of clamped N1 across chunks.
  uint64_t TotalN1() const;

  /// \brief True until `Retire(chunk)`.
  bool Eligible(size_t chunk) const { return entries_[chunk].group != kNoSlot; }

  /// \brief Number of eligible chunks.
  size_t EligibleChunks() const { return eligible_; }

  /// \brief The belief groups, in slot order: slots are created in order and
  /// a freed slot (no members) is reused, so walking this vector visits the
  /// groups in a deterministic order. Member counts sum to `EligibleChunks()`.
  const std::vector<BeliefGroup>& Groups() const { return groups_; }

 private:
  /// No group slot: a retired chunk's group, an empty index cell, no hint.
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  /// A chunk's statistics and its group.
  struct Entry {
    ChunkState state;
    uint32_t group = kNoSlot;  ///< Its slot in `groups_`; kNoSlot if retired.
  };

  /// A belief's (alpha, beta) bit patterns: equal keys, bit-identical beliefs.
  struct BeliefKey {
    uint64_t alpha_bits = 0;
    uint64_t beta_bits = 0;
    friend bool operator==(const BeliefKey& a, const BeliefKey& b) {
      return a.alpha_bits == b.alpha_bits && a.beta_bits == b.beta_bits;
    }
  };

  /// One cell of the open-addressing table from belief key to group slot.
  struct IndexCell {
    BeliefKey key;
    uint32_t slot = kNoSlot;  ///< kNoSlot marks an empty cell.
  };

  /// Takes `chunk` out of its group; frees the group if it empties.
  void Unlink(size_t chunk);
  /// Adds `chunk` to the group of `belief`, creating the group if needed,
  /// and returns its slot. `hint` is a slot that may hold `belief`: checked
  /// first, it saves the index lookup.
  uint32_t Link(size_t chunk, const stats::GammaBelief& belief,
                uint32_t hint = kNoSlot);
  /// Appends `chunk` to the live group in `slot`; returns `slot`.
  uint32_t Join(size_t chunk, uint32_t slot);

  static BeliefKey KeyOf(double alpha, double beta);
  /// The cell holding `key`, or the empty cell where it would go.
  size_t FindCell(const BeliefKey& key) const;
  /// Empties a cell, shifting later cells of its probe run back into it.
  void EraseCell(size_t cell);

  std::vector<Entry> entries_;
  /// Per chunk: its index in its group's members. Kept apart from `entries_`
  /// and 4 bytes wide: a swap-remove writes the moved member's position, a
  /// random chunk's, and a compact array keeps that write in cache.
  std::vector<uint32_t> position_;
  uint64_t total_samples_ = 0;
  std::vector<BeliefParams> chunk_priors_;  ///< One per chunk.
  size_t eligible_ = 0;

  std::vector<BeliefGroup> groups_;
  /// Per slot: where the last chunk to leave it went. Chunks of one state
  /// mostly move to one next state (a miss adds 1 to beta), so this hint
  /// spares most updates the index lookup.
  std::vector<uint32_t> moved_to_;
  std::vector<uint32_t> free_slots_;
  /// Linear probing over a power-of-two table kept at most half full: no
  /// allocation per lookup, insert or erase, unlike a node-based map.
  std::vector<IndexCell> index_;
};

}  // namespace core
}  // namespace exsample

#endif  // EXSAMPLE_CORE_CHUNK_STATS_H_
