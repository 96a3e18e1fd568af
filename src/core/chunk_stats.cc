#include "core/chunk_stats.h"

#include <cassert>
#include <cstring>

#include "common/hash.h"
#include "common/status.h"

namespace exsample {
namespace core {

namespace {

constexpr size_t kInitialIndexCells = 16;  // A power of two.

}  // namespace

ChunkStatsTable::BeliefKey ChunkStatsTable::KeyOf(double alpha, double beta) {
  static_assert(sizeof(double) == sizeof(uint64_t), "double is 64-bit");
  BeliefKey key;
  std::memcpy(&key.alpha_bits, &alpha, sizeof(alpha));
  std::memcpy(&key.beta_bits, &beta, sizeof(beta));
  return key;
}

ChunkStatsTable::ChunkStatsTable(size_t num_chunks, BeliefParams prior,
                                 std::vector<BeliefParams> chunk_priors)
    : entries_(num_chunks),
      position_(num_chunks, 0),
      chunk_priors_(chunk_priors.empty() ? std::vector<BeliefParams>(num_chunks, prior)
                                         : std::move(chunk_priors)),
      index_(kInitialIndexCells) {
  common::Check(num_chunks < kNoSlot, "ChunkStatsTable: too many chunks");
  common::Check(chunk_priors_.size() == num_chunks,
                "ChunkStatsTable: chunk_priors must be empty or one per chunk");
  for (size_t j = 0; j < num_chunks; ++j) Link(j, Belief(j));
}

void ChunkStatsTable::Update(size_t chunk, size_t new_results, size_t once_matched) {
  assert(chunk < entries_.size());
  ChunkState& state = entries_[chunk].state;
  state.n1 += static_cast<int64_t>(new_results) - static_cast<int64_t>(once_matched);
  state.n += 1;
  total_samples_ += 1;
  if (!Eligible(chunk)) return;
  // A chunk leaving a group of one for a new state reuses the slot it just
  // freed, so a hot chunk keeps its place in slot order.
  const uint32_t from = entries_[chunk].group;
  Unlink(chunk);
  moved_to_[from] = Link(chunk, Belief(chunk), moved_to_[from]);
}

void ChunkStatsTable::Retire(size_t chunk) {
  assert(chunk < entries_.size());
  if (!Eligible(chunk)) return;
  Unlink(chunk);
  entries_[chunk].group = kNoSlot;
}

size_t ChunkStatsTable::AddChunk(BeliefParams prior) {
  const size_t chunk = entries_.size();
  common::Check(chunk + 1 < kNoSlot, "ChunkStatsTable: too many chunks");
  chunk_priors_.push_back(prior);
  entries_.emplace_back();
  position_.push_back(0);
  Link(chunk, Belief(chunk));
  return chunk;
}

uint64_t ChunkStatsTable::N1NonNegative(size_t chunk) const {
  const int64_t n1 = entries_[chunk].state.n1;
  return n1 > 0 ? static_cast<uint64_t>(n1) : 0;
}

stats::GammaBelief ChunkStatsTable::Belief(size_t chunk) const {
  return MakeBelief(N1NonNegative(chunk), entries_[chunk].state.n, chunk_priors_[chunk]);
}

uint64_t ChunkStatsTable::TotalN1() const {
  uint64_t total = 0;
  for (size_t j = 0; j < entries_.size(); ++j) total += N1NonNegative(j);
  return total;
}

void ChunkStatsTable::Unlink(size_t chunk) {
  Entry& entry = entries_[chunk];
  BeliefGroup& group = groups_[entry.group];
  // Swap-remove: the last member takes the leaving chunk's position.
  const size_t last = group.members.back();
  group.members[position_[chunk]] = last;
  position_[last] = position_[chunk];
  group.members.pop_back();
  --eligible_;
  if (group.members.empty()) {
    EraseCell(FindCell(KeyOf(group.alpha, group.beta)));
    free_slots_.push_back(entry.group);
  }
}

uint32_t ChunkStatsTable::Link(size_t chunk, const stats::GammaBelief& belief,
                               uint32_t hint) {
  // A live group (a freed slot has no members) with equal parameters holds
  // bit-identical beliefs: both are positive and finite.
  if (hint < groups_.size() && !groups_[hint].members.empty() &&
      groups_[hint].alpha == belief.alpha() && groups_[hint].beta == belief.beta()) {
    return Join(chunk, hint);
  }
  const BeliefKey key = KeyOf(belief.alpha(), belief.beta());
  size_t cell = FindCell(key);
  if (index_[cell].slot == kNoSlot) {
    const size_t live_groups = groups_.size() - free_slots_.size();
    if (2 * (live_groups + 1) > index_.size()) {
      std::vector<IndexCell> old(2 * index_.size());
      old.swap(index_);
      for (const IndexCell& c : old) {
        if (c.slot != kNoSlot) index_[FindCell(c.key)] = c;
      }
      cell = FindCell(key);
    }
    uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(groups_.size());
      groups_.emplace_back();
      moved_to_.push_back(kNoSlot);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    groups_[slot].alpha = belief.alpha();
    groups_[slot].beta = belief.beta();
    index_[cell] = IndexCell{key, slot};
  }
  return Join(chunk, index_[cell].slot);
}

uint32_t ChunkStatsTable::Join(size_t chunk, uint32_t slot) {
  BeliefGroup& group = groups_[slot];
  entries_[chunk].group = slot;
  position_[chunk] = static_cast<uint32_t>(group.members.size());
  group.members.push_back(chunk);
  ++eligible_;
  return slot;
}

size_t ChunkStatsTable::FindCell(const BeliefKey& key) const {
  const size_t mask = index_.size() - 1;
  size_t cell = common::HashCombine(key.alpha_bits, key.beta_bits) & mask;
  while (index_[cell].slot != kNoSlot && !(index_[cell].key == key)) {
    cell = (cell + 1) & mask;
  }
  return cell;
}

void ChunkStatsTable::EraseCell(size_t cell) {
  const size_t mask = index_.size() - 1;
  size_t hole = cell;
  for (size_t next = (hole + 1) & mask; index_[next].slot != kNoSlot;
       next = (next + 1) & mask) {
    // A later cell of the run fills the hole if the hole lies on its probe
    // path, i.e. cyclically in [home, next).
    const size_t home =
        common::HashCombine(index_[next].key.alpha_bits, index_[next].key.beta_bits) &
        mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole].slot = kNoSlot;
}

}  // namespace core
}  // namespace exsample
