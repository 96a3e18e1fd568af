#ifndef EXSAMPLE_QUERY_PREFETCH_H_
#define EXSAMPLE_QUERY_PREFETCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/parking.h"
#include "common/ring_buffer.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "query/shard_dispatch.h"
#include "video/decode.h"
#include "video/repository.h"

namespace exsample {
namespace query {

/// \brief Decode-ahead configuration of a `DecodePrefetcher`.
struct PrefetchOptions {
  /// Maximum frames decoded (or decoding) ahead of the frame the detect
  /// stage last waited on — the bounded in-flight window. 0 disables
  /// overlap: every read is planned *and* performed inline at submit time,
  /// which is exactly the synchronous decode stage.
  size_t depth = 4;
};

/// \brief Running tallies of a prefetcher's work.
struct PrefetchStats {
  uint64_t batches = 0;
  uint64_t frames = 0;
  /// Reads handed to a pool worker (decode overlapped with detection).
  uint64_t async_reads = 0;
  /// Reads performed inline on the coordinator (depth 0, or no pool).
  uint64_t inline_reads = 0;
  /// Largest decode-ahead distance observed; never exceeds `depth`.
  size_t max_ahead = 0;
};

/// \brief Pipelined decode stage: decodes a picked batch's frames on a worker
/// pool while the detect stage consumes earlier frames of the batch.
///
/// The prefetcher is what lets the decoder work *ahead* of the detector
/// instead of idling during inference (EKO's observation that decode-side
/// work is a first-class bottleneck for adaptive sampling). It preserves the
/// library's determinism contract by splitting every read into the store's
/// `PlanRead` / `PerformRead` halves:
///
///  - **Accounting is synchronous.** `SubmitBatch` plans every read on the
///    coordinator thread, in batch order, against the owning store's
///    sequential position state — so the charged seconds (and the per-shard
///    attribution) are bit-identical to the synchronous decode loop, whatever
///    the pool does afterwards.
///  - **Work is asynchronous.** The planned reads are performed on the pool
///    (or each shard's private I/O pool) with at most `depth` frames in
///    flight beyond the detect stage's consumption cursor; decoded frames
///    land in a cache keyed by `FrameId` until the batch completes.
///
/// Consumption is strictly in batch order: `WaitFrame(i)` blocks until frame
/// `i` is decoded, advancing the window so later frames start decoding while
/// the caller runs detection on earlier ones. One coordinator thread drives
/// the prefetcher (submit/wait); only the decode tasks run elsewhere.
///
/// ## Completion path (lock-free producers)
///
/// A finished decode task pushes its slot index into a bounded MPSC
/// completion ring and wakes the coordinator through a waiter-counted
/// `Parker` — when nobody is blocked in `WaitFrame`/`Drain` (the common
/// case while detection is the bottleneck) a completion costs one ring
/// push and one fence, no mutex and no condition-variable syscall. The
/// ring can never overflow: in-order consumption bounds unconsumed
/// completions by the window depth. `mu_` survives only on the
/// coordinator/observer side (batch rebuild, `Cached`), where it is
/// uncontended by design.
///
/// A real decoder backend slots in behind the same seam: implement
/// `PlanRead` (index the container, price the read) and `PerformRead` (do
/// it) on the store, and the prefetcher overlaps real decode with real
/// inference unchanged.
class DecodePrefetcher {
 public:
  /// Unsharded: all reads are planned on and performed by `store`; decode
  /// tasks run on `pool`. A null `pool` (or `depth == 0`) degrades to
  /// synchronous inline decode — same charges, no overlap.
  DecodePrefetcher(video::SimulatedVideoStore* store, common::ThreadPool* pool,
                   PrefetchOptions options);

  /// Sharded with per-shard stores (`dispatcher->HasStores()`): each frame is
  /// planned on its owning shard's store (per-shard sequential position, as
  /// the synchronous path prices it) and performed on the shard's `io_pool`,
  /// falling back to `pool`.
  DecodePrefetcher(ShardDispatcher* dispatcher, common::ThreadPool* pool,
                   PrefetchOptions options);

  /// Drains any in-flight decode work.
  ~DecodePrefetcher();

  DecodePrefetcher(const DecodePrefetcher&) = delete;
  DecodePrefetcher& operator=(const DecodePrefetcher&) = delete;

  /// \brief Plans the whole batch (deterministic, batch-order accounting) and
  /// starts decoding up to `depth` frames ahead. Returns the per-frame
  /// charged seconds, parallel to `frames` — exactly what the synchronous
  /// loop would have charged, in the same order. For the sharded
  /// constructor, `shards` must hold each frame's owner. Any previous batch
  /// is drained first.
  const std::vector<double>& SubmitBatch(common::Span<video::FrameId> frames,
                                         common::Span<const uint32_t> shards = {});

  /// \brief Blocks until frame `index` of the current batch is decoded and
  /// opens the window one frame further. Frames must be waited on in batch
  /// order (the detect stage consumes in order; that order is load-bearing
  /// for the window bound).
  void WaitFrame(size_t index);

  /// \brief `WaitFrame` for every frame up to `index` not yet waited on, in
  /// batch order; returns at once when the consumer is already past it.
  void WaitThrough(size_t index);

  /// \brief Waits for every frame of the current batch (detect consumed the
  /// whole batch, or the batch is being abandoned).
  void Drain();

  /// \brief True when `frame` belongs to the current batch and its decode has
  /// completed (it is present in the cache). Observability/test hook.
  bool Cached(video::FrameId frame) const;

  size_t depth() const { return options_.depth; }
  const PrefetchStats& stats() const { return stats_; }

 private:
  struct Slot {
    video::FrameId frame = 0;
    const video::SimulatedVideoStore* store = nullptr;  // Performs the read.
    common::ThreadPool* pool = nullptr;                 // Runs the read.
    video::ReadPlan plan;
    bool ready = false;  // Written under mu_ (inline decode or ring drain).
  };

  /// Starts decode tasks for every slot inside the window
  /// `[cursor_, cursor_ + depth)` not yet enqueued. Called with mu_ held.
  void EnqueueAheadLocked();

  /// Pops every queued completion and marks its slot ready. Called with
  /// mu_ held (pops themselves are lock-free; mu_ covers the ready bits).
  void DrainCompletionsLocked();

  /// Blocks until slots_[index] is ready: spin-drain the completion ring,
  /// then park on ready_parker_. Called with mu_ held via \p lock; the
  /// lock is released while parked so observers are never blocked behind
  /// a sleeping coordinator.
  void WaitReadyLocked(std::unique_lock<std::mutex>& lock, size_t index);

  video::SimulatedVideoStore* store_ = nullptr;  // Unsharded constructor.
  ShardDispatcher* dispatcher_ = nullptr;        // Sharded constructor.
  common::ThreadPool* pool_ = nullptr;
  PrefetchOptions options_;
  PrefetchStats stats_;

  std::vector<Slot> slots_;       // Current batch; stable while tasks run.
  std::vector<double> charges_;   // Per-frame seconds, returned to the caller.
  // Decoded-frame cache for the current batch: FrameId -> slot index. Entries
  // are inserted at plan time and looked up under mu_ together with the
  // slot's ready bit; the cache is bounded by the batch (plus never more than
  // `depth` frames decoded ahead of the consumer) and cleared on the next
  // SubmitBatch.
  std::unordered_map<video::FrameId, size_t> cache_;
  size_t enqueued_ = 0;  // Slots handed to a pool (prefix of the batch).
  size_t cursor_ = 0;    // First slot not yet waited on by the consumer.

  // Completion plumbing: decode tasks push their slot index here and wake
  // the parker; nothing on the producer side takes mu_. Capacity `depth + 1`
  // is an invariant, not a tuning knob: WaitFrame/Drain advance cursor_ and
  // enqueue ahead *before* draining the awaited slot, so the unpopped set
  // spans `[index, index + 1 + depth)` — at most `depth + 1` completions.
  // Every slot below the awaited index has had its completion popped already
  // (consumption is in order).
  std::unique_ptr<common::MpscRingBuffer<size_t>> completions_;
  common::Parker ready_parker_;
  // Decode tasks still touch the parker after their completion becomes
  // visible; the destructor waits for this to hit zero before tearing the
  // parker down.
  std::atomic<uint64_t> inflight_tasks_{0};

  mutable std::mutex mu_;
};

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_PREFETCH_H_
