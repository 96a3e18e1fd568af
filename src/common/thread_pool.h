#ifndef EXSAMPLE_COMMON_THREAD_POOL_H_
#define EXSAMPLE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parking.h"
#include "common/ring_buffer.h"

namespace exsample {
namespace common {

/// \brief Fixed-size worker pool for data-parallel fan-out.
///
/// The execution pipeline uses one pool for the whole engine: the detector
/// stage fans a batch of independent per-frame calls across the workers while
/// everything order-sensitive (Thompson sampling, discriminator updates, cost
/// accounting) stays on the caller thread. `ParallelFor` assigns work by
/// index, so results written to index `i` of a pre-sized output land in a
/// deterministic slot regardless of which worker ran them — thread count can
/// never change what a computation produces, only how fast.
///
/// One caller drives the pool at a time (`ParallelFor` is not re-entrant and
/// must not be invoked concurrently from two threads; violations die loudly
/// via `FatalError`). Tasks must not throw.
///
/// Beyond the blocking `ParallelFor`, the pool accepts fire-and-forget work
/// via `Submit` — the seam the decode prefetcher uses to push frame decodes
/// ahead of the detect stage. Workers service both kinds of work: queued
/// tasks take priority, and a `ParallelFor` driven from the caller thread
/// still completes even while every worker is busy with submitted tasks
/// (the caller participates in its own job).
///
/// ## Hot-path design (lock-free)
///
/// Neither `Submit` nor `ParallelFor` index dispatch takes a mutex while
/// workers are live. Submitted tasks travel through bounded MPSC rings —
/// one per worker (round-robin target, stealable by the others) plus a
/// shared injection ring — and spill to a mutex-guarded overflow deque
/// only when every ring is full. `ParallelFor` publishes its job through
/// a single packed generation/index word that workers claim with one CAS
/// per index. Idle workers spin briefly, then park on a waiter-counted
/// `Parker`; a producer pays for a wakeup syscall only when someone is
/// actually parked. The mutex/CV pair survives solely for park/unpark,
/// overflow spill, and shutdown — exactly the cold paths.
class ThreadPool {
 public:
  /// \brief Starts `num_threads` workers. 0 means one worker per hardware
  /// thread; 1 means no workers at all (every ParallelFor runs inline on the
  /// caller, which keeps single-threaded runs free of synchronization).
  explicit ThreadPool(size_t num_threads = 0);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Total threads that execute work (workers plus the calling
  /// thread). A pool constructed with 1 reports 1.
  size_t NumThreads() const { return workers_.size() + 1; }

  /// \brief Runs `fn(0) .. fn(n-1)` across the pool and blocks until all have
  /// completed. The caller thread participates. Indices are claimed
  /// dynamically, so per-index cost imbalance self-balances.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// \brief Enqueues `task` to run asynchronously on a worker and returns
  /// immediately. A pool without workers (constructed with 1) runs the task
  /// inline before returning — the deterministic single-threaded fallback.
  ///
  /// Completion is the submitter's business: tasks carry their own signaling
  /// (the prefetcher marks a slot ready and notifies its parker).
  /// Destruction drains the queues — every submitted task runs before the
  /// workers exit — but callers that *wait* on task side effects must not
  /// destroy the pool from inside that wait. Tasks must not throw and must
  /// not call `ParallelFor` or `Submit` on their own pool.
  void Submit(std::function<void()> task);

 private:
  using Task = std::function<void()>;
  using TaskRing = MpscRingBuffer<Task>;

  /// Sentinel low word of job_claim_: no claimable indices.
  static constexpr uint32_t kIdleIndex = 0xFFFFFFFFu;

  void WorkerLoop(size_t self);
  /// Pop and run one submitted task (own ring, injection ring, steal,
  /// overflow — in that order). Returns true if a task ran.
  bool RunOneTask(size_t self);
  /// Claim and run indices of the active ParallelFor job, if any.
  /// Returns true if at least one index ran.
  bool RunJobIndices();
  /// Conservative work check used under the parker before sleeping.
  bool HasVisibleWork() const;

  std::vector<std::thread> workers_;

  // --- Submitted-task plumbing -------------------------------------------
  std::vector<std::unique_ptr<TaskRing>> worker_rings_;
  std::unique_ptr<TaskRing> injection_ring_;
  std::atomic<size_t> submit_cursor_{0};  // Round-robin ring target.
  std::mutex overflow_mu_;                // Guards overflow_ only.
  std::deque<Task> overflow_;             // Spill when every ring is full.
  std::atomic<size_t> overflow_size_{0};  // Lock-free emptiness probe.

  // --- ParallelFor job slot (single driver at a time) --------------------
  // Publication order: fn/n/done are written first, then job_claim_ gets
  // (generation << 32 | 0) with release. Workers claim index i by CASing
  // (gen, i) -> (gen, i+1); the generation half makes a stale claim from a
  // previous job fail instead of touching the new job's state. After the
  // final index completes, the driver stores (gen, kIdleIndex) so no CAS
  // can succeed between jobs. fn/n are atomics only so a stale-generation
  // reader is a benign race instead of UB — the CAS gate, not their
  // ordering, is what guards the dereference.
  std::atomic<uint64_t> job_claim_{kIdleIndex};
  std::atomic<const std::function<void(size_t)>*> job_fn_{nullptr};
  std::atomic<size_t> job_n_{0};
  std::atomic<size_t> job_done_{0};
  std::atomic<bool> parallel_for_active_{false};  // Concurrent-caller trap.

  // --- Cold-path signaling ------------------------------------------------
  Parker wake_parker_;  // Idle workers park here.
  Parker done_parker_;  // The ParallelFor driver parks here.
  std::atomic<bool> stop_{false};
};

}  // namespace common
}  // namespace exsample

#endif  // EXSAMPLE_COMMON_THREAD_POOL_H_
