#include "common/thread_pool.h"

#include <utility>

#include "common/status.h"

namespace exsample {
namespace common {

namespace {

/// Per-worker ring capacity. Small on purpose: the rings are a fast lane,
/// not a backlog store — sustained overload spills to the overflow deque,
/// which is the correct place for unbounded queueing to pay a lock.
constexpr size_t kWorkerRingCapacity = 256;

/// Shared injection ring capacity (second chance before the overflow lock).
constexpr size_t kInjectionRingCapacity = 512;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw > 0 ? hw : 1;
  }
  const size_t num_workers = num_threads - 1;
  injection_ring_ = std::make_unique<TaskRing>(kInjectionRingCapacity);
  worker_rings_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    worker_rings_.push_back(std::make_unique<TaskRing>(kWorkerRingCapacity));
  }
  // The caller thread is worker number one; spawn the rest. Rings must all
  // exist before the first thread starts (workers steal from every ring).
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  wake_parker_.WakeAll();
  for (std::thread& worker : workers_) worker.join();
  // Workers drained the rings and overflow before exiting (the destructor
  // contract: every submitted task runs). A pool that never had workers
  // ran everything inline, so there is nothing left either way.
}

bool ThreadPool::RunOneTask(size_t self) {
  Task task;
  if (self < worker_rings_.size() && worker_rings_[self]->TryPop(task)) {
    task();
    return true;
  }
  if (injection_ring_->TryPop(task)) {
    task();
    return true;
  }
  // Steal: sweep the other workers' rings. Start past self so two idle
  // workers don't hammer the same victim.
  const size_t rings = worker_rings_.size();
  for (size_t k = 1; k <= rings; ++k) {
    const size_t victim = (self + k) % rings;
    if (victim == self) continue;
    if (worker_rings_[victim]->TryPop(task)) {
      task();
      return true;
    }
  }
  if (overflow_size_.load(std::memory_order_acquire) > 0) {
    bool popped = false;
    {
      std::lock_guard<std::mutex> lock(overflow_mu_);
      if (!overflow_.empty()) {
        task = std::move(overflow_.front());
        overflow_.pop_front();
        overflow_size_.fetch_sub(1, std::memory_order_release);
        popped = true;
      }
    }
    if (popped) {
      task();
      return true;
    }
  }
  return false;
}

bool ThreadPool::RunJobIndices() {
  bool ran = false;
  uint64_t word = job_claim_.load(std::memory_order_acquire);
  for (;;) {
    const uint32_t idx = static_cast<uint32_t>(word & 0xFFFFFFFFull);
    if (idx == kIdleIndex) return ran;  // No job published.
    // A stale `word` can pair with the *next* job's n here; the CAS below
    // fails in that case (generation mismatch), so the comparison only has
    // to be safe, not current.
    if (static_cast<size_t>(idx) >= job_n_.load(std::memory_order_relaxed)) {
      return ran;
    }
    if (job_claim_.compare_exchange_weak(word, word + 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      // The claim succeeded against the live generation, which pins the
      // job fields: they cannot be rewritten until job_done_ reaches n,
      // and that requires the increment we perform below.
      const std::function<void(size_t)>* fn =
          job_fn_.load(std::memory_order_relaxed);
      const size_t n = job_n_.load(std::memory_order_relaxed);
      (*fn)(static_cast<size_t>(idx));
      ran = true;
      if (job_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        done_parker_.WakeAll();  // No syscall unless the driver parked.
      }
      word = job_claim_.load(std::memory_order_acquire);
    }
    // CAS failure reloaded `word` (acquire); loop with the fresh view.
  }
}

bool ThreadPool::HasVisibleWork() const {
  if (!injection_ring_->Empty()) return true;
  for (const auto& ring : worker_rings_) {
    if (!ring->Empty()) return true;
  }
  if (overflow_size_.load(std::memory_order_acquire) > 0) return true;
  const uint64_t word = job_claim_.load(std::memory_order_acquire);
  const uint32_t idx = static_cast<uint32_t>(word & 0xFFFFFFFFull);
  if (idx != kIdleIndex &&
      static_cast<size_t>(idx) < job_n_.load(std::memory_order_relaxed)) {
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t self) {
  int idle_spins = 0;
  for (;;) {
    if (RunOneTask(self) || RunJobIndices()) {
      idle_spins = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Shutdown: drain every queue before exiting so no submitted task is
      // stranded. Tasks cannot enqueue onto their own pool (documented),
      // so one empty sweep means empty for good.
      while (RunOneTask(self)) {
      }
      return;
    }
    if (++idle_spins < Parker::kSpinIterations) {
      // Yield inside the spin: on an oversubscribed host the producer we
      // are waiting on may need this very core.
      std::this_thread::yield();
      continue;
    }
    idle_spins = 0;
    Parker::WaitGuard guard(wake_parker_);
    // Registered as a waiter — re-check before sleeping. A producer whose
    // waiter-count read follows our registration sees it and notifies; one
    // whose read came first published work this re-check sees.
    if (HasVisibleWork() || stop_.load(std::memory_order_acquire)) {
      continue;  // ~WaitGuard deregisters.
    }
    guard.Wait();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    // No workers to hand off to: run inline, preserving the invariant that a
    // submitted task has run (or is running) once Submit returns control flow
    // to a single-threaded program.
    task();
    return;
  }
  // Fast path: bounded rings, no mutex. Round-robin a home ring so
  // submissions spread across workers; fall back to the shared injection
  // ring, and only then pay the overflow lock (ring exhaustion means the
  // pool is already saturated, so the lock is off the critical path).
  const size_t home =
      submit_cursor_.fetch_add(1, std::memory_order_relaxed) %
      worker_rings_.size();
  if (!worker_rings_[home]->TryPush(std::move(task))) {
    if (!injection_ring_->TryPush(std::move(task))) {
      std::lock_guard<std::mutex> lock(overflow_mu_);
      overflow_.push_back(std::move(task));
      overflow_size_.fetch_add(1, std::memory_order_release);
    }
  }
  wake_parker_.WakeOne();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Inline execution touches no shared job state, so concurrent inline
    // calls (distinct drivers on a workerless pool) are harmless.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (parallel_for_active_.exchange(true, std::memory_order_acq_rel)) {
    FatalError(
        "ThreadPool::ParallelFor is not re-entrant: a second caller entered "
        "while a job was in flight. Drive each pool from one thread at a "
        "time (nested/concurrent ParallelFor on the same pool corrupts the "
        "shared job slot).");
  }
  Check(n < static_cast<size_t>(kIdleIndex),
        "ThreadPool::ParallelFor: n exceeds the claimable index range");

  // Publish: fields first, then the claim word (release). Workers claim
  // indices straight off job_claim_ — no mutex, no per-worker handshake.
  job_fn_.store(&fn, std::memory_order_relaxed);
  job_n_.store(n, std::memory_order_relaxed);
  job_done_.store(0, std::memory_order_relaxed);
  const uint64_t generation =
      (job_claim_.load(std::memory_order_relaxed) >> 32) + 1;
  job_claim_.store(generation << 32, std::memory_order_release);
  wake_parker_.WakeAll();

  // The driver is worker number one in its own job.
  RunJobIndices();

  // Completion: spin briefly (the tail of the last index is usually
  // short), then park on the done parker.
  int idle_spins = 0;
  while (job_done_.load(std::memory_order_acquire) != n) {
    if (++idle_spins < Parker::kSpinIterations) {
      std::this_thread::yield();
      continue;
    }
    idle_spins = 0;
    Parker::WaitGuard guard(done_parker_);
    if (job_done_.load(std::memory_order_acquire) == n) break;
    guard.Wait();
  }

  // Retire the generation: park the claim word on kIdleIndex so no stale
  // CAS can touch the slot between jobs (see header comment).
  job_claim_.store((generation << 32) | kIdleIndex,
                   std::memory_order_release);
  parallel_for_active_.store(false, std::memory_order_release);
}

}  // namespace common
}  // namespace exsample
