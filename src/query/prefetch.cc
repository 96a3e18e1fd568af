#include "query/prefetch.h"

#include <algorithm>
#include <thread>

namespace exsample {
namespace query {

DecodePrefetcher::DecodePrefetcher(ShardDispatcher* dispatcher,
                                   common::ThreadPool* pool, PrefetchOptions options)
    : dispatcher_(dispatcher), pool_(pool), options_(options) {
  common::Check(dispatcher_ != nullptr, "DecodePrefetcher needs a dispatcher");
  common::Check(dispatcher_->HasStores(), "prefetching needs decode stores");
  completions_ =
      std::make_unique<common::MpscRingBuffer<size_t>>(options_.depth + 1);
}

DecodePrefetcher::~DecodePrefetcher() {
  Drain();
  // Drain guarantees every frame is decoded, but a decode task's last act —
  // waking the parker — can still be in flight after its completion became
  // visible. Spin out those tails before the parker is destroyed.
  while (inflight_tasks_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

const std::vector<double>& DecodePrefetcher::SubmitBatch(
    common::Span<video::FrameId> frames, common::Span<const uint32_t> shards) {
  Drain();  // A slot vector reused under in-flight tasks would race.
  common::Check(shards.size() == frames.size(),
                "prefetch needs the owner of every frame");

  // Everything below runs under mu_: no decode tasks are in flight (Drain
  // just completed, and enqueueing happens at the end of this scope), but a
  // concurrent observer may be inside Cached(), which reads the containers
  // this section rebuilds.
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  slots_.resize(frames.size());
  charges_.resize(frames.size());
  cache_.clear();
  cache_.reserve(frames.size());

  // Plan every read now, on this thread, in batch order. This *is* the decode
  // accounting: position state and charged seconds advance exactly as the
  // synchronous loop's would, before any asynchronous work begins.
  for (size_t i = 0; i < frames.size(); ++i) {
    Slot& slot = slots_[i];
    slot.frame = frames[i];
    slot.plan = dispatcher_->PlanDecode(frames[i], shards[i]);
    slot.store = dispatcher_->Context(shards[i]).store;
    charges_[i] = slot.plan.seconds;
    cache_.emplace(frames[i], i);
  }
  stats_.batches += 1;
  stats_.frames += frames.size();

  cursor_ = 0;
  enqueued_ = 0;
  if (options_.depth == 0) {
    // Synchronous mode: perform every read inline, in order, before the
    // detect stage sees the batch — the legacy decode schedule, through the
    // same code path, which is what the overlap benches compare against.
    for (Slot& slot : slots_) {
      slot.store->PerformRead(slot.plan);
      slot.ready = true;
      stats_.inline_reads += 1;
    }
    enqueued_ = slots_.size();
  } else {
    EnqueueAheadLocked();
  }
  return charges_;
}

void DecodePrefetcher::EnqueueAheadLocked() {
  const size_t limit = std::min(slots_.size(), cursor_ + options_.depth);
  while (enqueued_ < limit) {
    const size_t i = enqueued_++;
    Slot& slot = slots_[i];
    if (pool_ == nullptr || pool_->NumThreads() <= 1) {
      // No pool (or a workerless one, whose Submit would run the task inline
      // on this thread — under our own mutex): perform the read here. Still
      // correct, just the synchronous schedule.
      slot.store->PerformRead(slot.plan);
      slot.ready = true;
      stats_.inline_reads += 1;
      continue;
    }
    stats_.async_reads += 1;
    inflight_tasks_.fetch_add(1, std::memory_order_relaxed);
    pool_->Submit([this, i] {
      // The slot vector is stable for the whole batch (SubmitBatch drains
      // before resizing), and plan/store are immutable once enqueued; this
      // task shares nothing mutable with the coordinator — completion is
      // announced by the ring push below, not by touching the slot.
      Slot& s = slots_[i];
      s.store->PerformRead(s.plan);
      // The push cannot fail: in-order consumption keeps unconsumed
      // completions bounded by `depth + 1`, which is the ring's capacity
      // (see the member comment). A full ring here means the window
      // invariant broke — die loudly rather than drop a frame.
      common::Check(completions_->TryPush(size_t{i}),
                    "prefetch completion ring overflow");
      // Waiter-counted wake: no syscall (and no mutex) unless the
      // coordinator is actually parked in WaitFrame/Drain.
      ready_parker_.WakeOne();
      inflight_tasks_.fetch_sub(1, std::memory_order_release);
    });
  }
  // Decode-ahead distance is only meaningful when a window exists: in
  // synchronous mode (depth 0) the whole batch is decoded at submit time and
  // `enqueued_ - cursor_` would misreport it as read-ahead.
  if (options_.depth > 0) {
    stats_.max_ahead = std::max(stats_.max_ahead, enqueued_ - cursor_);
  }
}

void DecodePrefetcher::DrainCompletionsLocked() {
  size_t index = 0;
  while (completions_->TryPop(index)) {
    slots_[index].ready = true;
  }
}

void DecodePrefetcher::WaitReadyLocked(std::unique_lock<std::mutex>& lock,
                                       size_t index) {
  DrainCompletionsLocked();
  int idle_spins = 0;
  while (!slots_[index].ready) {
    if (++idle_spins < common::Parker::kSpinIterations) {
      // Spin without mu_ so observers (Cached) are not starved, and yield
      // so the decode worker gets the core on an oversubscribed host.
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
      DrainCompletionsLocked();
      continue;
    }
    idle_spins = 0;
    lock.unlock();
    {
      common::Parker::WaitGuard guard(ready_parker_);
      // Registered as a waiter — drain once more before sleeping. A task
      // whose waiter-count read follows our registration notifies; one
      // whose read came first pushed a completion this drain sees.
      lock.lock();
      DrainCompletionsLocked();
      const bool ready = slots_[index].ready;
      lock.unlock();
      if (!ready) guard.Wait();
    }
    lock.lock();
    DrainCompletionsLocked();
  }
}

void DecodePrefetcher::WaitFrame(size_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  common::Check(index < slots_.size(), "prefetch wait past the batch");
  common::Check(index == cursor_,
                "prefetched frames must be consumed in batch order");
  // Open the window *before* blocking: frames behind `index` keep decoding
  // while the caller (and we) wait for this one.
  cursor_ = index + 1;
  EnqueueAheadLocked();
  WaitReadyLocked(lock, index);
}

void DecodePrefetcher::WaitThrough(size_t index) {
  // Depth 0 decoded the whole batch at submit time: nothing to wait for.
  if (options_.depth == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  common::Check(index < slots_.size(), "prefetch wait past the batch");
  while (cursor_ <= index) {
    const size_t next = cursor_++;
    EnqueueAheadLocked();
    WaitReadyLocked(lock, next);
  }
}

void DecodePrefetcher::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (cursor_ < slots_.size()) {
    const size_t index = cursor_++;
    EnqueueAheadLocked();
    WaitReadyLocked(lock, index);
  }
}

bool DecodePrefetcher::Cached(video::FrameId frame) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_.find(frame);
  if (it == cache_.end()) return false;
  if (slots_[it->second].ready) return true;
  // A completion may be queued but not yet consumed; drain so the answer
  // reflects every decode that has actually finished. Pops are safe from
  // any thread, and the ready bits are covered by mu_ held here.
  const_cast<DecodePrefetcher*>(this)->DrainCompletionsLocked();
  return slots_[it->second].ready;
}

}  // namespace query
}  // namespace exsample
