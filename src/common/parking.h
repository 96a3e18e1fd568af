#ifndef EXSAMPLE_COMMON_PARKING_H_
#define EXSAMPLE_COMMON_PARKING_H_

/// \file parking.h
/// \brief Spin-then-park wakeup protocol for lock-free queues.
///
/// The ring buffers in ring_buffer.h never block, so consumers need a
/// way to sleep when a queue runs dry without reintroducing a mutex on
/// the producer's fast path. Parker is a waiter-counted eventcount:
///
///   consumer:  spin a bounded number of times re-checking the queue;
///              if still empty, register (waiters++, a seq_cst RMW),
///              re-check the queue once more, then Wait() on the CV.
///   producer:  publish the element (release store inside the ring),
///              then read the waiter count with a seq_cst RMW
///              (fetch_add(0)); only when it is non-zero take the mutex
///              and notify.
///
/// Every access to the count in this handshake is a read-modify-write,
/// so the count's modification order alone decides each race between a
/// producer's read R and a consumer's increment W. If R comes after W,
/// R reads a count that includes the waiter and the producer notifies.
/// If R comes before W, W reads R's value (or that of a later RMW, all of
/// which continue R's release sequence), so W's acquire synchronizes
/// with R's release: the producer's ring push happens-before the
/// consumer's re-check, which therefore sees the element. A wakeup can
/// never be lost, the argument needs no fences (which ThreadSanitizer
/// cannot model), and the common uncontended Submit costs zero syscalls
/// and one RMW beyond the ring's own release store.
///
/// Spurious wakeups are the caller's problem by design: Wait() returns
/// whenever notified or on spurious CV wakeup, and the caller loops on
/// its own predicate. This keeps Parker oblivious to what "work
/// available" means, so one implementation serves the thread pool, the
/// prefetcher, and the loopback transport.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace exsample {
namespace common {

/// \brief Waiter-counted park/unpark primitive (eventcount).
class Parker {
 public:
  Parker() = default;
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;

  /// \brief Number of relaxed re-check iterations consumers should
  /// spin before parking. Short on purpose: on an oversubscribed box
  /// (CI runners, the 1-core dev machine) long spins steal cycles from
  /// the very producer being waited on.
  static constexpr int kSpinIterations = 64;

  /// \brief RAII wait session. Construct to register as a waiter (an
  /// RMW that either a later producer's read sees or that acquires an
  /// earlier producer's push), then re-check the queue, then Wait() if
  /// still empty.
  class WaitGuard {
   public:
    explicit WaitGuard(Parker& parker) : parker_(parker), lock_(parker.mu_) {
      parker_.waiters_.fetch_add(1, std::memory_order_seq_cst);
    }

    ~WaitGuard() {
      parker_.waiters_.fetch_sub(1, std::memory_order_seq_cst);
    }

    WaitGuard(const WaitGuard&) = delete;
    WaitGuard& operator=(const WaitGuard&) = delete;

    /// \brief Block until notified (or spuriously woken). The caller
    /// re-checks its predicate and either returns to work or calls
    /// Wait() again.
    void Wait() { parker_.cv_.wait(lock_); }

   private:
    Parker& parker_;
    std::unique_lock<std::mutex> lock_;
  };

  /// \brief Producer side: wake one parked consumer if any are parked.
  ///
  /// Call *after* publishing work to the queue. The count is read with
  /// an RMW so it is ordered against WaitGuard's increment; see the file
  /// comment for the lost-wakeup argument.
  void WakeOne() {
    if (waiters_.fetch_add(0, std::memory_order_seq_cst) == 0) return;
    // Taking the mutex before notifying closes the window where the
    // waiter has incremented the count and re-checked the queue but
    // not yet reached cv_.wait(): the notify cannot run inside that
    // window because the waiter holds mu_ throughout it.
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_one();
  }

  /// \brief Producer side: wake all parked consumers if any.
  void WakeAll() {
    if (waiters_.fetch_add(0, std::memory_order_seq_cst) == 0) return;
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

  /// \brief Current number of registered waiters (diagnostic).
  std::uint32_t Waiters() const {
    return waiters_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<std::uint32_t> waiters_{0};
};

}  // namespace common
}  // namespace exsample

#endif  // EXSAMPLE_COMMON_PARKING_H_
