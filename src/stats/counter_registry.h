#ifndef EXSAMPLE_STATS_COUNTER_REGISTRY_H_
#define EXSAMPLE_STATS_COUNTER_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace exsample {
namespace stats {

/// Dense id assigned by `CounterRegistry::RegisterCounter` /
/// `RegisterGauge`. Ids index directly into per-thread slab slots.
using MetricId = size_t;

/// \brief Metric flavors held by the registry.
///
/// Counters are monotonic sums (events, frames, bytes); gauges are
/// level-style values (queue depth, lookahead) where the per-slab value is
/// "last written" and the global value is the sum across slabs (each slab
/// owns a disjoint share of the level, e.g. one shard's queue).
enum class MetricKind { kCounter, kGauge };

/// \brief Fixed-capacity block of per-writer metric slots.
///
/// Modeled on Suricata's per-thread counter arrays: the hot path mutates a
/// slot owned by exactly one writer thread with plain relaxed loads/stores —
/// no locked read-modify-write, no mutex — and a reader (`CounterRegistry::
/// Sync`) aggregates all slabs with relaxed loads. Relaxed atomics on a
/// single-writer slot compile to ordinary mov instructions on x86/ARM, so
/// the increment is as cheap as a plain `++` while staying defined behavior
/// (and TSan-clean) against the concurrent sync.
///
/// Slots are pre-sized to `kMaxMetrics` so registration and slab acquisition
/// can interleave freely; ids from a registry are always in range for every
/// slab of that registry.
class CounterSlab {
 public:
  // Sized for the multi-tenant serving layer: every tenant registers its own
  // `tenant.<id>.*` metric family (~8 names), on top of the engine's fixed
  // session/service/transport/reuse names. Registration past the cap is a
  // fatal `Check` in `CounterRegistry::RegisterLocked`, never a silent wrap.
  static constexpr size_t kMaxMetrics = 512;

  explicit CounterSlab(std::string scope);

  CounterSlab(const CounterSlab&) = delete;
  CounterSlab& operator=(const CounterSlab&) = delete;

  /// Adds `delta` to a counter slot. Single-writer: only the owning thread
  /// may call this for a given slab.
  void Add(MetricId id, uint64_t delta = 1) {
    std::atomic<uint64_t>& slot = counters_[id];
    slot.store(slot.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  /// Overwrites a gauge slot. Single-writer, same contract as `Add`.
  void SetGauge(MetricId id, double value) {
    gauges_[id].store(value, std::memory_order_relaxed);
  }

  /// Current value of a counter slot (relaxed read; exact when quiescent).
  uint64_t CounterValue(MetricId id) const {
    return counters_[id].load(std::memory_order_relaxed);
  }
  /// Current value of a gauge slot (relaxed read).
  double GaugeValue(MetricId id) const {
    return gauges_[id].load(std::memory_order_relaxed);
  }

  /// Scope label the slab was acquired under (e.g. "session/0", "service").
  const std::string& scope() const { return scope_; }

 private:
  std::string scope_;
  std::vector<std::atomic<uint64_t>> counters_;
  std::vector<std::atomic<double>> gauges_;
};

/// Null-safe helpers: components hold a `CounterSlab*` that is nullptr when
/// stats collection is off, and tick through these so the hot path stays a
/// single branch in the disabled case.
inline void SlabAdd(CounterSlab* slab, MetricId id, uint64_t delta = 1) {
  if (slab != nullptr) slab->Add(id, delta);
}
inline void SlabSetGauge(CounterSlab* slab, MetricId id, double value) {
  if (slab != nullptr) slab->SetGauge(id, value);
}

/// \brief Point-in-time aggregate of every slab, keyed by metric name.
///
/// Maps are ordered so JSON export is deterministic.
struct StatsSnapshot {
  uint64_t sync_sequence = 0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
};

/// \brief Engine-wide registry of named counters/gauges and their slabs.
///
/// Registration and slab acquisition are mutex-guarded (cold path, engine
/// setup); increments touch only the acquired slab (lock-free, see
/// `CounterSlab`); `Sync` walks every slab under the mutex and sums slots
/// into a `StatsSnapshot`. Slabs are owned by the registry and live until
/// the registry dies or their writer retires them (`RetireSlab`), so a
/// component may keep its raw pointer for its whole lifetime (the engine
/// owns the registry and outlives its components). Short-lived writers — a
/// query session — retire their slab when they finish, so a long-running
/// engine holds slabs only for its live writers.
class CounterRegistry {
 public:
  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Registers (or looks up) a monotonic counter. Re-registering the same
  /// name returns the existing id, so independent components can share a
  /// metric without coordination.
  MetricId RegisterCounter(const std::string& name);

  /// Registers (or looks up) a gauge.
  MetricId RegisterGauge(const std::string& name);

  /// Acquires a new slab for one writer thread / component. The returned
  /// pointer is valid for the registry's lifetime, or until `RetireSlab`.
  CounterSlab* AcquireSlab(const std::string& scope);

  /// Retires a slab whose writer is done for good: its counters are added
  /// to totals the registry keeps for retired slabs (so every `Sync` sum
  /// stays exact) and the slab is freed. Its gauges are dropped — a gauge
  /// slot is the writer's share of a level, and a departed writer holds
  /// none. The caller must first detach the slab from its writer: no tick
  /// may land on it after this call.
  void RetireSlab(CounterSlab* slab);

  /// Aggregates all slabs into a named snapshot and bumps the sync
  /// sequence number. Safe to call while writers are ticking slabs
  /// (values are relaxed reads, each slot internally consistent).
  StatsSnapshot Sync();

  /// Number of registered metrics of each kind (for tests / capacity
  /// monitoring).
  size_t NumCounters() const;
  size_t NumGauges() const;

  /// Number of slabs acquired and not yet retired.
  size_t NumSlabs() const;

 private:
  MetricId RegisterLocked(const std::string& name, MetricKind kind);

  mutable std::mutex mu_;
  // name -> id, per kind. Ids are dense per kind: counters and gauges index
  // separate slot arrays in the slab.
  std::map<std::string, MetricId> counter_ids_;
  std::map<std::string, MetricId> gauge_ids_;
  std::vector<std::unique_ptr<CounterSlab>> slabs_;
  // Counter totals of retired slabs, indexed by counter id.
  std::vector<uint64_t> retired_counters_;
  uint64_t sync_sequence_ = 0;
};

}  // namespace stats
}  // namespace exsample

#endif  // EXSAMPLE_STATS_COUNTER_REGISTRY_H_
