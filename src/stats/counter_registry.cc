#include "stats/counter_registry.h"

#include <algorithm>

#include "common/status.h"

namespace exsample {
namespace stats {

CounterSlab::CounterSlab(std::string scope)
    : scope_(std::move(scope)), counters_(kMaxMetrics), gauges_(kMaxMetrics) {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  for (auto& g : gauges_) g.store(0.0, std::memory_order_relaxed);
}

MetricId CounterRegistry::RegisterLocked(const std::string& name,
                                         MetricKind kind) {
  auto& ids = (kind == MetricKind::kCounter) ? counter_ids_ : gauge_ids_;
  auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  const MetricId id = ids.size();
  common::Check(id < CounterSlab::kMaxMetrics,
                "CounterRegistry metric capacity exhausted");
  ids.emplace(name, id);
  return id;
}

MetricId CounterRegistry::RegisterCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterLocked(name, MetricKind::kCounter);
}

MetricId CounterRegistry::RegisterGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterLocked(name, MetricKind::kGauge);
}

CounterSlab* CounterRegistry::AcquireSlab(const std::string& scope) {
  std::lock_guard<std::mutex> lock(mu_);
  slabs_.push_back(std::make_unique<CounterSlab>(scope));
  return slabs_.back().get();
}

void CounterRegistry::RetireSlab(CounterSlab* slab) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find_if(slabs_.begin(), slabs_.end(),
                               [slab](const std::unique_ptr<CounterSlab>& s) {
                                 return s.get() == slab;
                               });
  common::Check(it != slabs_.end(), "retired slab not owned by this registry");
  retired_counters_.resize(counter_ids_.size(), 0);
  for (MetricId id = 0; id < retired_counters_.size(); ++id) {
    retired_counters_[id] += slab->CounterValue(id);
  }
  slabs_.erase(it);
}

StatsSnapshot CounterRegistry::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot snapshot;
  snapshot.sync_sequence = ++sync_sequence_;
  for (const auto& [name, id] : counter_ids_) {
    uint64_t total = id < retired_counters_.size() ? retired_counters_[id] : 0;
    for (const auto& slab : slabs_) total += slab->CounterValue(id);
    snapshot.counters.emplace(name, total);
  }
  for (const auto& [name, id] : gauge_ids_) {
    double total = 0.0;
    for (const auto& slab : slabs_) total += slab->GaugeValue(id);
    snapshot.gauges.emplace(name, total);
  }
  return snapshot;
}

size_t CounterRegistry::NumCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counter_ids_.size();
}

size_t CounterRegistry::NumGauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauge_ids_.size();
}

size_t CounterRegistry::NumSlabs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slabs_.size();
}

}  // namespace stats
}  // namespace exsample
