#ifndef EXSAMPLE_SERVE_TENANT_H_
#define EXSAMPLE_SERVE_TENANT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "stats/stats_json.h"

namespace exsample {
namespace serve {

/// \brief Service-level objective class of a tenant: how the serving layer
/// treats its queries under detector saturation.
enum class SloClass {
  /// Latency-sensitive users: queued (never shed) under saturation.
  kInteractive,
  /// Batch/scavenger work: deprioritized first in the weighted-fair pick
  /// and cancelled first when the engine must shed load.
  kBestEffort,
};

/// \brief Lowercase name of an SLO class ("interactive", "besteffort").
const char* SloClassName(SloClass slo);

/// \brief Parses an SLO class name as `SloClassName` prints it.
std::optional<SloClass> ParseSloClass(const std::string& name);

/// \brief One tenant's contract with the serving layer: its weighted-fair
/// share of detector capacity and the hard limits admission enforces.
///
/// The budget fields mirror Suricata's per-rule threshold tracking: cheap
/// per-tenant counters consulted on the admission hot path, charged from the
/// accounting the engine already keeps per session (simulated charged
/// seconds / detector frames) — no new measurement machinery.
struct TenantSpec {
  /// Stable identity; also names the tenant's stats (`tenant.<id>.*`).
  /// Must be non-empty and use only [a-z0-9_-] so the dotted metric names
  /// stay parseable.
  std::string id;
  /// Weighted-fair share of detector-seconds relative to other tenants
  /// (weight 4 vs 1 targets a 4:1 split of charged seconds under
  /// contention). Must be > 0.
  double weight = 1.0;
  /// Saturation policy (see `SloClass`).
  SloClass slo = SloClass::kInteractive;
  /// Token-bucket rate limit on query arrivals, in queries per simulated
  /// second (burst capacity = max(1, rate)). 0 = unlimited.
  double rate_limit_per_second = 0.0;
  /// Lifetime budget of charged GPU/detector seconds across the tenant's
  /// sessions; crossing it stops grants, sheds the tenant's live sessions,
  /// and rejects its future arrivals. 0 = unlimited.
  double gpu_seconds_budget = 0.0;
  /// Lifetime budget of detector frames (samples). 0 = unlimited.
  uint64_t frame_budget = 0;
  /// Cap on the tenant's concurrently live sessions (excess arrivals
  /// queue). 0 = unlimited.
  size_t max_concurrent_sessions = 0;
  /// Cap on the tenant's admission queue (excess arrivals are rejected).
  /// 0 = unlimited.
  size_t max_queued = 0;
};

/// \brief Validates a spec's invariants (id shape, weight > 0, finite
/// non-negative rate).
common::Status ValidateTenantSpec(const TenantSpec& spec);

/// \brief Parses one tenant from `exsample_cli --tenants=SPEC` grammar:
/// `id[:key=value[,key=value...]]` with keys `weight`, `slo`
/// (interactive|besteffort), `rate` (arrivals per simulated second),
/// `budget` (GPU seconds), `frames` (frame budget), `maxlive`, `maxqueue`.
/// Unknown keys are an error so typos fail loudly.
common::Result<TenantSpec> ParseTenantSpec(const std::string& text);

/// \brief Running usage/outcome tallies of one tenant, exported as
/// `tenant.<id>.*` by the engine its table is bound to
/// (`SearchEngine::BindTenants`).
struct TenantUsage {
  /// Simulated charged seconds across the tenant's sessions (decode +
  /// detect + overhead), the WFQ currency and the GPU budget's meter.
  double charged_seconds = 0.0;
  /// Detector frames (samples) across the tenant's sessions.
  uint64_t frames = 0;
  /// Steps granted across the tenant's sessions.
  uint64_t steps = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  /// Live sessions right now (admitted, not yet finished/shed).
  size_t live_sessions = 0;
  /// Queued arrivals right now.
  size_t queued = 0;
};

/// Names every field of `TenantUsage` for the stats export.
inline void ExportFields(const TenantUsage& s, stats::StatsWriter& out) {
  const auto& [charged_seconds, frames, steps, admitted, rejected, shed, completed,
               live_sessions, queued] = s;
  out.Gauge("charged_seconds", charged_seconds);
  out.Counter("frames", frames);
  out.Counter("steps", steps);
  out.Counter("admitted", admitted);
  out.Counter("rejected", rejected);
  out.Counter("shed", shed);
  out.Counter("completed", completed);
  out.Gauge("live_sessions", static_cast<double>(live_sessions));
  out.Gauge("queued", static_cast<double>(queued));
}

/// \brief The serving layer's tenant table: specs and usage accounting.
///
/// Tenants are dense-indexed in registration order; the index is the handle
/// every other serve component uses (the scheduler's WFQ state, admission's
/// token buckets, the server's session bindings key off it).
class TenantRegistry {
 public:
  TenantRegistry() = default;
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Registers a tenant; rejects invalid specs and duplicate ids.
  common::Result<size_t> Register(const TenantSpec& spec);

  size_t size() const { return tenants_.size(); }
  const TenantSpec& spec(size_t tenant) const { return tenants_[tenant].spec; }
  const TenantUsage& usage(size_t tenant) const { return tenants_[tenant].usage; }
  std::optional<size_t> Find(const std::string& id) const;

  /// \brief True once the tenant has crossed its GPU-second or frame budget.
  bool OverBudget(size_t tenant) const;

  /// Usage mutators, called by the serving loop (single driver thread).
  void ChargeStep(size_t tenant, double seconds_delta, uint64_t frames_delta);
  void OnAdmitted(size_t tenant);
  void OnRejected(size_t tenant);
  void OnShed(size_t tenant);
  void OnCompleted(size_t tenant);
  void SetQueued(size_t tenant, size_t queued);

  /// \brief Writes every tenant's usage under `tenant.<id>.*` into
  /// `snapshot`.
  void ExportStats(stats::StatsSnapshot* snapshot) const;

 private:
  struct Entry {
    TenantSpec spec;
    TenantUsage usage;
  };

  std::vector<Entry> tenants_;
  std::map<std::string, size_t> by_id_;
};

}  // namespace serve
}  // namespace exsample

#endif  // EXSAMPLE_SERVE_TENANT_H_
