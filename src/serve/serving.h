#ifndef EXSAMPLE_SERVE_SERVING_H_
#define EXSAMPLE_SERVE_SERVING_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/search_engine.h"
#include "query/trace.h"
#include "serve/admission.h"
#include "serve/tenant.h"
#include "serve/tenant_scheduler.h"

namespace exsample {
namespace serve {

/// \brief One query arriving at the serving layer: which tenant sent it,
/// when (on the workload's global simulated clock — the sum of charged
/// detector/decode seconds, the same cost clock the benches measure in), and
/// what it asks the engine.
struct TenantQuery {
  std::string tenant;
  double arrival_seconds = 0.0;
  engine::QuerySpec spec;
};

/// \brief How one query's service ended.
enum class OutcomeKind {
  kCompleted,  ///< Ran to its stop condition; `trace` is the full trace.
  kRejected,   ///< Refused at admission; `status` says why. No trace.
  kShed,       ///< Admitted, then cancelled by the load shedder or budget
               ///< enforcement; `trace` ends at the last completed step.
};

/// \brief Lowercase name of an outcome kind.
const char* OutcomeKindName(OutcomeKind kind);

/// \brief Per-query service record, in the order the queries were given.
struct QueryOutcome {
  OutcomeKind kind = OutcomeKind::kRejected;
  size_t tenant = 0;
  /// OK for kCompleted; the admission/shedding reason otherwise.
  common::Status status;
  /// The session's discovery trace (kCompleted / kShed).
  query::QueryTrace trace;
  /// Global-clock marks (simulated seconds); -1 where not reached.
  double admitted_seconds = -1.0;
  double first_result_seconds = -1.0;
  double finished_seconds = -1.0;
};

/// \brief Serving-layer configuration. Observability comes from the engine's:
/// `Serve` ends every scheduler round with `SearchEngine::RoundCompleted`,
/// so `EngineConfig::stats_dump_path`/`stats_dump_every_rounds` dump the
/// stats periodically here as they do under `RunConcurrent`.
struct ServeOptions {
  AdmissionOptions admission;
  /// Which scheduler orders sessions *within* a tenant. Unset mirrors the
  /// engine's configured `EngineConfig::scheduler` (seed and starvation
  /// bound always mirror the engine's).
  std::optional<query::SchedulerKind> inner_scheduler;
  /// Determinism contract, enforced fatally: after serving, every completed
  /// query is re-run solo on the same engine and its trace `Check`ed
  /// bit-identical (`query::TracesBitIdentical`) to the served one. Requires
  /// cross-query reuse to be off (reuse is the one engine feature that
  /// deliberately couples queries). Test/bench use — it doubles the work.
  bool verify_solo_traces = false;
};

/// \brief The engine's front door for many tenants: admission control,
/// per-tenant quotas, two-level weighted-fair scheduling, and overload
/// shedding above `SearchEngine` sessions.
///
///   arrivals → AdmissionController ─(admit)→ WeightedTenantScheduler
///            └(queue/reject)              │ (per-tenant inner scheduler)
///                                         ▼
///                          SessionWaveDriver → shared DetectorService
///
/// `Serve` runs a workload of timestamped `TenantQuery`s to completion on
/// the engine's simulated clock, one scheduler round at a time:
///
///   1. Admission: arrived queries are admitted (a fresh engine session),
///      queued, or rejected per tenant budgets/rate limits and engine
///      saturation.
///   2. Enforcement: tenants crossing their GPU-second/frame budgets stop
///      receiving grants and their live sessions are shed; under severe
///      detector saturation the newest best-effort sessions are cancelled
///      (shed, not hung) until the backlog signal clears.
///   3. Scheduling: the weighted-fair tenant scheduler plans the round
///      (WFQ across tenants by charged detector-seconds over weight, the
///      engine's pluggable `SessionScheduler` within each tenant), executed
///      through the same `SessionWaveDriver` waves `RunConcurrent` uses —
///      coalesced device batches, sticky transport-failure surfacing.
///   4. Idle fast-forward: with no live work, the clock jumps to the next
///      arrival (or rate-limit refill) instead of spinning.
///
/// Everything runs on the caller's thread over simulated time, so a fixed
/// (tenant spec, workload, seed) serves deterministically — and admitted
/// sessions' traces are bit-identical to solo runs of the same specs
/// (`verify_solo_traces` makes the loop prove it fatally).
class TenantServer {
 public:
  /// `engine` must outlive the server. The server binds its tenant table to
  /// the engine (`SearchEngine::BindTenants`), so every tenant's usage
  /// surfaces through `StatsJson()` as `tenant.<id>.*`, and after the server
  /// is gone as the last tallies it left.
  TenantServer(engine::SearchEngine* engine, ServeOptions options);
  ~TenantServer();

  TenantServer(const TenantServer&) = delete;
  TenantServer& operator=(const TenantServer&) = delete;

  /// \brief Registers a tenant (before serving).
  common::Result<size_t> AddTenant(const TenantSpec& spec);

  TenantRegistry& tenants() { return tenants_; }
  const TenantRegistry& tenants() const { return tenants_; }

  /// Called after every completed step of an admitted session, with the
  /// index of its query in the `Serve` input, the session (valid for the
  /// call only), and the global clock.
  using StepObserver =
      std::function<void(size_t query_index, const engine::QuerySession& session,
                         double now_seconds)>;

  /// \brief Serves the workload to completion; returns one outcome per
  /// query, in input order. Non-OK only for infrastructure failure (a dead
  /// detect transport) or an unknown tenant id — per-query refusals are
  /// outcomes, not errors.
  common::Result<std::vector<QueryOutcome>> Serve(
      const std::vector<TenantQuery>& queries);
  common::Result<std::vector<QueryOutcome>> Serve(
      const std::vector<TenantQuery>& queries, const StepObserver& observer);

 private:
  engine::SearchEngine* engine_;
  ServeOptions options_;
  TenantRegistry tenants_;
  AdmissionController admission_;
};

}  // namespace serve
}  // namespace exsample

#endif  // EXSAMPLE_SERVE_SERVING_H_
