#ifndef EXSAMPLE_SERVE_TENANT_SCHEDULER_H_
#define EXSAMPLE_SERVE_TENANT_SCHEDULER_H_

#include <memory>
#include <vector>

#include "query/scheduler.h"
#include "serve/tenant.h"

namespace exsample {
namespace serve {

/// \brief Configuration of the two-level tenant scheduler.
struct WeightedTenantSchedulerOptions {
  /// Which `query::SessionScheduler` orders sessions *within* each tenant.
  /// Every tenant gets its own instance (inner schedulers are stateful), with
  /// a per-tenant seed derived from `inner_options.seed` so fixed spec + seed
  /// still means a fixed grant order.
  query::SchedulerKind inner = query::SchedulerKind::kFair;
  query::SessionSchedulerOptions inner_options;
};

/// \brief Weighted-fair queuing across tenants, delegating within a tenant
/// to the existing pluggable `query::SessionScheduler` — the second
/// scheduling level the serving layer adds above `RunConcurrent`'s.
///
/// Each round grants as many steps as there are live sessions of runnable
/// tenants (matching the single-level round size). Grants are assigned one
/// at a time to the runnable tenant with the smallest *virtual time*
///
///     vt(t) = charged seconds since activation / weight(t)  (+ floor)
///
/// so detector-second shares converge to the configured weights regardless
/// of how expensive each tenant's steps are. Within the round, every
/// assigned grant advances the tenant's vt by its observed mean step cost
/// over weight — the projection that spreads a round's grants instead of
/// handing them all to whoever is behind. A tenant (re)activating after an
/// idle spell starts at the floor of the currently active tenants' virtual
/// times: fresh arrivals compete fairly from now on instead of replaying
/// history they never used.
///
/// Under detector saturation (`SetSaturated`), best-effort tenants
/// (`SloClass::kBestEffort`) are deprioritized first: they receive grants
/// only when no interactive tenant has live sessions. Budget-exhausted
/// tenants are removed from the pick via `SetTenantRunnable`.
///
/// The planned span holds the *live* sessions in admission order: a session
/// joins at the end (`BindSession`) and leaves from anywhere once its outcome
/// is recorded (`ReleaseSession`), so a round costs O(live sessions), not
/// O(sessions ever served). A departing session's charged seconds and steps
/// move into its tenant's retired totals, so the WFQ totals stay the
/// per-session sums over everything the tenant ever ran (added in departure
/// order: the seconds can differ in the last bits from an admission-order
/// sum, which may flip a near-tied pick).
///
/// Like every `SessionScheduler`, this only reorders and weights step
/// grants: admitted sessions' traces are bit-identical to solo runs
/// whatever the tenant mix (the serving layer enforces it fatally).
/// Scheduling is a pure function of (bindings, releases, infos sequence,
/// flags, seed) — fixed inputs, fixed order.
class WeightedTenantScheduler : public query::SessionScheduler {
 public:
  /// `tenants` supplies weights and SLO classes; it must outlive the
  /// scheduler. Tenants may keep registering after construction.
  WeightedTenantScheduler(const TenantRegistry* tenants,
                          WeightedTenantSchedulerOptions options);

  /// \brief Declares that the session planned under `session_index` belongs
  /// to `tenant`. Must be called once, before any round that includes the
  /// index. A new session joins at the end of the span: `session_index` is
  /// the number of sessions bound and not yet released.
  void BindSession(size_t session_index, size_t tenant);

  /// \brief Removes the session planned under `session_index` once its
  /// outcome is recorded, mirroring the caller's erase from its live list:
  /// every later session moves down one index from the next round on.
  /// `final_info` is the session's last tally; its seconds and steps join
  /// the tenant's retired totals, and the tenant's inner scheduler drops the
  /// session's state (`query::SessionScheduler::RemoveSession`).
  void ReleaseSession(size_t session_index,
                      const query::SessionSchedulerInfo& final_info);

  /// \brief Removes a tenant from the pick (budget exhausted). Its sessions
  /// are not planned while unrunnable.
  void SetTenantRunnable(size_t tenant, bool runnable);

  /// \brief Saturation flag from the serving loop's pending-frames signal:
  /// while set, best-effort tenants only receive grants when no interactive
  /// tenant has live work.
  void SetSaturated(bool saturated) { saturated_ = saturated; }

  void PlanRound(common::Span<const query::SessionSchedulerInfo> sessions,
                 std::vector<size_t>* order) override;
  const char* name() const override { return "tenant-wfq"; }

 private:
  struct TenantState {
    /// Span indices of the tenant's live sessions, ascending; the inner
    /// scheduler plans positions into this list.
    std::vector<size_t> sessions;
    /// Charged seconds and granted steps of the tenant's released sessions.
    double retired_seconds = 0.0;
    uint64_t retired_steps = 0;
    std::unique_ptr<query::SessionScheduler> inner;
    bool runnable = true;
    bool active = false;           ///< Had live sessions last round.
    /// Charged seconds at (re)activation and the virtual-time floor granted
    /// then (see class comment).
    double charged_at_activation = 0.0;
    double vt_floor = 0.0;
  };

  /// Lazily creates the per-tenant state (inner scheduler seeded from the
  /// tenant index) when a binding first names the tenant.
  TenantState& State(size_t tenant);

  const TenantRegistry* tenants_;
  WeightedTenantSchedulerOptions options_;
  std::vector<TenantState> states_;
  std::vector<size_t> session_tenant_;  ///< Span index -> tenant.
  bool saturated_ = false;
};

}  // namespace serve
}  // namespace exsample

#endif  // EXSAMPLE_SERVE_TENANT_SCHEDULER_H_
