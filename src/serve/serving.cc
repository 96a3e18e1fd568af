#include "serve/serving.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "engine/wave_driver.h"
#include "query/detector_service.h"
#include "query/shard_trace.h"

namespace exsample {
namespace serve {

const char* OutcomeKindName(OutcomeKind kind) {
  switch (kind) {
    case OutcomeKind::kCompleted:
      return "completed";
    case OutcomeKind::kRejected:
      return "rejected";
    case OutcomeKind::kShed:
      return "shed";
  }
  return "unknown";
}

TenantServer::TenantServer(engine::SearchEngine* engine, ServeOptions options)
    : engine_(engine),
      options_(std::move(options)),
      tenants_(engine->config().collect_stats ? engine->counter_registry()
                                              : nullptr),
      admission_(&tenants_, options_.admission) {}

common::Result<size_t> TenantServer::AddTenant(const TenantSpec& spec) {
  return tenants_.Register(spec);
}

common::Result<std::vector<QueryOutcome>> TenantServer::Serve(
    const std::vector<TenantQuery>& queries) {
  return Serve(queries, StepObserver());
}

common::Result<std::vector<QueryOutcome>> TenantServer::Serve(
    const std::vector<TenantQuery>& queries, const StepObserver& observer) {
  if (options_.verify_solo_traces) {
    // The solo re-runs share the engine; reuse would let the served pass warm
    // the solo pass (or vice versa), which is exactly the coupling the
    // bit-identity contract excludes.
    common::Check(!engine_->config().reuse.AnyEnabled(),
                  "verify_solo_traces requires cross-query reuse to be off");
  }

  // Resolve tenant ids up front: an unknown id is a caller bug, not a
  // per-query refusal.
  std::vector<size_t> tenant_of(queries.size(), 0);
  std::vector<QueryOutcome> outcomes(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::optional<size_t> tenant = tenants_.Find(queries[i].tenant);
    if (!tenant.has_value()) {
      return common::Status::NotFound("unknown tenant '" + queries[i].tenant +
                                      "'");
    }
    tenant_of[i] = *tenant;
    outcomes[i].tenant = *tenant;
  }

  // Arrival order: by timestamp, ties by input index (stable), so admission
  // considers queries in the order they reached the door. `held` keeps the
  // arrived queries admission queued, in arrival order; `next_arrival` is the
  // cursor over the rest. Every held query arrived before any the cursor has
  // yet to reach, so held-then-cursor is arrival order.
  std::vector<size_t> waiting(queries.size());
  for (size_t i = 0; i < waiting.size(); ++i) waiting[i] = i;
  std::stable_sort(waiting.begin(), waiting.end(),
                   [&](size_t a, size_t b) {
                     return queries[a].arrival_seconds <
                            queries[b].arrival_seconds;
                   });
  std::vector<size_t> held;
  size_t next_arrival = 0;

  // The two-level scheduler: WFQ across tenants, the engine's configured
  // session scheduler (or the override) within each tenant.
  WeightedTenantSchedulerOptions sched_options;
  sched_options.inner =
      options_.inner_scheduler.value_or(engine_->config().scheduler);
  sched_options.inner_options.seed = engine_->config().scheduler_seed;
  sched_options.inner_options.starvation_rounds =
      std::max<uint64_t>(1, engine_->config().scheduler_starvation_rounds);
  WeightedTenantScheduler scheduler(&tenants_, sched_options);

  // One live session and its charge-delta trackers (the tenant is charged
  // per finished step from the deltas of the session's own trace accounting
  // — no new measurement machinery).
  struct Admitted {
    std::unique_ptr<engine::QuerySession> session;
    size_t query_index = 0;
    size_t tenant = 0;
    double last_seconds = 0.0;
    uint64_t last_samples = 0;
  };
  // The unresolved sessions, in admission order. A session leaves the moment
  // its outcome is recorded, so a round's work and the loop's memory follow
  // the live sessions, not the queries served so far.
  std::vector<Admitted> live;

  // The global simulated clock: charged work accumulated so far, plus the
  // idle fast-forwards (clock_base) taken while nothing was live.
  double clock_base = 0.0;
  double work_seconds = 0.0;
  // Saturation signal: the peak of the service's pending coalesced frames
  // sampled during the last round's grants (`PendingFrames()` is zero at
  // round boundaries — the queues just flushed — so boundary sampling would
  // never see load).
  double peak_pending = 0.0;

  query::DetectorService* service = engine_->detector_service();
  engine::SessionWaveDriver driver(service, [&](size_t sidx) {
    Admitted& a = live[sidx];
    a.session->FinishStep();
    const query::DiscoveryPoint& final = a.session->Trace().final;
    const double seconds_delta = final.seconds - a.last_seconds;
    const uint64_t frames_delta = final.samples - a.last_samples;
    a.last_seconds = final.seconds;
    a.last_samples = final.samples;
    work_seconds += seconds_delta;
    tenants_.ChargeStep(a.tenant, seconds_delta, frames_delta);
    QueryOutcome& outcome = outcomes[a.query_index];
    if (outcome.first_result_seconds < 0.0 && final.reported_results > 0) {
      outcome.first_result_seconds = clock_base + work_seconds;
    }
    if (observer) observer(a.query_index, *a.session, clock_base + work_seconds);
  });

  // What the scheduler sees of a session: coordinator-side tallies only.
  const auto scheduler_info = [&](const Admitted& a) {
    const query::DiscoveryPoint& final = a.session->Trace().final;
    query::SessionSchedulerInfo info;
    info.steps = a.session->scheduler_stats().steps_granted;
    info.samples = final.samples;
    info.reported_results = final.reported_results;
    info.result_limit = queries[a.query_index].spec.limit;
    info.seconds = final.seconds;
    info.deadline_seconds = queries[a.query_index].spec.deadline_seconds;
    info.done = a.session->Done();
    return info;
  };

  // Resolve, then release: record the outcome of the session at `pos`
  // (`Finish` also withdraws its wire registration and retires its counter
  // slab), hand its final tallies to the scheduler, and destroy it. Runs only at round boundaries, where
  // every session is quiescent (no pending steps) — the precondition both
  // Finish and Cancel rely on.
  const auto resolve = [&](size_t pos, OutcomeKind kind, common::Status why) {
    Admitted& a = live[pos];
    QueryOutcome& outcome = outcomes[a.query_index];
    outcome.kind = kind;
    outcome.status = std::move(why);
    outcome.trace = a.session->Finish();
    outcome.finished_seconds = clock_base + work_seconds;
    if (kind == OutcomeKind::kCompleted) {
      tenants_.OnCompleted(a.tenant);
    } else {
      tenants_.OnShed(a.tenant);
    }
    scheduler.ReleaseSession(pos, scheduler_info(a));
    live.erase(live.begin() + static_cast<ptrdiff_t>(pos));
  };
  const auto shed = [&](size_t pos, common::Status why) {
    live[pos].session->Cancel();
    resolve(pos, OutcomeKind::kShed, std::move(why));
  };

  std::vector<query::SessionSchedulerInfo> infos;
  std::vector<size_t> order;
  std::vector<size_t> queued_per_tenant(tenants_.size(), 0);
  size_t stall_rounds = 0;

  while (true) {
    const double now = clock_base + work_seconds;

    // Completion sweep: record outcomes for sessions that reached their stop
    // condition last round.
    for (size_t pos = 0; pos < live.size();) {
      if (live[pos].session->Done()) {
        resolve(pos, OutcomeKind::kCompleted, common::Status::OK());
      } else {
        ++pos;
      }
    }

    // Budget enforcement: a tenant that crossed its GPU-second/frame budget
    // stops receiving grants and its live sessions are shed (their traces end
    // at the last completed step). Future arrivals reject at admission.
    for (size_t t = 0; t < tenants_.size(); ++t) {
      if (!tenants_.OverBudget(t)) continue;
      scheduler.SetTenantRunnable(t, false);
      for (size_t pos = 0; pos < live.size();) {
        if (live[pos].tenant != t) {
          ++pos;
          continue;
        }
        shed(pos, common::Status::FailedPrecondition(
                      "tenant '" + tenants_.spec(t).id +
                      "' budget exhausted: session shed"));
      }
    }

    // Load shedding: under severe saturation, cancel newest-admitted
    // best-effort sessions until the backlog signal would drop back to the
    // saturation threshold (shed, not hang — interactive sessions are never
    // cancelled).
    if (admission_.SeverelySaturated(peak_pending)) {
      const double per_session =
          !live.empty() ? peak_pending / static_cast<double>(live.size()) : 0.0;
      const double excess =
          peak_pending - admission_.options().saturation_pending_frames;
      size_t to_shed =
          per_session > 0.0
              ? static_cast<size_t>(std::ceil(excess / per_session))
              : 1;
      for (size_t r = live.size(); r > 0 && to_shed > 0; --r) {
        if (tenants_.spec(live[r - 1].tenant).slo != SloClass::kBestEffort) {
          continue;
        }
        shed(r - 1, common::Status::FailedPrecondition(
                        "detector saturated: best-effort session shed"));
        --to_shed;
      }
    }
    scheduler.SetSaturated(admission_.Saturated(peak_pending));

    // Admission pass: consider the held queries, then every arrival due by
    // now, in arrival order. Admit → fresh engine session bound to its
    // tenant; queue → hold for a later pass; reject → final outcome with the
    // refusal status. Returns whether the query stays held.
    std::fill(queued_per_tenant.begin(), queued_per_tenant.end(), 0);
    const auto consider = [&](size_t qi) {
      const size_t t = tenant_of[qi];
      const AdmissionVerdict verdict = admission_.Consider(
          t, now, queued_per_tenant[t], live.size(), peak_pending);
      if (verdict.decision == AdmissionDecision::kQueue) {
        ++queued_per_tenant[t];
        return true;
      }
      if (verdict.decision == AdmissionDecision::kReject) {
        outcomes[qi].kind = OutcomeKind::kRejected;
        outcomes[qi].status = verdict.status;
        outcomes[qi].finished_seconds = now;
        tenants_.OnRejected(t);
        return false;
      }
      const engine::QuerySpec& spec = queries[qi].spec;
      auto session =
          engine_->CreateSession(spec.class_id, spec.limit, spec.options);
      if (!session.ok()) {
        // A malformed spec is the query's problem, not the workload's.
        outcomes[qi].kind = OutcomeKind::kRejected;
        outcomes[qi].status = session.status();
        outcomes[qi].finished_seconds = now;
        tenants_.OnRejected(t);
        return false;
      }
      scheduler.BindSession(live.size(), t);
      Admitted a;
      a.session = std::move(session).value();
      a.query_index = qi;
      a.tenant = t;
      live.push_back(std::move(a));
      tenants_.OnAdmitted(t);
      outcomes[qi].admitted_seconds = now;
      return false;
    };
    size_t kept = 0;
    for (size_t k = 0; k < held.size(); ++k) {
      if (consider(held[k])) held[kept++] = held[k];
    }
    held.resize(kept);
    while (next_arrival < waiting.size() &&
           queries[waiting[next_arrival]].arrival_seconds <= now) {
      const size_t qi = waiting[next_arrival++];
      if (consider(qi)) held.push_back(qi);
    }
    for (size_t t = 0; t < tenants_.size(); ++t) {
      tenants_.SetQueued(t, queued_per_tenant[t]);
    }

    // Idle fast-forward / termination: with no live work, jump the clock to
    // the next arrival or rate-limit refill instead of spinning.
    if (live.empty()) {
      if (held.empty() && next_arrival == waiting.size()) break;
      // Held queries wait for a token (`NextTokenTime` also refills the
      // buckets, so it is asked in arrival order); the cursor's query is the
      // earliest of those not yet arrived.
      double target = std::numeric_limits<double>::infinity();
      for (const size_t qi : held) {
        target = std::min(target, admission_.NextTokenTime(tenant_of[qi], now));
      }
      if (next_arrival < waiting.size()) {
        target =
            std::min(target, queries[waiting[next_arrival]].arrival_seconds);
      }
      // Nothing is live, so the backlog signal has fully drained; clearing
      // it lets saturation-held arrivals through on the next pass.
      peak_pending = 0.0;
      if (target <= now) {
        // A held arrival that is neither time- nor saturation-blocked must
        // admit on the retry pass; more than one retry means a stall.
        common::Check(++stall_rounds <= 1,
                      "serving loop stalled: queued work that can never admit");
        continue;
      }
      stall_rounds = 0;
      clock_base += target - now;
      continue;
    }
    stall_rounds = 0;

    // Plan one round: coordinator-side tallies in, a sequence of step grants
    // out — the same contract RunConcurrent's single-level loop has.
    infos.clear();
    for (const Admitted& a : live) infos.push_back(scheduler_info(a));
    order.clear();
    scheduler.PlanRound(common::Span<const query::SessionSchedulerInfo>(
                            infos.data(), infos.size()),
                        &order);
    // Live sessions of unrunnable tenants were shed above, so a live set
    // always yields a plan.
    common::Check(!order.empty(), "tenant scheduler planned nothing for live work");

    // Execute the round in waves through the shared driver, sampling the
    // service's backlog after every grant — the peak is next round's
    // saturation signal.
    double round_peak = 0.0;
    bool failed = false;
    for (const size_t sidx : order) {
      common::Check(sidx < live.size(),
                    "tenant scheduler planned an unknown session");
      common::Check(!infos[sidx].done,
                    "tenant scheduler planned a finished session");
      if (!driver.Grant(sidx, live[sidx].session.get())) {
        failed = true;
        break;
      }
      round_peak =
          std::max(round_peak, static_cast<double>(service->PendingFrames()));
    }
    if (failed || !driver.FlushWave()) break;
    peak_pending = round_peak;
  }

  if (!driver.status().ok()) {
    // Transport death: release every half-begun step and the service's
    // queued tickets, then surface the failure instead of partial outcomes.
    // Abort every live session, mid-step or not: each must withdraw its wire
    // registration before the transport failure is surfaced, or its id would
    // keep resolving to detectors the session is about to destroy (released
    // sessions withdrew theirs at `Finish`).
    for (Admitted& a : live) {
      a.session->AbortStep();
    }
    service->CancelPending();
    return driver.status();
  }

  common::Check(live.empty(), "admitted session left unresolved");

  if (options_.verify_solo_traces) {
    // The determinism contract, enforced the MergeShardTraces way: every
    // completed query re-runs solo on the same engine and must reproduce its
    // served trace bit for bit — admission, tenancy, and scheduling may
    // reorder work but never change what any query computes.
    for (size_t i = 0; i < queries.size(); ++i) {
      if (outcomes[i].kind != OutcomeKind::kCompleted) continue;
      const engine::QuerySpec& spec = queries[i].spec;
      auto solo =
          engine_->CreateSession(spec.class_id, spec.limit, spec.options);
      if (!solo.ok()) return solo.status();
      const query::QueryTrace solo_trace = solo.value()->Finish();
      common::Check(
          query::TracesBitIdentical(outcomes[i].trace, solo_trace),
          "served trace diverged from solo run (determinism contract)");
    }
  }

  return outcomes;
}

}  // namespace serve
}  // namespace exsample
