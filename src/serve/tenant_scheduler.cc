#include "serve/tenant_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"

namespace exsample {
namespace serve {

namespace {
constexpr size_t kNoTenant = std::numeric_limits<size_t>::max();
}  // namespace

WeightedTenantScheduler::WeightedTenantScheduler(
    const TenantRegistry* tenants, WeightedTenantSchedulerOptions options)
    : tenants_(tenants), options_(options) {}

WeightedTenantScheduler::TenantState& WeightedTenantScheduler::State(
    size_t tenant) {
  common::Check(tenant < tenants_->size(), "unknown tenant");
  if (states_.size() <= tenant) states_.resize(tenant + 1);
  TenantState& state = states_[tenant];
  if (state.inner == nullptr) {
    // A fixed per-tenant seed stream: tenant t's inner draws are independent
    // of other tenants' but fully determined by (base seed, t).
    query::SessionSchedulerOptions inner_options = options_.inner_options;
    inner_options.seed =
        options_.inner_options.seed ^ (0x9e3779b97f4a7c15ULL * (tenant + 1));
    state.inner = query::MakeSessionScheduler(options_.inner, inner_options);
  }
  return state;
}

void WeightedTenantScheduler::BindSession(size_t session_index, size_t tenant) {
  State(tenant);  // Materialize the tenant's state (and inner scheduler).
  common::Check(session_index == session_tenant_.size(),
                "sessions bind once, at the end of the live span");
  session_tenant_.push_back(tenant);
  states_[tenant].sessions.push_back(session_index);
}

void WeightedTenantScheduler::ReleaseSession(
    size_t session_index, const query::SessionSchedulerInfo& final_info) {
  common::Check(session_index < session_tenant_.size(),
                "released session was never bound");
  TenantState& state = states_[session_tenant_[session_index]];
  state.retired_seconds += final_info.seconds;
  state.retired_steps += final_info.steps;
  const auto it =
      std::find(state.sessions.begin(), state.sessions.end(), session_index);
  state.inner->RemoveSession(static_cast<size_t>(it - state.sessions.begin()));
  state.sessions.erase(it);
  session_tenant_.erase(session_tenant_.begin() +
                        static_cast<ptrdiff_t>(session_index));
  for (TenantState& other : states_) {
    for (size_t& index : other.sessions) {
      if (index > session_index) --index;
    }
  }
}

void WeightedTenantScheduler::SetTenantRunnable(size_t tenant, bool runnable) {
  State(tenant).runnable = runnable;
}

void WeightedTenantScheduler::PlanRound(
    common::Span<const query::SessionSchedulerInfo> sessions,
    std::vector<size_t>* order) {
  const size_t num_tenants = states_.size();
  std::vector<size_t> live(num_tenants, 0);
  std::vector<double> charged(num_tenants, 0.0);
  std::vector<uint64_t> steps(num_tenants, 0);
  for (size_t t = 0; t < num_tenants; ++t) {
    charged[t] = states_[t].retired_seconds;
    steps[t] = states_[t].retired_steps;
  }
  for (size_t i = 0; i < sessions.size(); ++i) {
    common::Check(i < session_tenant_.size(),
                  "session planned without a tenant binding");
    const size_t t = session_tenant_[i];
    charged[t] += sessions[i].seconds;
    steps[t] += sessions[i].steps;
    if (!sessions[i].done) live[t] += 1;
  }

  // Eligibility and (re)activation. A tenant activating this round starts at
  // the floor of the already-active tenants' virtual times — no replaying
  // unused history.
  std::vector<bool> eligible(num_tenants, false);
  const auto base_vt = [&](size_t t) {
    return states_[t].vt_floor +
           (charged[t] - states_[t].charged_at_activation) /
               tenants_->spec(t).weight;
  };
  double continuing_floor = std::numeric_limits<double>::infinity();
  for (size_t t = 0; t < num_tenants; ++t) {
    eligible[t] = states_[t].runnable && live[t] > 0;
    if (eligible[t] && states_[t].active) {
      continuing_floor = std::min(continuing_floor, base_vt(t));
    }
  }
  for (size_t t = 0; t < num_tenants; ++t) {
    if (eligible[t] && !states_[t].active) {
      states_[t].charged_at_activation = charged[t];
      states_[t].vt_floor =
          std::isfinite(continuing_floor) ? continuing_floor : 0.0;
    }
    states_[t].active = eligible[t];
  }

  // Step-cost projection: a tenant's observed mean charged seconds per step,
  // falling back to the workload-wide mean, then to 1.0 (any positive
  // constant spreads a cold round's grants evenly).
  double total_charged = 0.0;
  uint64_t total_steps = 0;
  for (size_t t = 0; t < num_tenants; ++t) {
    total_charged += charged[t];
    total_steps += steps[t];
  }
  const double global_mean =
      (total_steps > 0 && total_charged > 0.0)
          ? total_charged / static_cast<double>(total_steps)
          : 1.0;
  std::vector<double> step_cost(num_tenants, global_mean);
  for (size_t t = 0; t < num_tenants; ++t) {
    if (steps[t] > 0 && charged[t] > 0.0) {
      step_cost[t] = charged[t] / static_cast<double>(steps[t]);
    }
  }

  // Inner plans: each eligible tenant's scheduler orders its own sessions
  // (the delegation seam — fair/priority/deadline semantics apply unchanged
  // within a tenant).
  std::vector<std::vector<size_t>> inner_order(num_tenants);
  std::vector<size_t> inner_pos(num_tenants, 0);
  size_t total_grants = 0;
  for (size_t t = 0; t < num_tenants; ++t) {
    if (!eligible[t]) continue;
    total_grants += live[t];
    query::PlanRoundForSubset(
        states_[t].inner.get(), sessions,
        common::Span<const size_t>(states_[t].sessions.data(),
                                   states_[t].sessions.size()),
        &inner_order[t]);
    common::Check(!inner_order[t].empty(),
                  "inner scheduler planned nothing for a live tenant");
  }

  // Saturation tiering: while the detector is saturated, grants go to
  // interactive tenants as long as any has live work.
  bool interactive_live = false;
  for (size_t t = 0; t < num_tenants; ++t) {
    if (eligible[t] && tenants_->spec(t).slo == SloClass::kInteractive) {
      interactive_live = true;
    }
  }

  // The WFQ pick: one grant at a time to the smallest virtual time (ties to
  // the lower tenant index), projecting the grantee's vt forward by its mean
  // step cost over weight.
  std::vector<double> vt(num_tenants, 0.0);
  for (size_t t = 0; t < num_tenants; ++t) {
    if (eligible[t]) vt[t] = base_vt(t);
  }
  for (size_t g = 0; g < total_grants; ++g) {
    size_t best = kNoTenant;
    for (size_t t = 0; t < num_tenants; ++t) {
      if (!eligible[t]) continue;
      if (saturated_ && interactive_live &&
          tenants_->spec(t).slo == SloClass::kBestEffort) {
        continue;
      }
      if (best == kNoTenant || vt[t] < vt[best]) best = t;
    }
    if (best == kNoTenant) break;  // No runnable tenant with live work.
    const std::vector<size_t>& plan = inner_order[best];
    order->push_back(plan[inner_pos[best] % plan.size()]);
    inner_pos[best] += 1;
    vt[best] += step_cost[best] / tenants_->spec(best).weight;
  }
}

}  // namespace serve
}  // namespace exsample
