#include "query/scheduler.h"

#include <algorithm>

#include "common/status.h"
#include "stats/gamma_belief.h"

namespace exsample {
namespace query {

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFair:
      return "fair";
    case SchedulerKind::kPriority:
      return "priority";
    case SchedulerKind::kDeadline:
      return "deadline";
  }
  return "unknown";
}

std::optional<SchedulerKind> ParseSchedulerKind(const std::string& name) {
  if (name == "fair") return SchedulerKind::kFair;
  if (name == "priority") return SchedulerKind::kPriority;
  if (name == "deadline") return SchedulerKind::kDeadline;
  return std::nullopt;
}

void FairScheduler::PlanRound(common::Span<const SessionSchedulerInfo> sessions,
                              std::vector<size_t>* order) {
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (!sessions[i].done) order->push_back(i);
  }
}

PriorityScheduler::PriorityScheduler(SessionSchedulerOptions options)
    : options_(options), rng_(options.seed) {
  common::Check(options_.prior_alpha > 0.0 && options_.prior_beta > 0.0,
                "priority scheduler needs a proper Gamma prior");
  common::Check(options_.starvation_rounds >= 1,
                "starvation bound must be at least one round");
}

void PriorityScheduler::PlanRound(common::Span<const SessionSchedulerInfo> sessions,
                                  std::vector<size_t>* order) {
  if (rounds_waiting_.size() < sessions.size()) {
    rounds_waiting_.resize(sessions.size(), 0);
  }
  std::vector<size_t> live;
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (!sessions[i].done) live.push_back(i);
  }
  if (live.empty()) return;

  // Cold start: a session that has never been stepped is granted before any
  // priority is consulted — there is nothing to rank it by yet.
  size_t slots = live.size();
  for (const size_t i : live) {
    if (sessions[i].steps == 0 && slots > 0) {
      order->push_back(i);
      rounds_waiting_[i] = 0;
      --slots;
    }
  }

  // Starvation guard: any session that has waited out the bound is granted
  // next, whatever its sampled rate.
  for (const size_t i : live) {
    if (sessions[i].steps == 0) continue;  // Granted above.
    rounds_waiting_[i] += 1;
    if (rounds_waiting_[i] > options_.starvation_rounds && slots > 0) {
      order->push_back(i);
      rounds_waiting_[i] = 0;
      --slots;
    }
  }

  // Remaining slots go to the highest Thompson-sampled marginal result rate,
  // with result-less sessions outranking sessions that already reported
  // (first results carry the most marginal utility). One draw per live
  // session per slot: cheap at workload scale (dozens of sessions), and the
  // per-slot re-draw is what lets a lucky cold session win an exploratory
  // grant, exactly like ExSample's per-batch chunk draws.
  for (size_t slot = 0; slot < slots; ++slot) {
    size_t best = live[0];
    double best_rate = -1.0;
    bool best_resultless = false;
    for (const size_t i : live) {
      const stats::GammaBelief belief(
          options_.prior_alpha + static_cast<double>(sessions[i].reported_results),
          options_.prior_beta + sessions[i].seconds);
      const double rate = belief.Sample(rng_);
      const bool resultless = sessions[i].reported_results == 0;
      if ((resultless && !best_resultless) ||
          (resultless == best_resultless && rate > best_rate)) {
        best_rate = rate;
        best = i;
        best_resultless = resultless;
      }
    }
    order->push_back(best);
    rounds_waiting_[best] = 0;
  }
}

void PriorityScheduler::RemoveSession(size_t index) {
  // A session that left before its first round never got a counter.
  if (index < rounds_waiting_.size()) {
    rounds_waiting_.erase(rounds_waiting_.begin() +
                          static_cast<ptrdiff_t>(index));
  }
}

void DeadlineScheduler::PlanRound(common::Span<const SessionSchedulerInfo> sessions,
                                  std::vector<size_t>* order) {
  const size_t begin = order->size();
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (!sessions[i].done) order->push_back(i);
  }
  // Stable sort on (has-deadline, slack): deadline holders in ascending slack,
  // then everyone else in index order — deterministic, and a pure reordering
  // of the fair round.
  std::stable_sort(order->begin() + static_cast<ptrdiff_t>(begin), order->end(),
                   [&](size_t a, size_t b) {
                     const bool a_has = sessions[a].deadline_seconds > 0.0;
                     const bool b_has = sessions[b].deadline_seconds > 0.0;
                     if (a_has != b_has) return a_has;
                     if (!a_has) return false;  // Keep index order.
                     const double slack_a =
                         sessions[a].deadline_seconds - sessions[a].seconds;
                     const double slack_b =
                         sessions[b].deadline_seconds - sessions[b].seconds;
                     return slack_a < slack_b;
                   });
}

void PlanRoundForSubset(SessionScheduler* inner,
                        common::Span<const SessionSchedulerInfo> sessions,
                        common::Span<const size_t> subset,
                        std::vector<size_t>* order) {
  std::vector<SessionSchedulerInfo> compact;
  compact.reserve(subset.size());
  for (const size_t global : subset) {
    common::Check(global < sessions.size(),
                  "subset names an unknown session");
    compact.push_back(sessions[global]);
  }
  std::vector<size_t> local;
  inner->PlanRound(common::Span<const SessionSchedulerInfo>(compact.data(),
                                                            compact.size()),
                   &local);
  for (const size_t pos : local) {
    common::Check(pos < subset.size(), "inner scheduler planned out of range");
    order->push_back(subset[pos]);
  }
}

std::unique_ptr<SessionScheduler> MakeSessionScheduler(
    SchedulerKind kind, SessionSchedulerOptions options) {
  switch (kind) {
    case SchedulerKind::kFair:
      return std::make_unique<FairScheduler>();
    case SchedulerKind::kPriority:
      return std::make_unique<PriorityScheduler>(options);
    case SchedulerKind::kDeadline:
      return std::make_unique<DeadlineScheduler>();
  }
  common::FatalError("unknown scheduler kind");
  return nullptr;
}

}  // namespace query
}  // namespace exsample
