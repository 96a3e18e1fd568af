#ifndef EXSAMPLE_QUERY_SCHEDULER_H_
#define EXSAMPLE_QUERY_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/span.h"
#include "stats/stats_json.h"

namespace exsample {
namespace query {

/// \brief Which session scheduler `SearchEngine::RunConcurrent` uses to order
/// (and weight) `QuerySession::Step` calls across a concurrent workload.
enum class SchedulerKind {
  kFair,      ///< Round-robin: every live session, once per round (baseline).
  kPriority,  ///< Thompson-style marginal-result-rate priority.
  kDeadline,  ///< Deadline/budget-aware: smallest slack first.
};

/// \brief Lowercase name of a scheduler kind ("fair", "priority", "deadline").
const char* SchedulerKindName(SchedulerKind kind);

/// \brief Parses a scheduler name as `SchedulerKindName` prints it.
std::optional<SchedulerKind> ParseSchedulerKind(const std::string& name);

/// \brief What a scheduler may observe about one session when planning a
/// round. All fields are coordinator-side bookkeeping — a scheduler never
/// reaches into a session's strategy or detector state, so scheduling can
/// reorder work but cannot change what any session computes.
struct SessionSchedulerInfo {
  /// Steps granted so far (each step processes one strategy batch).
  uint64_t steps = 0;
  /// Frames the session has pushed through the detector so far.
  uint64_t samples = 0;
  /// Results reported by the discriminator so far.
  uint64_t reported_results = 0;
  /// The session's stop target ("find K distinct objects").
  uint64_t result_limit = 0;
  /// Simulated seconds charged so far (decode + detect + overhead).
  double seconds = 0.0;
  /// Budget in simulated seconds the session would like to finish within;
  /// 0 means none. Only the deadline scheduler reads it.
  double deadline_seconds = 0.0;
  /// True once no further step can make progress. Done sessions must not be
  /// scheduled.
  bool done = false;
};

/// \brief Per-session scheduling/coalescing tallies, mirroring the
/// `PrefetchStats` observability pattern: the driver and the shared
/// `DetectorService` fill them in; `QuerySession::scheduler_stats()` exposes
/// them read-only.
struct SessionSchedulerStats {
  /// Steps granted that made progress (strategy batches processed).
  uint64_t steps_granted = 0;
  /// Frames submitted through the shared detector service.
  uint64_t frames_submitted = 0;
  /// Of those, frames that ran in a device batch shared with another session.
  uint64_t frames_coalesced = 0;
  /// Device batches that contained this session's frames.
  uint64_t device_batches = 0;
  /// Of those, batches shared with at least one other session.
  uint64_t batches_shared = 0;
};

/// Names every field of `SessionSchedulerStats` for the stats export.
inline void ExportFields(const SessionSchedulerStats& s, stats::StatsWriter& out) {
  const auto& [steps_granted, frames_submitted, frames_coalesced, device_batches,
               batches_shared] = s;
  out.Counter("steps_granted", steps_granted);
  out.Counter("frames_submitted", frames_submitted);
  out.Counter("frames_coalesced", frames_coalesced);
  out.Counter("device_batches", device_batches);
  out.Counter("batches_shared", batches_shared);
}

/// \brief Tuning knobs shared by the scheduler implementations.
struct SessionSchedulerOptions {
  /// Seed of the priority scheduler's Thompson draws. Scheduling is a pure
  /// function of (infos sequence, seed): fixed seed, fixed order.
  uint64_t seed = 17;
  /// Gamma prior over a session's marginal result rate (results per simulated
  /// second), the session-level analogue of ExSample's per-chunk belief
  /// (alpha0 + results, beta0 + seconds).
  double prior_alpha = 1.0;
  double prior_beta = 1.0;
  /// Starvation bound of the non-fair schedulers: every live session is
  /// granted at least one step per this many rounds, however low its
  /// priority, so no query can be deferred forever.
  uint64_t starvation_rounds = 4;
};

/// \brief Orders the `QuerySession::Step` calls of one round of a concurrent
/// workload.
///
/// The contract is deliberately narrow: a scheduler only *reorders and
/// weights* step grants. `PlanRound` appends session indices to `order`; the
/// driver steps them in that sequence (a session may appear several times —
/// each appearance is one extra step this round). Session state is fully
/// isolated, so any plan yields the same per-session traces as a solo run;
/// scheduling decides only which query's frames reach the scarce detector
/// first. Implementations must never emit a session whose `done` flag is set
/// and must emit at least one live session when one exists.
///
/// Schedulers are stateful (starvation counters, RNG streams) and are driven
/// by exactly one workload at a time. Per-session state is keyed by index, so
/// a driver whose session list shrinks announces every departure through
/// `RemoveSession`.
class SessionScheduler {
 public:
  virtual ~SessionScheduler() = default;

  /// \brief Plans one round: appends the indices of the sessions to step, in
  /// order, to `order` (not cleared first; the driver clears it).
  virtual void PlanRound(common::Span<const SessionSchedulerInfo> sessions,
                         std::vector<size_t>* order) = 0;

  /// \brief The session at `index` left the workload: from the next round on,
  /// every later session is planned one index lower. Stateful schedulers drop
  /// the departing session's state here so the survivors' state stays
  /// aligned with them. Schedulers without per-session state ignore it.
  virtual void RemoveSession(size_t /*index*/) {}

  /// \brief Scheduler name for reports.
  virtual const char* name() const = 0;
};

/// \brief The baseline: every live session exactly once per round, in index
/// order — precisely the hard-coded loop `RunConcurrent` used to run, so the
/// fair scheduler is the bit-compatible default.
class FairScheduler : public SessionScheduler {
 public:
  void PlanRound(common::Span<const SessionSchedulerInfo> sessions,
                 std::vector<size_t>* order) override;
  const char* name() const override { return "fair"; }
};

/// \brief Marginal-result-rate priority, Thompson-style.
///
/// Each session carries a Gamma belief over its marginal result rate
/// (results per simulated second), updated from the same coordinator-side
/// tallies ExSample keeps per chunk: alpha = prior_alpha + reported_results,
/// beta = prior_beta + seconds. A round grants as many steps as there are
/// live sessions; grants are allocated in three layers:
///
///  1. Never-stepped sessions are explored first (one grant each, in index
///     order) — priorities mean nothing before a single observation, exactly
///     like ExSample's per-chunk initialization.
///  2. Sessions that have not yet reported *any* result outrank sessions
///     that have: the marginal utility of a session's next result is highest
///     when the user is still staring at an empty screen (this is what
///     optimizes aggregate time-to-first-result on skewed workloads).
///  3. Within each of those two tiers, every grant goes to the highest
///     Thompson-sampled rate — high-yield queries monopolize the detector
///     while posterior uncertainty keeps cold sessions explored.
///
/// The starvation bound guarantees every session still advances regardless
/// of its tier or sampled rate.
class PriorityScheduler : public SessionScheduler {
 public:
  explicit PriorityScheduler(SessionSchedulerOptions options);

  void PlanRound(common::Span<const SessionSchedulerInfo> sessions,
                 std::vector<size_t>* order) override;
  void RemoveSession(size_t index) override;
  const char* name() const override { return "priority"; }

 private:
  SessionSchedulerOptions options_;
  common::Rng rng_;
  /// Rounds since each session was last granted a step (starvation guard).
  std::vector<uint64_t> rounds_waiting_;
};

/// \brief Deadline/budget-aware ordering: live sessions with a deadline are
/// stepped in ascending slack (deadline minus seconds spent — the closest to
/// blowing its budget goes first); sessions without a deadline follow in
/// index order. Every live session is stepped once per round, so this is a
/// pure reordering of the fair baseline.
class DeadlineScheduler : public SessionScheduler {
 public:
  void PlanRound(common::Span<const SessionSchedulerInfo> sessions,
                 std::vector<size_t>* order) override;
  const char* name() const override { return "deadline"; }
};

/// \brief Builds the scheduler for `kind`.
std::unique_ptr<SessionScheduler> MakeSessionScheduler(
    SchedulerKind kind, SessionSchedulerOptions options = {});

/// \brief Runs `inner->PlanRound` over the sub-workload `subset` (global
/// session indices into `sessions`) and appends the planned grants to
/// `order` as *global* indices.
///
/// This is the delegation seam of two-level scheduling (the serving layer's
/// weighted-fair tenant scheduler plans across tenants, then hands each
/// tenant's sessions to a per-tenant inner scheduler): the inner scheduler
/// sees a compacted info array and plans positions into it, which are
/// translated back here. Stateful inner schedulers key their per-session
/// state by compact position, so a caller must keep `subset` in increasing
/// global index and change it only two ways between rounds: a new session
/// joins at the end, and a session leaves from any position after the caller
/// has told `inner->RemoveSession` that position — exactly what a tenant's
/// live-session list does.
void PlanRoundForSubset(SessionScheduler* inner,
                        common::Span<const SessionSchedulerInfo> sessions,
                        common::Span<const size_t> subset,
                        std::vector<size_t>* order);

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_SCHEDULER_H_
