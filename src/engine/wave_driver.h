#ifndef EXSAMPLE_ENGINE_WAVE_DRIVER_H_
#define EXSAMPLE_ENGINE_WAVE_DRIVER_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "engine/query_session.h"
#include "query/detector_service.h"

namespace exsample {
namespace engine {

/// \brief Executes a planned sequence of step grants in *waves* over a set
/// of `QuerySession`s sharing one `query::DetectorService`.
///
/// A wave is the unit cross-session coalescing works in: every granted
/// session begins its step (submitting its detect work to the shared
/// service), the service flushes the merged per-shard queues as full device
/// batches, and the wave's sessions finish their steps in submission order.
/// A session granted twice closes the current wave first — a wave holds at
/// most one pending step per session.
///
/// This is the machinery `SearchEngine::RunConcurrent` always ran; it is
/// factored out so the serving layer's tenant loop (`serve::TenantServer`)
/// drives sessions through the *same* shipped semantics — including the
/// sticky-transport-failure handling — instead of reimplementing them.
///
/// Error contract: a permanently failed detect transport cancelled every
/// pending ticket, so the wave's sessions can never finish their steps.
/// `Grant`/`FlushWave` return false the moment that is detected; `status()`
/// then holds the non-OK transport status and the caller must abort the
/// half-begun steps (`AbortPending`) and surface the status instead of
/// truncated traces.
class SessionWaveDriver {
 public:
  /// Called after a wave session's `FinishStep`, with the caller-side index
  /// the step was granted under (the driver never interprets it).
  using FinishFn = std::function<void(size_t index)>;

  /// `on_finish` must call `FinishStep()` on the session granted under
  /// `index` (and may observe it afterwards); the driver sequences the calls
  /// in submission order.
  SessionWaveDriver(query::DetectorService* service, FinishFn on_finish)
      : service_(service), on_finish_(std::move(on_finish)) {}

  /// \brief Grants one step to `session` under `index`. Flushes the open
  /// wave first when the session already has a step pending, polls the
  /// service between grants (latency-aware flushing), and returns false on
  /// transport failure (see `status()`). A session that is already done is
  /// skipped silently.
  bool Grant(size_t index, QuerySession* session) {
    if (!status_.ok()) return false;
    if (session->Done()) return true;  // Finished earlier this round.
    if (session->DetectPending() && !FlushWave()) return false;
    if (session->BeginStep()) wave_.push_back(index);
    // Latency-aware flushing (and its failure handling) between grants: a
    // submit may have filled a wire batch, and queued tickets may have aged
    // past the deadline while other sessions were stepping.
    service_->Poll();
    return CheckService();
  }

  /// \brief Closes the open wave: flushes the service and finishes every
  /// wave session's step in submission order (invoking `on_finish`).
  /// Returns false on transport failure.
  bool FlushWave() {
    if (wave_.empty()) return true;
    service_->Flush();
    if (!CheckService()) return false;
    for (const size_t index : wave_) on_finish_(index);
    wave_.clear();
    return true;
  }

  /// \brief Sticky transport status: OK until the shared service's transport
  /// fails permanently, then the failure the caller must surface.
  const common::Status& status() const { return status_; }

  /// \brief The failure path's cleanup: releases every half-begun step of
  /// `sessions` (decode tasks hold spans into the abandoned batches), then
  /// whatever the service still queues. Every session is aborted — not just
  /// those mid-step — so all of them withdraw their wire registrations and
  /// no abandoned session id can ever resolve to a dangling detector. Call
  /// before surfacing `status()`.
  void AbortPending(const std::vector<std::unique_ptr<QuerySession>>& sessions) {
    for (const auto& session : sessions) {
      if (session != nullptr) session->AbortStep();
    }
    service_->CancelPending();
    wave_.clear();
  }

 private:
  bool CheckService() {
    if (service_->transport_status().ok()) return true;
    status_ = service_->transport_status();
    return false;
  }

  query::DetectorService* service_;
  FinishFn on_finish_;
  std::vector<size_t> wave_;
  common::Status status_;
};

}  // namespace engine
}  // namespace exsample

#endif  // EXSAMPLE_ENGINE_WAVE_DRIVER_H_
