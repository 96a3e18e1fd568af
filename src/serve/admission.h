#ifndef EXSAMPLE_SERVE_ADMISSION_H_
#define EXSAMPLE_SERVE_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "serve/tenant.h"

namespace exsample {
namespace serve {

/// \brief Engine-level admission thresholds (the per-tenant limits live in
/// each `TenantSpec`).
struct AdmissionOptions {
  /// Cap on live sessions across all tenants; excess arrivals queue.
  /// 0 = unlimited.
  size_t max_live_sessions = 0;
  /// Detector saturation threshold, in pending coalesced frames (the peak of
  /// `DetectorService::PendingFrames()` over the last round). At or above
  /// it the engine is *saturated*: best-effort arrivals queue, best-effort
  /// tenants are deprioritized by the weighted-fair scheduler, and the
  /// shedder starts cancelling best-effort sessions. 0 = never saturated.
  double saturation_pending_frames = 0.0;
  /// Severe-saturation multiplier: at `saturation_pending_frames *
  /// shed_over_factor` pending frames, best-effort arrivals are rejected at
  /// the door (not just queued). Must be >= 1.
  double shed_over_factor = 2.0;
};

/// \brief What the controller decided about one arrival.
enum class AdmissionDecision {
  kAdmit,  ///< Start a session now.
  kQueue,  ///< Hold; re-considered when conditions change.
  kReject, ///< Refuse permanently, with the status explaining why.
};

struct AdmissionVerdict {
  AdmissionDecision decision = AdmissionDecision::kAdmit;
  /// Non-OK for kReject (the status handed back to the tenant); for kQueue
  /// it carries the queueing reason (informational); OK for kAdmit.
  common::Status status;
};

/// \brief The serving layer's front door: decides, per arrival, whether a
/// tenant's query starts a session now, waits, or is refused.
///
/// Checks run cheapest-first, Suricata-threshold style — per-tenant budget
/// and token-bucket counters before any engine-wide signal:
///
///   1. Over GPU-second/frame budget → reject (`FailedPrecondition`).
///   2. Admission queue overflow (`TenantSpec::max_queued`) → reject
///      (`OutOfRange`).
///   3. Token-bucket rate limit (simulated time) → queue until refill.
///   4. Per-tenant live-session cap → queue.
///   5. Engine-wide live-session cap → queue.
///   6. Detector saturation (pending-frames signal): best-effort arrivals
///      queue, and at `shed_over_factor` times the threshold are rejected
///      (`FailedPrecondition`) — interactive arrivals are never
///      saturation-blocked at the door (the scheduler's weighted-fair pick
///      is what protects the detector from them).
///
/// Deterministic: decisions are a pure function of (spec, usage, simulated
/// now, the caller's signals) plus the token-bucket state, which advances in
/// simulated time only.
class AdmissionController {
 public:
  AdmissionController(const TenantRegistry* tenants, AdmissionOptions options);

  /// \brief Considers one arrival for `tenant` at simulated time `now`.
  /// `queued_here` is the tenant's current admission-queue depth (excluding
  /// this arrival); `live_sessions` is the engine-wide live count;
  /// `pending_frames` is the saturation signal. Consumes a rate token only
  /// when admitting.
  AdmissionVerdict Consider(size_t tenant, double now, size_t queued_here,
                            size_t live_sessions, double pending_frames);

  /// \brief Earliest simulated time at which `tenant`'s token bucket holds a
  /// full token again (== `now` when it already does, or when the tenant is
  /// unlimited). The serving loop's idle fast-forward jumps the clock here.
  double NextTokenTime(size_t tenant, double now) const;

  /// \brief True when `pending_frames` is at or above the saturation
  /// threshold (0 = never).
  bool Saturated(double pending_frames) const {
    return options_.saturation_pending_frames > 0.0 &&
           pending_frames >= options_.saturation_pending_frames;
  }

  /// \brief True at or above the severe (shedding) threshold.
  bool SeverelySaturated(double pending_frames) const {
    return options_.saturation_pending_frames > 0.0 &&
           pending_frames >=
               options_.saturation_pending_frames * options_.shed_over_factor;
  }

  const AdmissionOptions& options() const { return options_; }

 private:
  struct TokenBucket {
    double tokens = 0.0;
    double last_refill = 0.0;
    bool initialized = false;
  };
  /// Refills `tenant`'s bucket up to `now` (no-op for unlimited tenants).
  void Refill(size_t tenant, double now, TokenBucket* bucket) const;

  const TenantRegistry* tenants_;
  AdmissionOptions options_;
  mutable std::vector<TokenBucket> buckets_;
};

}  // namespace serve
}  // namespace exsample

#endif  // EXSAMPLE_SERVE_ADMISSION_H_
