#ifndef EXSAMPLE_STATS_STAGE_TIMER_H_
#define EXSAMPLE_STATS_STAGE_TIMER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "stats/histogram.h"

namespace exsample {
namespace stats {

/// \brief Pipeline stages with latency histograms.
///
/// The first six are the per-step execution pipeline in order
/// (pick → classify → decode → detect → discriminate → observe); the last
/// two are service-side: one transport round-trip and the full
/// submit→grant latency of a detector-service ticket.
enum class Stage {
  kPick = 0,
  kClassify,
  kDecode,
  kDetect,
  kDiscriminate,
  kObserve,
  kTransport,
  kSubmitToGrant,
};

constexpr size_t kNumStages = 8;

/// Stable lowercase name used in JSON export ("pick", "classify", ...).
const char* StageName(Stage stage);

/// \brief Per-stage latency histograms over log10(seconds).
///
/// Each stage keeps a fixed-bin `Histogram` over log10(seconds) in
/// [-7, 2) — 100ns to 100s at 1/10th-decade resolution — plus exact count
/// and total-seconds tallies. Values outside the range land in the
/// histogram's under/overflow buckets (and a zero-duration sample's
/// log10(0) = -inf lands in the non-finite bucket), so nothing is lost.
///
/// Not internally synchronized: a StageTimer has a single owner (a query
/// session's coordinator thread, or a component that records under its own
/// lock) and is aggregated by `Merge` on the reader's side.
class StageTimer {
 public:
  StageTimer();

  /// Records one sample of `seconds` spent in `stage`.
  void Record(Stage stage, double seconds);

  /// Number of samples recorded for `stage`.
  uint64_t Count(Stage stage) const;
  /// Sum of all recorded durations for `stage`, in seconds.
  double TotalSeconds(Stage stage) const;
  /// The log10-seconds histogram for `stage`.
  const Histogram& StageHistogram(Stage stage) const;

  /// Approximate q-quantile (q in [0, 1]) of the stage's latency in
  /// seconds, estimated from the log10 histogram by linear interpolation
  /// within the containing bin. Returns 0 if the stage has no in-range
  /// samples.
  double ApproxQuantileSeconds(Stage stage, double q) const;

  /// Adds `other`'s tallies and histogram bins into this timer. Used to
  /// aggregate per-session timers into an engine-wide view.
  void Merge(const StageTimer& other);

  /// \brief RAII helper: records the scope's wall-clock duration on exit.
  ///
  /// A null timer makes the scope a no-op, so call sites stay unconditional
  /// when stats collection is disabled.
  class Scoped {
   public:
    Scoped(StageTimer* timer, Stage stage)
        : timer_(timer), stage_(stage) {
      if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
    }
    ~Scoped() {
      if (timer_ == nullptr) return;
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      timer_->Record(stage_,
                     std::chrono::duration<double>(elapsed).count());
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    StageTimer* timer_;
    Stage stage_;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  struct PerStage {
    uint64_t count = 0;
    double total_seconds = 0.0;
  };
  std::array<PerStage, kNumStages> tallies_;
  std::array<Histogram, kNumStages> histograms_;
};

/// Null-safe record helper, mirroring `StageTimer::Scoped`.
inline void TimerRecord(StageTimer* timer, Stage stage, double seconds) {
  if (timer != nullptr) timer->Record(stage, seconds);
}

}  // namespace stats
}  // namespace exsample

#endif  // EXSAMPLE_STATS_STAGE_TIMER_H_
