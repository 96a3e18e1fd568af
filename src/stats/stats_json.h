#ifndef EXSAMPLE_STATS_STATS_JSON_H_
#define EXSAMPLE_STATS_STATS_JSON_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>

#include "stats/stage_timer.h"

namespace exsample {
namespace stats {

/// \brief Point-in-time tallies of an engine, keyed by dotted metric name:
/// monotonic counters, and gauges (levels, sums of seconds, maxima).
///
/// Maps are ordered so JSON export is deterministic.
struct StatsSnapshot {
  uint64_t sync_sequence = 0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
};

/// \brief Writes the fields of a stats struct into a snapshot under one
/// name prefix.
///
/// Every stats struct names its fields once, in an `ExportFields(const S&,
/// StatsWriter&)` beside its definition, through a structured binding of
/// the struct — so a field added to the struct does not compile until it is
/// named there. A write under a name the snapshot already holds combines
/// with it, which is how one snapshot sums the structs of many sessions:
/// counters and gauges add up, `Max` keeps the largest value.
class StatsWriter {
 public:
  StatsWriter(StatsSnapshot* snapshot, const std::string& prefix)
      : snapshot_(snapshot), key_(prefix), prefix_size_(prefix.size()) {}

  /// A monotonic tally, or a flag (which counts the structs that set it).
  template <typename T>
  void Counter(const char* name, T value) {
    static_assert(std::is_integral<T>::value, "a counter is an integer or a flag");
    snapshot_->counters[Key(name)] += static_cast<uint64_t>(value);
  }
  /// A level (entries, live sessions) or a sum of seconds.
  void Gauge(const char* name, double value) {
    snapshot_->gauges[Key(name)] += value;
  }
  /// A high-water mark.
  void Max(const char* name, double value) {
    double& gauge = snapshot_->gauges[Key(name)];
    gauge = std::max(gauge, value);
  }

 private:
  const std::string& Key(const char* name) {
    key_.resize(prefix_size_);
    key_ += name;
    return key_;
  }

  StatsSnapshot* snapshot_;
  std::string key_;  // The prefix, then the field being written.
  size_t prefix_size_;
};

/// \brief Writes every field `ExportFields` names for `s` under `prefix`.
template <typename S>
void Export(const S& s, const std::string& prefix, StatsSnapshot* snapshot) {
  StatsWriter out(snapshot, prefix);
  ExportFields(s, out);
}

/// Schema version stamped into every exported snapshot. Bump when the JSON
/// shape changes incompatibly; consumers key parsing off this field.
constexpr int kStatsJsonVersion = 1;

/// \brief Renders a snapshot (and optional stage timer) as versioned JSON.
///
/// Output is deterministic for a given input: keys come from ordered maps,
/// stages are emitted in enum order, and doubles use a fixed shortest
/// round-trip format — so a golden test can compare byte-for-byte. Shape:
///
/// {
///   "version": 1,
///   "sync_sequence": N,
///   "counters": {"name": N, ...},
///   "gauges": {"name": X, ...},
///   "stages": {
///     "pick": {"count": N, "total_seconds": X, "p50_seconds": X,
///              "p95_seconds": X, "p99_seconds": X},
///     ...
///   }
/// }
///
/// `stages` is an empty object when `stages == nullptr`.
std::string WriteStatsJson(const StatsSnapshot& snapshot,
                           const StageTimer* stages);

/// Formats a double as its shortest representation that round-trips
/// (JSON-safe: no inf/nan — those render as 0). Exposed for tests.
std::string JsonDouble(double value);

/// Escapes a string for inclusion in JSON (quotes, backslash, control
/// characters).
std::string JsonEscape(const std::string& raw);

}  // namespace stats
}  // namespace exsample

#endif  // EXSAMPLE_STATS_STATS_JSON_H_
