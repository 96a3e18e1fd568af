#include "query/shard_trace.h"

namespace exsample {
namespace query {

bool TracesBitIdentical(const QueryTrace& a, const QueryTrace& b) {
  if (a.strategy_name != b.strategy_name) return false;
  if (a.total_instances != b.total_instances) return false;
  if (a.points.size() != b.points.size()) return false;
  auto same_point = [](const DiscoveryPoint& x, const DiscoveryPoint& y) {
    return x.samples == y.samples && x.seconds == y.seconds &&
           x.reported_results == y.reported_results && x.true_distinct == y.true_distinct;
  };
  for (size_t i = 0; i < a.points.size(); ++i) {
    if (!same_point(a.points[i], b.points[i])) return false;
  }
  return same_point(a.final, b.final);
}

}  // namespace query
}  // namespace exsample
