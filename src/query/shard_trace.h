#ifndef EXSAMPLE_QUERY_SHARD_TRACE_H_
#define EXSAMPLE_QUERY_SHARD_TRACE_H_

#include "query/trace.h"

namespace exsample {
namespace query {

/// \brief True when two traces are exactly equal: same metadata, same points,
/// and bit-identical seconds (no tolerance — the equivalence contracts are
/// exact, not approximate).
bool TracesBitIdentical(const QueryTrace& a, const QueryTrace& b);

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_SHARD_TRACE_H_
