// In-memory spans around the benchmark's calls into the program.

#include <cstdio>
#include <cstring>

#include "bench.h"

namespace perfbench {

uint32_t SpanRecorder::Begin(const char* name, int64_t query, uint32_t parent) {
  if (!enabled_) return kNoParent;
  const double now = Now();
  spans_.push_back({name, query, parent, now, -1.0});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanRecorder::End(uint32_t id) {
  if (!enabled_ || id == kNoParent) return;
  spans_[id].end = Now();
}

void SpanRecorder::Mark(const char* name, int64_t query, uint32_t parent) {
  if (!enabled_) return;
  const double now = Now();
  spans_.push_back({name, query, parent, now, now});
}

std::vector<double> SpanRecorder::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end >= span.start && std::strcmp(span.name, name) == 0) {
      out.push_back(span.end - span.start);
    }
  }
  return out;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tname\tquery\tstart_s\tend_s\n");
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%s\t%lld\t%.9f\t%.9f\n", i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 s.name, static_cast<long long>(s.query), s.start - origin,
                 s.end - origin);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
