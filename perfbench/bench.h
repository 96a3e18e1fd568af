#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// The repository benchmark: three workloads driven through the public API,
// end-to-end metrics from untraced runs, per-layer metrics from traced runs.
// perfbench/DESIGN.md records why each workload exists and what each metric
// should move; BENCHMARK.json at the repository root is the manifest.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "datasets/presets.h"
#include "engine/search_engine.h"
#include "serve/serving.h"

namespace perfbench {

namespace common = exsample::common;
namespace datasets = exsample::datasets;
namespace engine = exsample::engine;
namespace query = exsample::query;
namespace reuse = exsample::reuse;
namespace serve = exsample::serve;
namespace stats = exsample::stats;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Wall seconds of timed passes a run aims for; whole passes of the fixed
  /// stream repeat until they have used this much.
  double seconds = 10.0;
  bool trace = false;
  /// Work directory inside the checkout (port files, span dumps).
  std::string workdir;
  /// The shard server binary (default: next to this executable).
  std::string shardd;
};

/// Monotonic seconds.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Statistics and the report
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// Item i's median value over the passes of a run (`by_item[i]` holds one
/// host-scaled value per pass). The timed end-to-end metrics take each
/// query's median pass, so one pass hit by a stall of the host does not
/// move them.
std::vector<double> MedianAcrossPasses(const std::vector<std::vector<double>>& by_item);

/// The percentile rule: the highest of p50, p90, p99, p99.9 that has at
/// least ten samples beyond it, as a fraction (0.5, 0.9, ...), or nullopt
/// when even the median lacks them (fewer than 20 samples).
std::optional<double> HighestSupportedQuantile(size_t samples);

/// True when quantile `q` of `samples` values has at least ten beyond it.
bool QuantileSupported(double q, size_t samples);

/// One metric of the catalog: every metric the benchmark can print, with
/// its unit and, for a ratio or a per-something rate, the base it divides
/// by.
struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
  /// Denominator of a ratio or rate, spelled out; null for plain values.
  const char* base;
};
const std::vector<MetricDef>& MetricCatalog();
const MetricDef* FindMetric(const std::string& name);

/// Collects metric values, prints each with unit, sample count and base, and
/// renders the final result line.
class Report {
 public:
  /// `samples` is the number of observations the value summarizes.
  void Add(const std::string& name, double value, size_t samples,
           const std::string& note = "");
  /// Adds `numerator / denominator` (0 when the denominator is 0) and prints
  /// both terms beside the catalog's base.
  void AddRatio(const std::string& name, double numerator, double denominator,
                const std::string& note = "");
  /// Adds the q-quantile of `values` under `name`; records a failure when
  /// the percentile rule does not support q for this many samples.
  void AddQuantile(const std::string& name, const std::vector<double>& values,
                   double q, double scale = 1.0);
  void Note(const std::string& line);
  void Fail(const std::string& why);
  const std::vector<std::string>& failures() const { return failures_; }

  /// The human-readable lines (one per metric).
  std::string HumanLines() const;
  /// The final JSON line with exactly `correct`, `attempted`, `failed` and
  /// `metrics`; `end_to_end` selects which half of the catalog it holds.
  /// Records a failure for any catalog metric of that half not added.
  std::string ResultLine(bool end_to_end, uint64_t attempted, uint64_t failed);

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string text;
  };
  const Entry* Find(const std::string& name) const;
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

/// What the traced run keeps of one answered query: the session's own
/// exports (stage timer totals, reuse stats) read at its last step.
struct QueryRecord {
  engine::Method method = engine::Method::kExSample;
  uint64_t frames = 0;
  uint64_t results = 0;
  double stage_seconds[stats::kNumStages] = {};
  reuse::ReuseSessionStats reuse;
};

/// Reads a session's stage totals and reuse stats into `record`.
void Capture(const engine::QuerySession& session, QueryRecord* record);

/// The per-frame stage metrics of the core, samplers, detect, track, video
/// and reuse layers, from the records of completed queries.
void AddStageMetrics(const std::vector<QueryRecord>& records, Report* report);

// ---------------------------------------------------------------------------
// Process observation (getrusage and /proc)
// ---------------------------------------------------------------------------

struct Usage {
  double cpu_seconds = 0.0;  ///< user + sys
  long voluntary_cs = 0;
  long involuntary_cs = 0;
};
Usage SelfUsage();
/// CPU seconds of this process (all threads), nanosecond-resolution.
double ProcessCpuNow();

/// Host-speed scaling of the timed metrics. On the shared host this
/// benchmark was sized on, the CPU it runs on slows by up to 1.4x for
/// seconds to minutes at a time, CPU time included, so a whole run can land
/// in a slow phase. Every pass therefore also times a fixed math loop (the
/// probe) while it runs, on the thread that drives it: between analyst
/// queries, inside the serve workloads' step observer. A pass's wall and CPU
/// times are multiplied by (kProbeNominalSeconds / the pass's median probe)
/// raised to kProbeElasticity: within a run, pass times move with the
/// probe's to about that power (0.54 serve-loopback, 0.48 serve-socket, 0.63
/// analyst, over 184 passes). The probe is benchmark code, so a change to
/// the program moves the scaled times exactly as it moves the raw ones; the
/// raw rate is printed beside.
inline constexpr double kProbeNominalSeconds = 0.125e-3;
inline constexpr double kProbeElasticity = 0.6;
double ProbeSeconds();
/// (kProbeNominalSeconds / median(probes)) ^ kProbeElasticity.
double ProbeScale(const std::vector<double>& probes);

/// user + sys seconds of another (not yet reaped) process, from /proc.
double ProcessCpuSeconds(pid_t pid);
double PeakRssMb();
double CurrentRssMb();
int ThreadCount();

// ---------------------------------------------------------------------------
// Spans: in-memory, tagged with the query index, written out at the end
// ---------------------------------------------------------------------------

class SpanRecorder {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its id (kNoParent when disabled).
  uint32_t Begin(const char* name, int64_t query = -1,
                 uint32_t parent = kNoParent);
  void End(uint32_t id);
  /// A zero-length mark (a step observation).
  void Mark(const char* name, int64_t query, uint32_t parent = kNoParent);

  /// Durations in seconds of every closed span named `name`.
  std::vector<double> Durations(const char* name) const;
  size_t size() const { return spans_.size(); }

  /// Writes every span as tab-separated lines
  /// (id, parent, name, query, start_s, end_s); false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t query;
    uint32_t parent;
    double start;
    double end;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t query = -1,
             uint32_t parent = SpanRecorder::kNoParent)
      : recorder_(recorder), id_(recorder->Begin(name, query, parent)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  uint32_t id_;
};

// ---------------------------------------------------------------------------
// Seeded workload streams
// ---------------------------------------------------------------------------

/// Every workload builds its datasets at this scale (the CLI default).
inline constexpr double kScale = 0.1;

struct AnalystQuery {
  /// Dataset instance; its spec is AllDatasetSpecs()[dataset % 6].
  size_t dataset = 0;
  int32_t class_id = 0;
  uint64_t limit = 0;
  engine::Method method = engine::Method::kExSample;
  uint64_t query_seed = 0;
};

struct AnalystStream {
  std::vector<uint64_t> dataset_seeds;  ///< One per dataset instance.
  std::vector<AnalystQuery> queries;
  size_t cache_budget_frames = 0;
};

/// The analyst stream of `seed`: a fixed-length closed-loop query sequence.
AnalystStream MakeAnalystStream(uint64_t seed);
uint64_t StreamDigest(const AnalystStream& stream);

struct ServeTenant {
  serve::TenantSpec spec;
  /// Queries per arrival instant (1 = Poisson arrivals).
  size_t burst = 1;
};

struct ServeStream {
  uint64_t dataset_seed = 0;
  std::vector<ServeTenant> tenants;
  /// Sorted by arrival time.
  std::vector<serve::TenantQuery> queries;
  /// Simulated seconds the arrivals spread over.
  double span_seconds = 0.0;
};

/// The serve stream of `seed`, shared by serve-loopback and serve-socket.
/// Its arrivals spread over a nominal span until SetServeLoad fits it to
/// the scene.
ServeStream MakeServeStream(uint64_t seed);
uint64_t StreamDigest(const ServeStream& stream);

/// Offered load of the serve workloads: the queries' solo simulated seconds
/// over the arrival span, as a share of the one simulated detector.
inline constexpr double kServeLoad = 0.4;

/// Stretches the arrivals (order kept) so that the offered load is exactly
/// kServeLoad, given the total solo simulated seconds of the stream's
/// queries on its scene.
void SetServeLoad(double solo_seconds, ServeStream* stream);

/// Number of shards the serve workloads split dashcam into.
inline constexpr size_t kServeShards = 2;

/// Digest of one pass's answers (every trace point, sim-clock marks
/// included), compared across passes of a run.
uint64_t TraceDigest(uint64_t digest, const query::QueryTrace& trace);
/// TraceDigest plus the outcome kind and its simulated-clock marks.
uint64_t OutcomeDigest(uint64_t digest, const serve::QueryOutcome& outcome);

// ---------------------------------------------------------------------------
// Shard servers
// ---------------------------------------------------------------------------

/// Kills every live shard server on SIGINT/SIGTERM, then dies by the signal.
void InstallSignalHandlers();

/// `mkdir -p`; false on failure.
bool MakeDirs(const std::string& path);

/// `exsample_shardd` processes serving one dataset, one per shard. The
/// destructor kills and reaps every server; so do the signal handlers.
class ShardFleet {
 public:
  ShardFleet() = default;
  ~ShardFleet() { Stop(); }
  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  /// Spawns `count` servers of `dataset` at kScale and `seed`, each with a
  /// port file unique to this process under `workdir`, and blocks until
  /// every server announced that it is listening.
  common::Status Start(const std::string& shardd, const std::string& workdir,
                       const std::string& dataset, uint64_t seed, size_t count);
  void Stop();

  std::vector<std::string> Hosts() const;
  /// user + sys seconds of all live servers.
  double CpuSeconds() const;
  /// Spawn → listening seconds of each server of the last Start.
  const std::vector<double>& ready_seconds() const { return ready_seconds_; }

 private:
  struct Server {
    pid_t pid = -1;
    int stdout_fd = -1;
    int port = 0;
  };
  std::vector<Server> servers_;
  std::vector<double> ready_seconds_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadResult {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

WorkloadResult RunAnalyst(const RunOptions& options, SpanRecorder* spans);
WorkloadResult RunServe(const RunOptions& options, bool socket,
                        SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
