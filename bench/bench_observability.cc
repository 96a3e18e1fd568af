// Observability overhead: per-stage latency histograms (the part of the
// stats `collect_stats` switches) must be effectively free on the
// detect-bound profile, and — the hard contract — collecting them must not
// change a single trace bit.
//
// Two questions:
//
//   1. Trace neutrality: the same concurrent workload on a stats-on and a
//      stats-off engine must produce bit-identical traces for every session
//      (exit 3 below — instrumentation that changes answers is a correctness
//      bug, not a perf miss). A stats-on run that records nothing is the
//      same class of bug: it means the wiring came apart and the overhead
//      number enforces nothing.
//
//   2. Overhead: best (minimum) wall-clock of the stats-on workload over the
//      repetitions must stay within 3% of the stats-off best (exit 1). The
//      workload is deterministic and CPU-bound, so the minimum is the
//      noise-robust estimator — everything above it is scheduler/cache
//      interference, which hits both arms. Arm order alternates per rep so
//      drift (thermal, frequency scaling) cancels too.
//
// --quick (the default scale; CI passes it explicitly) finishes in seconds;
// --full scales the workload and repetitions up. --json=PATH writes the
// measurements (CI uploads BENCH_observability.json per PR).

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>

#include "bench_common.h"

namespace exsample {
namespace bench {
namespace {

engine::EngineConfig BaseConfig(bool collect_stats) {
  engine::EngineConfig config;
  config.discriminator = engine::EngineConfig::DiscriminatorKind::kOracle;
  config.detector = detect::DetectorOptions::Perfect(0);
  config.coalesce_detect = true;  // The detect-bound profile: every frame
  config.device_batch = 64;       // rides the shared service's hot path at
                                  // paper-scale GPU batch sizes.
  config.collect_stats = collect_stats;
  return config;
}

std::vector<engine::QuerySpec> MakeSpecs(size_t sessions, uint64_t limit,
                                         uint64_t max_samples, uint64_t seed) {
  std::vector<engine::QuerySpec> specs;
  for (size_t i = 0; i < sessions; ++i) {
    engine::QuerySpec spec;
    spec.class_id = 0;
    spec.limit = limit;
    spec.options.batch_size = 32;
    spec.options.max_samples = max_samples;
    spec.options.exsample.seed = seed + i;
    specs.push_back(spec);
  }
  return specs;
}

struct RunResult {
  std::vector<query::QueryTrace> traces;
  double wall_seconds = 0.0;
  uint64_t steps_counted = 0;  // From the stats snapshot; 0 on the stats-off arm.
  uint64_t detect_records = 0;
};

RunResult RunOnce(Workload& workload, const std::vector<engine::QuerySpec>& specs,
                  bool collect_stats) {
  engine::SearchEngine engine(&workload.repo, &workload.chunking, &workload.truth,
                              BaseConfig(collect_stats));
  const auto start = std::chrono::steady_clock::now();
  auto traces = engine.RunConcurrent(specs);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  common::CheckOk(traces.status(), "workload failed");

  RunResult result;
  result.traces = std::move(traces).value();
  result.wall_seconds = std::chrono::duration<double>(elapsed).count();
  if (collect_stats) {
    const stats::StatsSnapshot snap = engine.SnapshotStats();
    const auto it = snap.counters.find("execution.steps");
    result.steps_counted = it != snap.counters.end() ? it->second : 0;
    result.detect_records = engine.stage_timer().Count(stats::Stage::kDetect);
  }
  return result;
}

bool SameTraces(const std::vector<query::QueryTrace>& a,
                const std::vector<query::QueryTrace>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!query::TracesBitIdentical(a[i], b[i])) return false;
  }
  return true;
}

double Best(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

int Run(const BenchConfig& config, const std::string& json_path) {
  // Limits just under the instance count, so every session spends most of
  // its steps tail-hunting the last instances up to its sample budget: the
  // measured region is thousands of steps of steady-state pipeline work, not
  // engine setup.
  const uint64_t kFrames = config.full ? 200000 : 80000;
  const uint64_t kLimit = 118;
  const uint64_t kMaxSamples = config.full ? 40000 : 16000;
  const size_t kSessions = 6;
  const int kReps = config.Runs(/*reduced=*/9, /*full_runs=*/21);
  constexpr double kMaxOverhead = 1.03;

  auto workload = Workload::Simulated(kFrames, /*chunks=*/16, /*instances=*/120,
                                      /*duration=*/150.0, /*skew_fraction=*/0.4,
                                      config.seed);
  const std::vector<engine::QuerySpec> specs =
      MakeSpecs(kSessions, kLimit, kMaxSamples, config.seed);

  std::printf("=== Observability: trace neutrality and stage-timing overhead ===\n\n");
  std::printf("workload: %zu sessions x limit %llu over %llu frames, %d reps "
              "per arm\n\n",
              kSessions, static_cast<unsigned long long>(kLimit),
              static_cast<unsigned long long>(kFrames), kReps);

  // Warm both arms once (allocator, page cache) before timing anything.
  RunOnce(*workload, specs, /*collect_stats=*/false);
  RunOnce(*workload, specs, /*collect_stats=*/true);

  std::vector<double> off_seconds;
  std::vector<double> on_seconds;
  bool identical = true;
  uint64_t steps_counted = 0;
  uint64_t detect_records = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    RunResult off;
    RunResult on;
    if (rep % 2 == 0) {
      off = RunOnce(*workload, specs, /*collect_stats=*/false);
      on = RunOnce(*workload, specs, /*collect_stats=*/true);
    } else {
      on = RunOnce(*workload, specs, /*collect_stats=*/true);
      off = RunOnce(*workload, specs, /*collect_stats=*/false);
    }
    off_seconds.push_back(off.wall_seconds);
    on_seconds.push_back(on.wall_seconds);
    identical = identical && SameTraces(off.traces, on.traces);
    steps_counted = on.steps_counted;
    detect_records = on.detect_records;
  }

  const double off_best = Best(off_seconds);
  const double on_best = Best(on_seconds);
  const double ratio = off_best > 0.0 ? on_best / off_best : 0.0;
  const bool collected = steps_counted > 0 && detect_records > 0;

  std::printf("stats off: best %.1f ms   stats on: best %.1f ms   "
              "overhead %.3fx (<= %.2fx required): %s\n",
              off_best * 1e3, on_best * 1e3, ratio, kMaxOverhead,
              ratio <= kMaxOverhead ? "PASS" : "FAIL");
  std::printf("stats-on traces bit-identical to stats-off: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("instrumentation live: %llu steps counted, %llu detect-stage "
              "latencies recorded: %s\n",
              static_cast<unsigned long long>(steps_counted),
              static_cast<unsigned long long>(detect_records),
              collected ? "yes" : "NO — BUG");

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    json << "{\n  \"bench\": \"observability\",\n";
    json << "  \"full\": " << (config.full ? "true" : "false") << ",\n";
    json << "  \"reps\": " << kReps << ",\n";
    json << "  \"traces_identical\": " << (identical ? "true" : "false") << ",\n";
    json << "  \"instrumentation_live\": " << (collected ? "true" : "false")
         << ",\n";
    json << "  \"off_best_s\": " << off_best << ",\n";
    json << "  \"on_best_s\": " << on_best << ",\n";
    json << "  \"overhead_ratio\": " << ratio << ",\n";
    json << "  \"steps_counted\": " << steps_counted << ",\n";
    json << "  \"detect_records\": " << detect_records << "\n}\n";
    std::printf("json written to %s\n", json_path.c_str());
  }

  if (!identical || !collected) return 3;
  return ratio <= kMaxOverhead ? 0 : 1;
}

int Main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::Parse(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    // --quick is the default scale; accepted explicitly for CI clarity.
  }
  return Run(config, json_path);
}

}  // namespace
}  // namespace bench
}  // namespace exsample

int main(int argc, char** argv) { return exsample::bench::Main(argc, argv); }
