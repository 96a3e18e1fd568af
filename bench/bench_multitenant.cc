// Multi-tenant serving: what the admission/WFQ/shedding layer guarantees on
// a shared engine, measured in *simulated* detector-seconds (bit-exact, so
// the acceptance lines are CI-stable). Three profiles, three exit-enforced
// claims:
//
//   1. Isolation does not change computation: every admitted-and-completed
//      query's trace is bit-identical to a solo run of the same spec and
//      seed on a fresh engine (exit 3 on divergence — the bit-identity
//      contract every lower layer keeps, one layer up).
//
//   2. Weighted fairness: three tenants with weights 4/2/1 submitting
//      identical bursty work split the charged detector-seconds measured
//      over the contended window (while all three still have live sessions)
//      within 10% relative of their configured shares (exit 2).
//
//   3. Overload protection: an adversarial best-effort flood against an
//      interactive SLO tenant is shed/rejected (never hung), and the SLO
//      tenant's p95 time-to-first-result stays <= 1.3x its uncontended run
//      (exit 1). A scavenger profile additionally checks best-effort work
//      still completes when the engine is not saturated, and that the SLO
//      tenant's mean time-to-first-result beats the scavengers'.
//
// --quick is accepted as an explicit marker for the default reduced scale
// (the CI bench-smoke lane passes it); --full runs the paper-scale scene.
// --json=PATH writes the measurements (CI uploads BENCH_multitenant.json
// per PR).

#include <algorithm>
#include <cstring>
#include <fstream>

#include "bench_common.h"

namespace exsample {
namespace bench {
namespace {

/// The serving scene: an abundant class (cheap first results, the
/// interactive tenants' target), a medium class for scavengers, and a rare
/// class so costs are not uniform.
struct ServeWorkload {
  video::VideoRepository repo;
  video::Chunking chunking;
  scene::GroundTruth truth;

  ServeWorkload(video::VideoRepository r, video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)), chunking(std::move(c)), truth(std::move(t)) {}

  static std::unique_ptr<ServeWorkload> Make(uint64_t frames, uint64_t seed) {
    const uint64_t counts[] = {120, 40, 10};
    common::Rng rng(seed);
    auto chunking = video::MakeFixedCountChunks(frames, 16).value();
    scene::SceneSpec spec;
    spec.total_frames = frames;
    for (size_t c = 0; c < sizeof(counts) / sizeof(counts[0]); ++c) {
      scene::ClassPopulationSpec cls;
      cls.class_id = static_cast<int32_t>(c);
      cls.instance_count = counts[c];
      cls.duration.mean_frames = 150.0;
      spec.classes.push_back(cls);
    }
    return std::make_unique<ServeWorkload>(
        video::VideoRepository::SingleClip(frames), std::move(chunking),
        std::move(scene::GenerateScene(spec, &chunking, rng)).value());
  }
};

engine::EngineConfig BaseConfig() {
  engine::EngineConfig config;
  config.discriminator = engine::EngineConfig::DiscriminatorKind::kOracle;
  config.detector = detect::DetectorOptions::Perfect(scene::GroundTruth::kAllClasses);
  config.coalesce_detect = true;
  config.device_batch = 16;
  return config;
}

serve::TenantQuery MakeQuery(const std::string& tenant, double arrival,
                             int32_t class_id, uint64_t limit,
                             uint64_t max_samples, uint64_t seed,
                             uint64_t batch = 4) {
  serve::TenantQuery q;
  q.tenant = tenant;
  q.arrival_seconds = arrival;
  q.spec.class_id = class_id;
  q.spec.limit = limit;
  q.spec.options.batch_size = batch;
  q.spec.options.max_samples = max_samples;
  q.spec.options.exsample.seed = seed;
  return q;
}

double Percentile95(std::vector<double> values) {
  if (values.empty()) return -1.0;
  std::sort(values.begin(), values.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(0.95 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

/// Re-runs every completed query solo on a fresh engine and compares traces
/// bit-for-bit — tenancy may refuse or reorder work, never change it.
bool SoloTracesIdentical(const ServeWorkload& workload,
                         const std::vector<serve::TenantQuery>& queries,
                         const std::vector<serve::QueryOutcome>& outcomes) {
  engine::SearchEngine reference(&workload.repo, &workload.chunking,
                                 &workload.truth, BaseConfig());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].kind != serve::OutcomeKind::kCompleted) continue;
    auto solo = reference.FindDistinct(queries[i].spec.class_id,
                                       queries[i].spec.limit,
                                       queries[i].spec.options);
    common::CheckOk(solo.status(), "solo reference run failed");
    if (!query::TracesBitIdentical(solo.value(), outcomes[i].trace)) {
      std::fprintf(stderr, "FATAL: query %zu trace diverged from solo run\n", i);
      return false;
    }
  }
  return true;
}

// --- Profile 1: weighted-fair shares over a bursty burst ---------------------

struct FairnessResult {
  std::vector<double> shares;    // Measured share per tenant over the window.
  std::vector<double> expected;  // weight / sum(weights).
  double window_seconds = 0.0;
  bool within_tolerance = true;
  bool traces_identical = true;
};

FairnessResult RunFairness(const ServeWorkload& workload, uint64_t seed) {
  const double kWeights[] = {4.0, 2.0, 1.0};
  const char* kIds[] = {"gold", "silver", "bronze"};
  const size_t kTenants = 3;
  const size_t kSessionsPerTenant = 3;
  const uint64_t kSamplesPerSession = 600;

  engine::SearchEngine engine(&workload.repo, &workload.chunking,
                              &workload.truth, BaseConfig());
  serve::TenantServer server(&engine, {});
  for (size_t t = 0; t < kTenants; ++t) {
    serve::TenantSpec spec;
    spec.id = kIds[t];
    spec.weight = kWeights[t];
    common::CheckOk(server.AddTenant(spec).status(), "AddTenant failed");
  }

  // Identical sample-capped sessions per tenant, all arriving at t=0: the
  // only thing separating the tenants is their configured weight.
  std::vector<serve::TenantQuery> queries;
  std::vector<size_t> query_tenant;
  for (size_t t = 0; t < kTenants; ++t) {
    for (size_t s = 0; s < kSessionsPerTenant; ++s) {
      queries.push_back(MakeQuery(kIds[t], 0.0, /*class_id=*/0,
                                  /*limit=*/1000000, kSamplesPerSession,
                                  seed + 100 * t + s));
      query_tenant.push_back(t);
    }
  }

  // Record every step's charged-seconds delta with its global timestamp so
  // the share can be measured over exactly the contended window.
  struct StepEvent {
    size_t tenant;
    double now;
    double delta;
  };
  std::vector<StepEvent> events;
  std::vector<double> last_seconds(queries.size(), 0.0);
  const auto observer = [&](size_t i, const engine::QuerySession& session,
                            double now) {
    const double seconds = session.Trace().final.seconds;
    events.push_back({query_tenant[i], now, seconds - last_seconds[i]});
    last_seconds[i] = seconds;
  };
  auto outcomes = server.Serve(queries, observer);
  common::CheckOk(outcomes.status(), "fairness profile failed");

  // Contended window: [0, T) where T is the first moment some tenant has no
  // live sessions left — until then, every tenant is backlogged and the WFQ
  // pick alone decides the split.
  FairnessResult result;
  std::vector<double> last_finish(kTenants, 0.0);
  for (size_t i = 0; i < queries.size(); ++i) {
    common::Check(outcomes.value()[i].kind == serve::OutcomeKind::kCompleted,
                  "fairness profile query did not complete");
    last_finish[query_tenant[i]] = std::max(
        last_finish[query_tenant[i]], outcomes.value()[i].finished_seconds);
  }
  result.window_seconds =
      *std::min_element(last_finish.begin(), last_finish.end());

  std::vector<double> charged(kTenants, 0.0);
  double total = 0.0;
  for (const StepEvent& e : events) {
    if (e.now > result.window_seconds) continue;
    charged[e.tenant] += e.delta;
    total += e.delta;
  }
  double weight_sum = 0.0;
  for (const double w : kWeights) weight_sum += w;
  for (size_t t = 0; t < kTenants; ++t) {
    result.shares.push_back(total > 0.0 ? charged[t] / total : 0.0);
    result.expected.push_back(kWeights[t] / weight_sum);
    const double deviation =
        std::fabs(result.shares[t] - result.expected[t]) / result.expected[t];
    if (deviation > 0.10) result.within_tolerance = false;
  }
  result.traces_identical =
      SoloTracesIdentical(workload, queries, outcomes.value());

  common::TextTable table;
  table.SetHeader({"tenant", "weight", "expected share", "measured share"});
  for (size_t t = 0; t < kTenants; ++t) {
    char expected_buf[32], measured_buf[32], weight_buf[32];
    std::snprintf(weight_buf, sizeof(weight_buf), "%.0f", kWeights[t]);
    std::snprintf(expected_buf, sizeof(expected_buf), "%.1f%%",
                  100.0 * result.expected[t]);
    std::snprintf(measured_buf, sizeof(measured_buf), "%.1f%%",
                  100.0 * result.shares[t]);
    table.AddRow({kIds[t], weight_buf, expected_buf, measured_buf});
  }
  std::printf("--- bursty burst: %zu tenants x %zu sessions, shares over the\n"
              "    contended window (first %.1f simulated seconds) ---\n%s\n",
              kTenants, kSessionsPerTenant, result.window_seconds,
              table.ToString().c_str());
  return result;
}

// --- Profiles 2+3: SLO protection under flood / alongside scavengers ---------

struct FloodResult {
  double uncontended_p95 = 0.0;
  double contended_p95 = 0.0;
  double ratio = 0.0;
  uint64_t flood_rejected = 0;
  uint64_t flood_shed = 0;
  bool slo_all_completed = true;
  bool protected_ok = true;
  bool traces_identical = true;
};

FloodResult RunFlood(const ServeWorkload& workload, uint64_t seed) {
  const size_t kSloQueries = 6;
  const size_t kFloodQueries = 10;

  // The SLO tenant searches the medium-abundance class: its first result
  // takes long enough that the measured p95 reflects scheduling, not round
  // granularity, while the flood hammers the cheap abundant class.
  const auto slo_queries = [&]() {
    std::vector<serve::TenantQuery> queries;
    for (size_t i = 0; i < kSloQueries; ++i) {
      queries.push_back(MakeQuery("user", 0.0, /*class_id=*/1, /*limit=*/3,
                                  /*max_samples=*/4000, seed + 500 + i));
    }
    return queries;
  };

  const auto run = [&](bool with_flood) {
    engine::SearchEngine engine(&workload.repo, &workload.chunking,
                                &workload.truth, BaseConfig());
    serve::ServeOptions options;
    options.admission.saturation_pending_frames = 24.0;
    options.admission.shed_over_factor = 1.5;
    serve::TenantServer server(&engine, options);
    serve::TenantSpec user;
    user.id = "user";
    user.weight = 8.0;
    common::CheckOk(server.AddTenant(user).status(), "AddTenant failed");
    std::vector<serve::TenantQuery> queries = slo_queries();
    if (with_flood) {
      serve::TenantSpec flood;
      flood.id = "flood";
      flood.weight = 1.0;
      flood.slo = serve::SloClass::kBestEffort;
      flood.max_concurrent_sessions = 6;
      flood.max_queued = 2;
      common::CheckOk(server.AddTenant(flood).status(), "AddTenant failed");
      for (size_t i = 0; i < kFloodQueries; ++i) {
        queries.push_back(MakeQuery("flood", 0.0, /*class_id=*/0,
                                    /*limit=*/1000000, /*max_samples=*/2000,
                                    seed + 700 + i, /*batch=*/8));
      }
    }
    auto outcomes = server.Serve(queries);
    common::CheckOk(outcomes.status(), "flood profile failed");
    struct RunResult {
      std::vector<serve::TenantQuery> queries;
      std::vector<serve::QueryOutcome> outcomes;
      serve::TenantUsage flood_usage;
    };
    RunResult result;
    result.queries = std::move(queries);
    result.outcomes = std::move(outcomes).value();
    if (with_flood) result.flood_usage = server.tenants().usage(1);
    return result;
  };

  const auto slo_first_results = [&](const std::vector<serve::QueryOutcome>& o) {
    std::vector<double> ttfr;
    for (size_t i = 0; i < kSloQueries; ++i) {
      ttfr.push_back(o[i].first_result_seconds);
    }
    return ttfr;
  };

  const auto uncontended = run(/*with_flood=*/false);
  const auto contended = run(/*with_flood=*/true);

  FloodResult result;
  for (size_t i = 0; i < kSloQueries; ++i) {
    if (contended.outcomes[i].kind != serve::OutcomeKind::kCompleted ||
        contended.outcomes[i].first_result_seconds < 0.0) {
      result.slo_all_completed = false;
    }
  }
  result.uncontended_p95 = Percentile95(slo_first_results(uncontended.outcomes));
  result.contended_p95 = Percentile95(slo_first_results(contended.outcomes));
  result.ratio = result.uncontended_p95 > 0.0
                     ? result.contended_p95 / result.uncontended_p95
                     : 0.0;
  result.flood_rejected = contended.flood_usage.rejected;
  result.flood_shed = contended.flood_usage.shed;
  result.protected_ok = result.slo_all_completed && result.ratio <= 1.3 &&
                        result.flood_rejected + result.flood_shed > 0;
  result.traces_identical =
      SoloTracesIdentical(workload, contended.queries, contended.outcomes);

  std::printf("--- adversarial flood: %zu best-effort arrivals against an\n"
              "    interactive tenant (weight 8) ---\n", kFloodQueries);
  std::printf("SLO tenant p95 time-to-first-result: uncontended %.1fs, "
              "contended %.1fs — %.2fx (target <= 1.30x)\n",
              result.uncontended_p95, result.contended_p95, result.ratio);
  std::printf("flood outcomes: %llu rejected, %llu shed (engine sheds, "
              "never hangs)\n\n",
              static_cast<unsigned long long>(result.flood_rejected),
              static_cast<unsigned long long>(result.flood_shed));
  return result;
}

struct ScavengerResult {
  double slo_mean_ttfr = 0.0;
  double scavenger_mean_ttfr = 0.0;
  bool all_completed = true;
  bool ordering_ok = true;
};

ScavengerResult RunScavengers(const ServeWorkload& workload, uint64_t seed) {
  engine::SearchEngine engine(&workload.repo, &workload.chunking,
                              &workload.truth, BaseConfig());
  serve::TenantServer server(&engine, {});
  serve::TenantSpec app;
  app.id = "app";
  app.weight = 6.0;
  common::CheckOk(server.AddTenant(app).status(), "AddTenant failed");
  for (const char* id : {"scav1", "scav2"}) {
    serve::TenantSpec scav;
    scav.id = id;
    scav.weight = 1.0;
    scav.slo = serve::SloClass::kBestEffort;
    common::CheckOk(server.AddTenant(scav).status(), "AddTenant failed");
  }

  std::vector<serve::TenantQuery> queries;
  for (size_t i = 0; i < 4; ++i) {
    queries.push_back(MakeQuery("app", 0.0, /*class_id=*/0, /*limit=*/4,
                                /*max_samples=*/4000, seed + 900 + i));
  }
  for (size_t i = 0; i < 4; ++i) {
    queries.push_back(MakeQuery(i % 2 == 0 ? "scav1" : "scav2", 0.0,
                                /*class_id=*/1, /*limit=*/3,
                                /*max_samples=*/4000, seed + 950 + i));
  }
  auto outcomes = server.Serve(queries);
  common::CheckOk(outcomes.status(), "scavenger profile failed");

  ScavengerResult result;
  std::vector<double> slo_ttfr, scav_ttfr;
  for (size_t i = 0; i < queries.size(); ++i) {
    const serve::QueryOutcome& o = outcomes.value()[i];
    if (o.kind != serve::OutcomeKind::kCompleted ||
        o.first_result_seconds < 0.0) {
      result.all_completed = false;
      continue;
    }
    (i < 4 ? slo_ttfr : scav_ttfr).push_back(o.first_result_seconds);
  }
  result.slo_mean_ttfr = common::Mean(slo_ttfr);
  result.scavenger_mean_ttfr = common::Mean(scav_ttfr);
  result.ordering_ok =
      result.all_completed && result.slo_mean_ttfr <= result.scavenger_mean_ttfr;

  std::printf("--- batch scavengers: best-effort work drains without "
              "starving the SLO tenant ---\n");
  std::printf("mean time-to-first-result: SLO %.1fs, scavengers %.1fs; all "
              "completed: %s\n\n",
              result.slo_mean_ttfr, result.scavenger_mean_ttfr,
              result.all_completed ? "yes" : "NO — FAIL");
  return result;
}

int Run(const BenchConfig& config, const std::string& json_path) {
  const uint64_t kFrames = config.full ? 120000 : 60000;
  auto workload = ServeWorkload::Make(kFrames, config.seed);

  std::printf("=== Multi-tenant serving: admission, weighted shares, "
              "overload shedding ===\n\n");

  const FairnessResult fairness = RunFairness(*workload, config.seed);
  const FloodResult flood = RunFlood(*workload, config.seed);
  const ScavengerResult scavengers = RunScavengers(*workload, config.seed);

  const bool traces_identical =
      fairness.traces_identical && flood.traces_identical;
  std::printf("completed traces bit-identical to solo runs: %s\n",
              traces_identical ? "yes" : "NO — BUG");
  std::printf("weighted shares within 10%% of configured weights: %s\n",
              fairness.within_tolerance ? "yes" : "NO — FAIL");
  std::printf("SLO tenant protected under flood (p95 <= 1.3x, flood shed): %s\n",
              flood.protected_ok ? "yes" : "NO — FAIL");
  std::printf("scavengers complete without beating the SLO tenant: %s\n",
              scavengers.ordering_ok ? "yes" : "NO — FAIL");

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    json << "{\n  \"bench\": \"multitenant\",\n";
    json << "  \"full\": " << (config.full ? "true" : "false") << ",\n";
    json << "  \"traces_bit_identical\": "
         << (traces_identical ? "true" : "false") << ",\n";
    json << "  \"fairness\": {\"window_seconds\": " << fairness.window_seconds
         << ", \"within_tolerance\": "
         << (fairness.within_tolerance ? "true" : "false")
         << ", \"tenants\": [\n";
    const char* ids[] = {"gold", "silver", "bronze"};
    for (size_t t = 0; t < fairness.shares.size(); ++t) {
      json << "    {\"tenant\": \"" << ids[t]
           << "\", \"expected_share\": " << fairness.expected[t]
           << ", \"measured_share\": " << fairness.shares[t] << "}"
           << (t + 1 < fairness.shares.size() ? "," : "") << "\n";
    }
    json << "  ]},\n";
    json << "  \"flood\": {\"uncontended_p95\": " << flood.uncontended_p95
         << ", \"contended_p95\": " << flood.contended_p95
         << ", \"ratio\": " << flood.ratio
         << ", \"flood_rejected\": " << flood.flood_rejected
         << ", \"flood_shed\": " << flood.flood_shed
         << ", \"protected\": " << (flood.protected_ok ? "true" : "false")
         << "},\n";
    json << "  \"scavengers\": {\"slo_mean_ttfr\": " << scavengers.slo_mean_ttfr
         << ", \"scavenger_mean_ttfr\": " << scavengers.scavenger_mean_ttfr
         << ", \"ok\": " << (scavengers.ordering_ok ? "true" : "false")
         << "}\n}\n";
    std::printf("json written to %s\n", json_path.c_str());
  }

  if (!traces_identical) return 3;
  if (!fairness.within_tolerance) return 2;
  if (!flood.protected_ok || !scavengers.ordering_ok) return 1;
  return 0;
}

int Main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::Parse(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    // --quick is the explicit spelling of the default reduced scale; the CI
    // bench-smoke lane passes it so the intent is visible in the logs.
  }
  return Run(config, json_path);
}

}  // namespace
}  // namespace bench
}  // namespace exsample

int main(int argc, char** argv) { return exsample::bench::Main(argc, argv); }
