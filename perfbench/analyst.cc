// The analyst workload: one client, closed loop, one solo query at a time
// over the six paper datasets, with cross-query reuse on.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"

namespace perfbench {
namespace {

engine::QueryOptions OptionsOf(const AnalystQuery& q) {
  engine::QueryOptions options;
  options.method = q.method;
  options.exsample.seed = q.query_seed;
  options.adaptive.seed = q.query_seed;
  options.hybrid.seed = q.query_seed;
  return options;
}

// Decode is priced in the accounting only; reuse is on with the stream's
// cache budget. Everything else is an engine default.
engine::EngineConfig AnalystConfig(const AnalystStream& stream, bool reuse) {
  engine::EngineConfig config;
  config.simulate_decode = true;
  if (reuse) {
    config.reuse = reuse::ReuseOptions::All();
    config.reuse.cache_budget_frames = stream.cache_budget_frames;
  }
  return config;
}

struct Setup {
  std::vector<std::unique_ptr<datasets::BuiltDataset>> data;
  std::vector<std::unique_ptr<engine::SearchEngine>> engines;
};

common::Status BuildSetup(const AnalystStream& stream, bool reuse,
                          SpanRecorder* spans, Setup* setup) {
  const std::vector<datasets::DatasetSpec> specs = datasets::AllDatasetSpecs();
  {
    ScopedSpan span(spans, "datasets.build");
    for (size_t d = 0; d < stream.dataset_seeds.size(); ++d) {
      auto built = datasets::BuiltDataset::Build(specs[d % specs.size()],
                                                 stream.dataset_seeds[d], kScale);
      if (!built.ok()) return built.status();
      setup->data.push_back(
          std::make_unique<datasets::BuiltDataset>(std::move(built).value()));
    }
  }
  ScopedSpan span(spans, "engine.construct");
  for (const auto& data : setup->data) {
    setup->engines.push_back(std::make_unique<engine::SearchEngine>(
        &data->repo(), &data->chunking(), &data->truth(), AnalystConfig(stream, reuse)));
  }
  return common::Status::OK();
}

// The answer of one query, as the output checks compare it.
struct Answer {
  bool ok = false;
  bool warm_started = false;
  query::QueryTrace trace;
};

// The (samples, reported, distinct) sequence; charged seconds are exempt.
bool SameDiscovery(const query::QueryTrace& a, const query::QueryTrace& b) {
  const auto same = [](const query::DiscoveryPoint& x, const query::DiscoveryPoint& y) {
    return x.samples == y.samples && x.reported_results == y.reported_results &&
           x.true_distinct == y.true_distinct;
  };
  if (a.points.size() != b.points.size() || !same(a.final, b.final)) return false;
  for (size_t i = 0; i < a.points.size(); ++i) {
    if (!same(a.points[i], b.points[i])) return false;
  }
  return true;
}

}  // namespace

// One host-speed probe per this many queries: about 1% of a pass.
constexpr size_t kProbeEvery = 8;

WorkloadResult RunAnalyst(const RunOptions& options, SpanRecorder* spans) {
  WorkloadResult result;
  Report& report = result.report;
  const AnalystStream stream = MakeAnalystStream(options.seed);
  const size_t n = stream.queries.size();
  char line[256];
  std::snprintf(line, sizeof(line),
                "workload analyst: closed loop, 1 client, %zu queries per pass, "
                "seed %llu, stream digest %016llx",
                n, static_cast<unsigned long long>(options.seed),
                static_cast<unsigned long long>(StreamDigest(stream)));
  report.Note(line);

  // Untraced and traced passes alternate in a traced run; every pass
  // replays the identical stream on a fresh set-up.
  SpanRecorder off(false);
  // Set-ups are outside the timed passes, so a traced run spans all of them.
  SpanRecorder* setup_rec = options.trace ? spans : &off;
  std::vector<double> setup_seconds;
  std::vector<std::vector<double>> wall_ms(n);
  std::vector<std::vector<double>> cpu_s(n), raw_wall_ms(n);
  std::vector<double> pass_seconds, pass_scales;
  std::vector<Answer> first_pass(n);
  uint64_t first_digest = 0;
  size_t completed[2] = {0, 0};
  double pass_wall[2] = {0, 0};
  size_t passes = 0;
  // Traced-pass layer inputs.
  std::vector<QueryRecord> records;
  uint64_t steps = 0, evictions = 0;
  long vcs = 0, ivcs = 0;
  int threads_peak = 0;
  std::vector<double> export_seconds;

  double timed = 0.0;
  // Whole passes until the next one would overrun the budget by more than
  // half a pass.
  double last_pass = 0.0;
  while (passes < 2 || timed + last_pass / 2 < options.seconds) {
    const bool traced = options.trace && passes % 2 == 0;
    SpanRecorder* rec = traced ? spans : &off;
    // Set-up is timed several times per pass and reported as a median:
    // one timing of a sub-second set-up is mostly host noise.
    Setup setup;
    for (int rep = 0; rep < 2; ++rep) {
      setup = Setup();
      const double t0 = Now();
      const common::Status built = BuildSetup(stream, true, setup_rec, &setup);
      setup_seconds.push_back(Now() - t0);
      if (!built.ok()) {
        report.Fail("set-up: " + built.ToString());
        return result;
      }
    }

    const Usage u0 = SelfUsage();
    std::vector<double> probes, pass_wall_ms(n, -1.0), pass_cpu_s(n, -1.0);
    const double w0 = Now();
    uint64_t digest = 0;
    const uint32_t pass_span = rec->Begin("analyst.pass");
    for (size_t i = 0; i < n; ++i) {
      const AnalystQuery& q = stream.queries[i];
      engine::SearchEngine* engine = setup.engines[q.dataset].get();
      ++result.attempted;
      if (i % kProbeEvery == 0) probes.push_back(ProbeSeconds());
      const double q0 = Now();
      const double c0 = ProcessCpuNow();
      const uint32_t query_span = rec->Begin("analyst.query", static_cast<int64_t>(i), pass_span);
      const uint32_t create_span =
          rec->Begin("engine.create_session", static_cast<int64_t>(i), query_span);
      auto session = engine->CreateSession(q.class_id, q.limit, OptionsOf(q));
      rec->End(create_span);
      if (!session.ok()) {
        rec->End(query_span);
        ++result.failed;
        continue;
      }
      engine::QuerySession& s = *session.value();
      for (;;) {
        const uint32_t step_span = rec->Begin("engine.step", static_cast<int64_t>(i), query_span);
        const bool progressed = s.Step();
        rec->End(step_span);
        if (!progressed) break;
        if (traced) ++steps;
      }
      const uint32_t finish_span = rec->Begin("engine.finish", static_cast<int64_t>(i), query_span);
      query::QueryTrace trace = s.Finish();
      rec->End(finish_span);
      rec->End(query_span);
      pass_wall_ms[i] = (Now() - q0) * 1000.0;
      pass_cpu_s[i] = ProcessCpuNow() - c0;
      ++completed[traced];
      digest = TraceDigest(digest, trace);
      if (traced) {
        QueryRecord record;
        record.method = q.method;
        Capture(s, &record);
        records.push_back(record);
        threads_peak = std::max(threads_peak, ThreadCount());
      }
      if (passes == 0) {
        first_pass[i].ok = true;
        first_pass[i].warm_started = s.reuse_stats().warm_started;
        first_pass[i].trace = std::move(trace);
      }
    }
    rec->End(pass_span);
    const double wall = Now() - w0;
    const Usage u1 = SelfUsage();
    pass_wall[traced] += wall;
    pass_seconds.push_back(wall);
    const double scale = ProbeScale(probes);
    pass_scales.push_back(scale);
    for (size_t i = 0; i < n; ++i) {
      if (pass_wall_ms[i] < 0.0) continue;
      raw_wall_ms[i].push_back(pass_wall_ms[i]);
      wall_ms[i].push_back(pass_wall_ms[i] * scale);
      cpu_s[i].push_back(pass_cpu_s[i] * scale);
    }
    timed += wall;
    last_pass = wall;
    if (traced) {
      vcs += u1.voluntary_cs - u0.voluntary_cs;
      ivcs += u1.involuntary_cs - u0.involuntary_cs;
      for (const auto& engine : setup.engines) {
        const reuse::DetectionCacheStats cache = engine->reuse_manager()->cache().Stats();
        evictions += cache.evicted_empty + cache.evicted_nonempty;
        const double t0 = Now();
        ScopedSpan span(rec, "stats.export");
        const std::string json = engine->StatsJson();
        export_seconds.push_back(Now() - t0);
      }
    }
    if (passes == 0) {
      first_digest = digest;
    } else if (digest != first_digest) {
      report.Fail("pass " + std::to_string(passes) + " answered differently from pass 0");
      ++result.failed;
    }
    ++passes;
  }
  const double peak_rss = PeakRssMb();
  // The percentile rule wants at least 20 set-up timings for a median.
  while (setup_seconds.size() < 21) {
    Setup extra;
    const double t0 = Now();
    if (!BuildSetup(stream, true, setup_rec, &extra).ok()) break;
    setup_seconds.push_back(Now() - t0);
  }

  // Output checks, outside the timed phase: every query meets its stop
  // condition, and every query that was not warm-started discovers exactly
  // what a cold run with reuse off discovers.
  Setup cold;
  const common::Status cold_built = BuildSetup(stream, false, &off, &cold);
  if (!cold_built.ok()) report.Fail("cold set-up: " + cold_built.ToString());
  size_t cold_checked = 0, warm = 0, check_failures = 0;
  for (size_t i = 0; i < n && cold_built.ok(); ++i) {
    const AnalystQuery& q = stream.queries[i];
    const Answer& answer = first_pass[i];
    if (!answer.ok) continue;
    bool pass = answer.trace.final.reported_results >= q.limit;
    if (answer.warm_started) {
      ++warm;
    } else {
      auto solo = cold.engines[q.dataset]->FindDistinct(q.class_id, q.limit, OptionsOf(q));
      pass = pass && solo.ok() && SameDiscovery(answer.trace, solo.value());
      ++cold_checked;
    }
    if (!pass) {
      ++check_failures;
      report.Fail("query " + std::to_string(i) + " (" + engine::MethodName(q.method) +
                  ") failed its output check");
    }
  }
  result.failed += check_failures;
  std::snprintf(line, sizeof(line),
                "checks: %zu answers checked against their stop condition, %zu against a "
                "cold run (%zu warm-started are exempt from that), %zu failed",
                n, cold_checked, warm, check_failures);
  report.Note(line);
  std::string walls;
  for (size_t p = 0; p < pass_seconds.size(); ++p) {
    walls += " " + std::to_string(pass_seconds[p]) + " (x" + std::to_string(pass_scales[p]) + ")";
  }
  report.Note("passes: " + std::to_string(passes) + ", wall seconds (host scale):" + walls);

  std::vector<double> sim_s, first_s;
  for (const Answer& a : first_pass) {
    if (!a.ok) continue;
    sim_s.push_back(a.trace.final.seconds);
    for (const query::DiscoveryPoint& p : a.trace.points) {
      if (p.reported_results > 0) {
        first_s.push_back(p.seconds);
        break;
      }
    }
  }
  report.Note("failed_share = " +
              std::to_string(static_cast<double>(result.failed) /
                             static_cast<double>(std::max<uint64_t>(1, result.attempted))) +
              " (" + std::to_string(result.failed) + " failed / " +
              std::to_string(result.attempted) + " attempted queries)");

  if (!options.trace) {
    // Each query's wall is its median host-scaled time over the run's
    // passes; the rate divides the stream by the pass those walls compose.
    const auto composed = [](const std::vector<double>& ms) {
      double seconds = 0.0;
      for (const double v : ms) seconds += v / 1000.0;
      return seconds;
    };
    const std::vector<double> query_ms = MedianAcrossPasses(wall_ms);
    const double composed_s = composed(query_ms);
    const double raw_s = composed(MedianAcrossPasses(raw_wall_ms));
    report.Add("queries_per_s", static_cast<double>(query_ms.size()) / composed_s, passes,
               std::to_string(query_ms.size()) + " queries / " + std::to_string(composed_s) +
                   " s composed of each query's median pass; unscaled " +
                   std::to_string(static_cast<double>(query_ms.size()) / raw_s) + " 1/s");
    report.AddQuantile("query_wall_ms_p50", query_ms, 0.5);
    report.AddQuantile("query_wall_ms_p90", query_ms, 0.9);
    report.AddQuantile("query_sim_s_p50", sim_s, 0.5);
    report.AddQuantile("query_sim_s_p90", sim_s, 0.9);
    report.AddQuantile("first_result_sim_s_p50", first_s, 0.5);
    const std::vector<double> query_cpu = MedianAcrossPasses(cpu_s);
    double cpu_total = 0.0;
    for (const double c : query_cpu) cpu_total += c;
    report.AddRatio("cpu_s_per_query", cpu_total, static_cast<double>(query_cpu.size()));
    report.Add("peak_rss_mb", peak_rss, 1);
    report.AddQuantile("setup_s", setup_seconds, 0.5);
    report.AddRatio("ok_share", static_cast<double>(result.attempted - result.failed),
                    static_cast<double>(result.attempted));
    return result;
  }

  // Per-layer metrics, from the traced passes.
  const double traced_done = static_cast<double>(completed[1]);
  double frames = 0.0, warm_started = 0.0, saved = 0.0;
  for (const QueryRecord& r : records) {
    frames += static_cast<double>(r.frames);
    warm_started += r.reuse.warm_started ? 1.0 : 0.0;
    saved += r.reuse.saved_detector_seconds;
  }
  std::vector<double> build_ms = spans->Durations("datasets.build");
  for (double& v : build_ms) v *= 1000.0;
  report.AddQuantile("datasets.build_ms", build_ms, 0.5);
  report.AddQuantile("engine.session_create_us_p50",
                     spans->Durations("engine.create_session"), 0.5, 1e6);
  const std::vector<double> step_s = spans->Durations("engine.step");
  report.AddQuantile("engine.step_us_p50", step_s, 0.5, 1e6);
  report.AddQuantile("engine.step_us_p90", step_s, 0.9, 1e6);
  report.AddRatio("engine.steps_per_query", static_cast<double>(steps), traced_done);
  AddStageMetrics(records, &report);
  report.AddRatio("reuse.evictions_per_kframe", static_cast<double>(evictions),
                  frames / 1000.0);
  report.AddRatio("reuse.warm_start_share", warm_started, traced_done);
  report.AddRatio("reuse.saved_detector_s_per_query", saved, traced_done);
  // The detect service, the transport, the serving loop and the shard
  // servers are not on this workload's path.
  for (const char* idle :
       {"query.service.fill_rate", "query.service.shared_batch_ratio",
        "query.service.submit_to_grant_ms_p50", "query.service.submit_to_grant_ms_p90",
        "query.transport.rtt_ms_p50", "query.transport.rtt_ms_p90",
        "query.transport.wire_batches_per_step", "query.transport.bytes_per_frame",
        "query.transport.retries", "query.transport.requeues",
        "query.transport.inferred_failures", "query.transport.late_responses_dropped",
        "serve.queue_wait_sim_s_p90", "serve.live_sessions_mean",
        "serve.step_cost_growth", "serve.rss_mb_per_kquery", "serve.rejected",
        "serve.shed", "shardd.ready_ms", "shardd.cpu_ms_per_kframe"}) {
    report.Add(idle, 0.0, 0, "not on this workload's path");
  }
  report.Add("common.threads_peak", threads_peak, records.size());
  report.AddRatio("common.voluntary_cs_per_step", static_cast<double>(vcs),
                  static_cast<double>(steps));
  report.AddRatio("common.involuntary_cs_per_step", static_cast<double>(ivcs),
                  static_cast<double>(steps));
  std::vector<double> export_ms = export_seconds;
  for (double& v : export_ms) v *= 1000.0;
  report.Add("stats.export_ms", Median(export_ms), export_ms.size());
  report.AddRatio("stats.tracing_overhead", completed[1] / pass_wall[1],
                  completed[0] / pass_wall[0]);
  return result;
}

}  // namespace perfbench
