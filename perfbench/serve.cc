// The serve workloads: an open-loop, three-tenant stream on the simulated
// clock through serve::TenantServer, over dashcam split into two shards with
// coalesced detection. serve-loopback executes device batches over the
// in-process wire transport, serve-socket over TCP to two exsample_shardd
// processes; the stream is identical.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.h"
#include "query/shard_trace.h"

namespace perfbench {
namespace {

struct Setup {
  std::unique_ptr<datasets::BuiltShardedDataset> data;
  ShardFleet fleet;
  std::unique_ptr<engine::SearchEngine> engine;
  std::unique_ptr<serve::TenantServer> server;
};

common::Status BuildSetup(const RunOptions& options, const ServeStream& stream,
                          bool socket, SpanRecorder* spans, Setup* setup) {
  {
    ScopedSpan span(spans, "datasets.build");
    auto built = datasets::BuiltShardedDataset::Build(
        datasets::DashcamSpec(), kServeShards, stream.dataset_seed, kScale);
    if (!built.ok()) return built.status();
    setup->data = std::make_unique<datasets::BuiltShardedDataset>(std::move(built).value());
  }
  engine::EngineConfig config;
  config.coalesce_detect = true;
  config.transport = engine::TransportKind::kLoopback;
  if (socket) {
    ScopedSpan span(spans, "shardd.start");
    const common::Status started = setup->fleet.Start(
        options.shardd, options.workdir, "dashcam", stream.dataset_seed, kServeShards);
    if (!started.ok()) return started;
    config.transport = engine::TransportKind::kSocket;
    config.socket.hosts = setup->fleet.Hosts();
  }
  ScopedSpan span(spans, "engine.construct");
  setup->engine = std::make_unique<engine::SearchEngine>(
      &setup->data->sharded(), &setup->data->chunking(), &setup->data->truth(), config);
  setup->server = std::make_unique<serve::TenantServer>(setup->engine.get(),
                                                        serve::ServeOptions());
  for (const ServeTenant& tenant : stream.tenants) {
    const auto added = setup->server->AddTenant(tenant.spec);
    if (!added.ok()) return added.status();
  }
  // Lazy transport start-up belongs to set-up: creating the service starts
  // the transport, and one registered-then-cancelled session connects every
  // shard without detecting a frame.
  ScopedSpan warm(spans, "transport.warmup");
  setup->engine->detector_service();
  auto session = setup->engine->CreateSession(stream.queries.front().spec.class_id, 1);
  if (!session.ok()) return session.status();
  session.value()->Cancel();
  return common::Status::OK();
}

// Step observations per host-speed probe: about 1% of a pass.
constexpr uint64_t kProbeSteps = 2048;

struct PassLayers {
  query::DetectorServiceStats service;
  query::TransportStats transport;
  double fill_rate = 0.0;
  std::vector<double> ticket_seconds;
  double rtt_p50 = 0.0, rtt_p90 = 0.0;
};

}  // namespace

WorkloadResult RunServe(const RunOptions& options, bool socket, SpanRecorder* spans) {
  WorkloadResult result;
  Report& report = result.report;
  ServeStream stream = MakeServeStream(options.seed);
  const size_t n = stream.queries.size();
  SpanRecorder off(false);
  // Every query's solo run on a plain local engine, before and outside the
  // timed passes: their simulated seconds fit the arrival span to the scene
  // (offered load kServeLoad for every seed), and their traces are the
  // output check's reference answers.
  std::vector<std::optional<query::QueryTrace>> solo(n);
  {
    auto built = datasets::BuiltDataset::Build(datasets::DashcamSpec(), stream.dataset_seed,
                                               kScale);
    common::CheckOk(built.status(), "dataset build");
    const datasets::BuiltDataset& data = built.value();
    engine::SearchEngine plain(&data.repo(), &data.chunking(), &data.truth());
    SpanRecorder* rec = options.trace ? spans : &off;
    double solo_seconds = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const engine::QuerySpec& spec = stream.queries[i].spec;
      const uint32_t create_span = rec->Begin("engine.create_session", static_cast<int64_t>(i));
      auto session = plain.CreateSession(spec.class_id, spec.limit, spec.options);
      rec->End(create_span);
      if (!session.ok()) continue;
      solo[i] = session.value()->Finish();
      solo_seconds += solo[i]->final.seconds;
    }
    SetServeLoad(solo_seconds, &stream);
  }
  char line[320];
  std::snprintf(line, sizeof(line),
                "workload %s: open loop on the simulated clock, 3 tenants (4/2/1), "
                "%zu queries per pass over %.1f sim s at offered load %.2f, seed %llu, "
                "stream digest %016llx",
                socket ? "serve-socket" : "serve-loopback", n, stream.span_seconds, kServeLoad,
                static_cast<unsigned long long>(options.seed),
                static_cast<unsigned long long>(StreamDigest(stream)));
  report.Note(line);

  // Set-ups are outside the timed passes, so a traced run spans all of them.
  SpanRecorder* setup_rec = options.trace ? spans : &off;
  std::vector<double> setup_seconds, ready_seconds, pass_seconds;
  // Untraced passes, host-scaled: each query's wall, and each pass's wall
  // and CPU (coordinator and shard servers).
  std::vector<std::vector<double>> wall_ms(n);
  std::vector<double> scaled_walls, scaled_cpu, scales;
  std::vector<serve::QueryOutcome> first_pass;
  uint64_t first_digest = 0;
  size_t completed[2] = {0, 0};
  double pass_wall[2] = {0, 0};
  size_t passes = 0;
  // Traced-pass layer inputs.
  std::vector<QueryRecord> records;
  std::vector<double> step_gaps, growth, rss_per_kquery, export_seconds;
  std::vector<PassLayers> layers;
  uint64_t steps = 0;
  long vcs = 0, ivcs = 0;
  int threads_peak = 0;
  double shardd_cpu = 0.0;

  double timed = 0.0;
  // Whole passes until the next one would overrun the budget by more than
  // half a pass.
  double last_pass = 0.0;
  while (passes < 2 || timed + last_pass / 2 < options.seconds) {
    const bool traced = options.trace && passes % 2 == 0;
    SpanRecorder* rec = traced ? spans : &off;
    Setup setup;
    for (int rep = 0; rep < 3; ++rep) {
      setup.server.reset();
      setup.engine.reset();
      setup.fleet.Stop();
      const double t0 = Now();
      const common::Status built = BuildSetup(options, stream, socket, setup_rec, &setup);
      setup_seconds.push_back(Now() - t0);
      if (!built.ok()) {
        report.Fail("set-up: " + built.ToString());
        return result;
      }
      for (const double r : setup.fleet.ready_seconds()) ready_seconds.push_back(r);
    }

    std::vector<QueryRecord> pass_records(n);
    std::vector<double> marks;
    double rss_peak = 0.0;
    uint64_t pass_steps = 0;
    const double rss0 = traced ? CurrentRssMb() : 0.0;
    const uint32_t serve_span = rec->Begin("serve.serve");
    // Each query's first and last step observation on the pass's clock,
    // and the wall and CPU seconds the probes took, kept off that clock.
    std::vector<double> first_obs(n, -1.0), last_obs(n, -1.0), probes;
    double w0 = 0.0, hidden = 0.0, hidden_cpu = 0.0;
    const auto observer = [&](size_t qi, const engine::QuerySession& session, double) {
      const double now = Now();
      ++pass_steps;
      if (!traced) {
        if (first_obs[qi] < 0.0) first_obs[qi] = now - w0 - hidden;
        last_obs[qi] = now - w0 - hidden;
        if (pass_steps % kProbeSteps == 0) {
          const double cpu = ProcessCpuNow();
          probes.push_back(ProbeSeconds());
          hidden_cpu += ProcessCpuNow() - cpu;
          hidden += Now() - now;
        }
        return;
      }
      rec->Mark("serve.step", static_cast<int64_t>(qi), serve_span);
      marks.push_back(now);
      Capture(session, &pass_records[qi]);
      if (pass_steps % 256 == 0) {
        rss_peak = std::max(rss_peak, CurrentRssMb());
        threads_peak = std::max(threads_peak, ThreadCount());
      }
    };

    const Usage u0 = SelfUsage();
    const double shardd0 = setup.fleet.CpuSeconds();
    const double c0 = ProcessCpuNow();
    w0 = Now();
    auto outcomes = setup.server->Serve(stream.queries, observer);
    const double wall = Now() - w0;
    const double cpu = ProcessCpuNow() - c0 - hidden_cpu;
    const Usage u1 = SelfUsage();
    const double shardd1 = setup.fleet.CpuSeconds();
    rec->End(serve_span);
    result.attempted += n;
    pass_wall[traced] += wall - hidden;
    timed += wall;
    last_pass = wall;
    if (!outcomes.ok()) {
      report.Fail("Serve: " + outcomes.status().ToString());
      result.failed += n;
      return result;
    }

    const double scale = traced ? 1.0 : ProbeScale(probes);
    uint64_t digest = 0;
    for (size_t i = 0; i < n; ++i) {
      const serve::QueryOutcome& o = outcomes.value()[i];
      digest = OutcomeDigest(digest, o);
      if (o.kind != serve::OutcomeKind::kCompleted) {
        ++result.failed;
        continue;
      }
      ++completed[traced];
      if (!traced) wall_ms[i].push_back((last_obs[i] - first_obs[i]) * scale * 1000.0);
      if (traced) {
        pass_records[i].method = stream.queries[i].spec.options.method;
        records.push_back(pass_records[i]);
      }
    }
    pass_seconds.push_back(wall - hidden);
    if (!traced) {
      scales.push_back(scale);
      scaled_walls.push_back((wall - hidden) * scale);
      scaled_cpu.push_back((cpu + shardd1 - shardd0) * scale);
    }
    if (passes == 0) {
      first_digest = digest;
      first_pass = outcomes.value();
    } else if (digest != first_digest) {
      report.Fail("pass " + std::to_string(passes) + " answered differently from pass 0");
      ++result.failed;
    }

    if (traced) {
      steps += pass_steps;
      vcs += u1.voluntary_cs - u0.voluntary_cs;
      ivcs += u1.involuntary_cs - u0.involuntary_cs;
      shardd_cpu += shardd1 - shardd0;
      rss_per_kquery.push_back((rss_peak - rss0) / (static_cast<double>(n) / 1000.0));
      // Per-step wall from consecutive step observations; a wave's flush
      // lands on its first step. Growth compares blocks of 64 steps in the
      // stream's last quarter with its first quarter.
      std::vector<double> gaps;
      double prev = w0;
      for (const double m : marks) {
        gaps.push_back(m - prev);
        prev = m;
      }
      step_gaps.insert(step_gaps.end(), gaps.begin(), gaps.end());
      constexpr size_t kBlock = 64;
      std::vector<double> blocks;
      for (size_t b = 0; b + kBlock <= gaps.size(); b += kBlock) {
        double sum = 0.0;
        for (size_t k = b; k < b + kBlock; ++k) sum += gaps[k];
        blocks.push_back(sum / kBlock);
      }
      const size_t quarter = blocks.size() / 4;
      if (quarter > 0) {
        const std::vector<double> head(blocks.begin(), blocks.begin() + quarter);
        const std::vector<double> tail(blocks.end() - quarter, blocks.end());
        growth.push_back(Median(tail) / Median(head));
      }
      PassLayers pl;
      query::DetectorService* service = setup.engine->detector_service();
      pl.service = service->stats();
      pl.fill_rate = service->FillRate();
      pl.ticket_seconds = service->TicketLatencies();
      pl.transport = setup.engine->shard_transport()->Stats();
      const stats::StageTimer& timer = setup.engine->stage_timer();
      pl.rtt_p50 = timer.ApproxQuantileSeconds(stats::Stage::kTransport, 0.5);
      pl.rtt_p90 = timer.ApproxQuantileSeconds(stats::Stage::kTransport, 0.9);
      layers.push_back(pl);
      const double t0 = Now();
      {
        ScopedSpan span(rec, "stats.export");
        const std::string json = setup.engine->StatsJson();
      }
      export_seconds.push_back(Now() - t0);
    }
    ++passes;
  }
  const double peak_rss = PeakRssMb();
  // The percentile rule wants at least 20 set-up timings for a median.
  while (setup_seconds.size() < 21) {
    Setup extra;
    const double t0 = Now();
    if (!BuildSetup(options, stream, socket, setup_rec, &extra).ok()) break;
    for (const double r : extra.fleet.ready_seconds()) ready_seconds.push_back(r);
    setup_seconds.push_back(Now() - t0);
  }

  // Output check, outside the timed phase: every completed query's trace is
  // bit-identical to a solo run of its spec on a plain local engine.
  size_t check_failures = 0, checked = 0;
  for (size_t i = 0; i < first_pass.size(); ++i) {
    if (first_pass[i].kind != serve::OutcomeKind::kCompleted) continue;
    ++checked;
    if (!solo[i] || !query::TracesBitIdentical(first_pass[i].trace, *solo[i])) {
      ++check_failures;
      report.Fail("query " + std::to_string(i) + " differs from its solo run");
    }
  }
  result.failed += check_failures;
  std::snprintf(line, sizeof(line),
                "checks: %zu completed queries compared with solo runs on a plain local "
                "engine, %zu differed",
                checked, check_failures);
  report.Note(line);
  std::string walls;
  for (const double w : pass_seconds) walls += " " + std::to_string(w);
  report.Note("passes: " + std::to_string(passes) + ", wall seconds:" + walls);
  report.Note("failed_share = " +
              std::to_string(static_cast<double>(result.failed) /
                             static_cast<double>(std::max<uint64_t>(1, result.attempted))) +
              " (" + std::to_string(result.failed) + " failed / " +
              std::to_string(result.attempted) + " attempted queries)");

  // Simulated-clock numbers of the first pass (every pass repeats them).
  std::vector<double> sim_s, first_s, queue_wait;
  double busy = 0.0, end = 0.0;
  size_t rejected = 0, shed = 0;
  for (size_t i = 0; i < first_pass.size(); ++i) {
    const serve::QueryOutcome& o = first_pass[i];
    const double arrival = stream.queries[i].arrival_seconds;
    rejected += o.kind == serve::OutcomeKind::kRejected;
    shed += o.kind == serve::OutcomeKind::kShed;
    if (o.admitted_seconds >= 0.0) {
      queue_wait.push_back(o.admitted_seconds - arrival);
      busy += o.finished_seconds - o.admitted_seconds;
    }
    end = std::max(end, o.finished_seconds);
    if (o.kind != serve::OutcomeKind::kCompleted) continue;
    sim_s.push_back(o.finished_seconds - arrival);
    if (o.first_result_seconds >= 0.0) first_s.push_back(o.first_result_seconds - arrival);
  }

  if (!options.trace) {
    // Timings are medians over the run's host-scaled passes (ProbeScale):
    // the rate divides the completed queries by the median pass wall, each
    // query's wall (first to last step observation) is its median pass, and
    // the CPU time is the median pass's, coordinator and shard servers.
    std::string scale_text;
    for (const double scale : scales) scale_text += " x" + std::to_string(scale);
    report.Note("host scale per untraced pass:" + scale_text);
    const double completed_queries = static_cast<double>(sim_s.size());
    const double pass_s = Median(scaled_walls);
    report.Add("queries_per_s", completed_queries / pass_s, scaled_walls.size(),
               std::to_string(sim_s.size()) + " queries / median host-scaled pass " +
                   std::to_string(pass_s) + " s; unscaled " +
                   std::to_string(completed_queries / Median(pass_seconds)) + " 1/s");
    const std::vector<double> query_ms = MedianAcrossPasses(wall_ms);
    report.AddQuantile("query_wall_ms_p50", query_ms, 0.5);
    report.AddQuantile("query_wall_ms_p90", query_ms, 0.9);
    report.AddQuantile("query_sim_s_p50", sim_s, 0.5);
    report.AddQuantile("query_sim_s_p90", sim_s, 0.9);
    report.AddQuantile("first_result_sim_s_p50", first_s, 0.5);
    report.AddRatio("cpu_s_per_query", Median(scaled_cpu), completed_queries,
                    socket ? "coordinator and shard servers" : "coordinator");
    report.Add("peak_rss_mb", peak_rss, 1);
    report.AddQuantile("setup_s", setup_seconds, 0.5);
    report.AddRatio("ok_share", static_cast<double>(result.attempted - result.failed),
                    static_cast<double>(result.attempted));
    return result;
  }

  const double traced_done = static_cast<double>(completed[1]);
  std::vector<double> build_ms = spans->Durations("datasets.build");
  for (double& v : build_ms) v *= 1000.0;
  report.AddQuantile("datasets.build_ms", build_ms, 0.5);
  report.AddQuantile("engine.session_create_us_p50",
                     spans->Durations("engine.create_session"), 0.5, 1e6);
  report.AddQuantile("engine.step_us_p50", step_gaps, 0.5, 1e6);
  report.AddQuantile("engine.step_us_p90", step_gaps, 0.9, 1e6);
  report.AddRatio("engine.steps_per_query", static_cast<double>(steps), traced_done);
  AddStageMetrics(records, &report);
  report.Add("reuse.evictions_per_kframe", 0.0, 0, "reuse is off");
  report.Add("reuse.warm_start_share", 0.0, 0, "reuse is off");
  report.Add("reuse.saved_detector_s_per_query", 0.0, 0, "reuse is off");

  double device_batches = 0, shared = 0, wire_batches = 0, service_frames = 0;
  double bytes = 0, retries = 0, requeues = 0, inferred = 0, late = 0;
  std::vector<double> tickets, fill, rtt50, rtt90;
  for (const PassLayers& pl : layers) {
    device_batches += static_cast<double>(pl.service.device_batches);
    shared += static_cast<double>(pl.service.shared_batches);
    wire_batches += static_cast<double>(pl.service.wire_batches);
    service_frames += static_cast<double>(pl.service.frames);
    retries += static_cast<double>(pl.service.wire_retries);
    requeues += static_cast<double>(pl.service.wire_requeues);
    bytes += static_cast<double>(pl.transport.bytes_sent + pl.transport.bytes_received);
    inferred += static_cast<double>(pl.transport.inferred_failures);
    late += static_cast<double>(pl.transport.late_responses_dropped);
    tickets.insert(tickets.end(), pl.ticket_seconds.begin(), pl.ticket_seconds.end());
    fill.push_back(pl.fill_rate);
    rtt50.push_back(pl.rtt_p50);
    rtt90.push_back(pl.rtt_p90);
  }
  report.Add("query.service.fill_rate", Median(fill), layers.size(),
             "median over traced passes");
  report.AddRatio("query.service.shared_batch_ratio", shared, device_batches);
  report.AddQuantile("query.service.submit_to_grant_ms_p50", tickets, 0.5, 1e3);
  report.AddQuantile("query.service.submit_to_grant_ms_p90", tickets, 0.9, 1e3);
  report.Add("query.transport.rtt_ms_p50", Median(rtt50) * 1e3, layers.size(),
             "stage-timer histogram estimate, median over traced passes");
  report.Add("query.transport.rtt_ms_p90", Median(rtt90) * 1e3, layers.size(),
             "stage-timer histogram estimate, median over traced passes");
  report.AddRatio("query.transport.wire_batches_per_step", wire_batches,
                  static_cast<double>(steps));
  report.AddRatio("query.transport.bytes_per_frame", bytes, service_frames);
  report.Add("query.transport.retries", retries, layers.size());
  report.Add("query.transport.requeues", requeues, layers.size());
  report.Add("query.transport.inferred_failures", inferred, layers.size());
  report.Add("query.transport.late_responses_dropped", late, layers.size());

  report.AddQuantile("serve.queue_wait_sim_s_p90", queue_wait, 0.9);
  report.AddRatio("serve.live_sessions_mean", busy, end);
  report.Add("serve.step_cost_growth", Median(growth), growth.size(),
             "blocks of 64 step observations, median over traced passes");
  report.Add("serve.rss_mb_per_kquery", Median(rss_per_kquery), rss_per_kquery.size());
  report.Add("serve.rejected", static_cast<double>(rejected), n);
  report.Add("serve.shed", static_cast<double>(shed), n);
  if (socket) {
    std::vector<double> ready_ms = ready_seconds;
    for (double& v : ready_ms) v *= 1000.0;
    report.AddQuantile("shardd.ready_ms", ready_ms, 0.5);
    report.AddRatio("shardd.cpu_ms_per_kframe", shardd_cpu * 1000.0, service_frames / 1000.0);
  } else {
    report.Add("shardd.ready_ms", 0.0, 0, "no shard servers on this workload");
    report.Add("shardd.cpu_ms_per_kframe", 0.0, 0, "no shard servers on this workload");
  }
  report.Add("common.threads_peak", threads_peak, steps / 256);
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
