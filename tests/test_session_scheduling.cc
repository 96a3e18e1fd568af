// Cross-session detector coalescing and pluggable session scheduling.
//
// The load-bearing property is the determinism contract: coalescing many
// sessions' frames into shared device batches (query::DetectorService) and
// reordering/weighting step grants (query::SessionScheduler) change
// wall-clock and detector utilization only — every session's trace must stay
// bit-identical to its solo run, for every method, shard count, and
// scheduler. The suite carries the `sched` label (plus `concurrency`: CI
// re-runs it under TSan — the shared-queue flush, parallel per-shard
// dispatch, and service-drained prefetchers are threaded paths).

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/search_engine.h"
#include "query/detector_service.h"
#include "query/scheduler.h"
#include "scene/generator.h"
#include "serve/tenant.h"
#include "serve/tenant_scheduler.h"

namespace exsample {
namespace engine {
namespace {

struct SchedFixture {
  video::VideoRepository repo;
  video::ShardedRepository sharded;
  video::Chunking chunking;
  scene::GroundTruth truth;

  SchedFixture(video::VideoRepository r, video::ShardedRepository s,
               video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)),
        sharded(std::move(s)),
        chunking(std::move(c)),
        truth(std::move(t)) {}

  /// Multi-clip scene with an abundant and a rare class, so concurrent
  /// sessions have genuinely different marginal result rates.
  static std::unique_ptr<SchedFixture> Make(size_t num_shards, uint64_t seed = 5) {
    common::Rng rng(seed);
    const uint64_t frames = 100000;
    auto repo = video::VideoRepository::UniformClips(8, frames / 8);
    auto sharded = video::ShardedRepository::ShardByClips(repo, num_shards).value();
    auto chunking = video::MakeFixedCountChunks(frames, 16).value();
    scene::SceneSpec spec;
    spec.total_frames = frames;
    scene::ClassPopulationSpec lights;
    lights.class_id = 0;
    lights.instance_count = 120;
    lights.duration.mean_frames = 150.0;
    lights.placement = scene::PlacementSpec::NormalCenter(0.25);
    spec.classes.push_back(lights);
    scene::ClassPopulationSpec rare;
    rare.class_id = 1;
    rare.instance_count = 10;
    rare.duration.mean_frames = 80.0;
    spec.classes.push_back(rare);
    auto truth = std::move(scene::GenerateScene(spec, &chunking, rng)).value();
    return std::make_unique<SchedFixture>(std::move(repo), std::move(sharded),
                                          std::move(chunking), std::move(truth));
  }
};

EngineConfig OracleConfig() {
  EngineConfig config;
  config.discriminator = EngineConfig::DiscriminatorKind::kOracle;
  config.detector = detect::DetectorOptions::Perfect(0);
  return config;
}

SearchEngine MakeEngine(SchedFixture& fx, size_t num_shards, EngineConfig config) {
  if (num_shards > 1) {
    return SearchEngine(&fx.sharded, &fx.chunking, &fx.truth, config);
  }
  return SearchEngine(&fx.repo, &fx.chunking, &fx.truth, config);
}

void ExpectSameTrace(const query::QueryTrace& a, const query::QueryTrace& b,
                     const std::string& what) {
  EXPECT_TRUE(query::TracesBitIdentical(a, b)) << what;
  EXPECT_EQ(a.final.samples, b.final.samples) << what;
  EXPECT_EQ(a.final.seconds, b.final.seconds) << what;
  EXPECT_EQ(a.final.reported_results, b.final.reported_results) << what;
  EXPECT_EQ(a.final.true_distinct, b.final.true_distinct) << what;
}

constexpr Method kAllMethods[] = {
    Method::kExSample, Method::kExSampleAdaptive, Method::kRandom,
    Method::kRandomPlus, Method::kSequential,     Method::kProxyGuided,
    Method::kHybrid};

// --- Bit-identity: coalescing vs per-session batching -----------------------

class CoalescingEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CoalescingEquivalenceTest, AllMethodsMatchSoloRuns) {
  const size_t num_shards = GetParam();
  auto fx = SchedFixture::Make(num_shards);

  EngineConfig coalesced_config = OracleConfig();
  coalesced_config.num_threads = 2;
  coalesced_config.coalesce_detect = true;
  coalesced_config.device_batch = 16;  // Smaller than 7 sessions x batch 4:
                                       // every flush slices and shares.
  SearchEngine coalesced = MakeEngine(*fx, num_shards, coalesced_config);
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  std::vector<QuerySpec> specs;
  for (const Method method : kAllMethods) {
    QuerySpec spec;
    spec.class_id = 0;
    spec.limit = 12;
    spec.options.method = method;
    spec.options.batch_size = 4;
    specs.push_back(spec);
  }

  auto concurrent = coalesced.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_EQ(concurrent.value().size(), specs.size());
  ASSERT_NE(coalesced.detector_service(), nullptr);
  EXPECT_GT(coalesced.detector_service()->stats().shared_batches, 0u);

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("coalesced vs solo: ") +
                        MethodName(specs[i].options.method) + " at " +
                        std::to_string(num_shards) + " shards");
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, CoalescingEquivalenceTest,
                         ::testing::Values(1, 2, 5),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "shards_" + std::to_string(info.param);
                         });

// --- Bit-identity and determinism across schedulers -------------------------

TEST(SessionSchedulingTest, EverySchedulerPreservesTraces) {
  auto fx = SchedFixture::Make(/*num_shards=*/3);
  SearchEngine reference = MakeEngine(*fx, 3, OracleConfig());

  std::vector<QuerySpec> specs;
  const Method methods[] = {Method::kExSample, Method::kRandomPlus,
                            Method::kSequential, Method::kHybrid};
  double deadline = 40.0;
  for (const Method method : methods) {
    QuerySpec spec;
    spec.class_id = 0;
    spec.limit = 10;
    spec.options.method = method;
    spec.options.batch_size = 4;
    spec.deadline_seconds = deadline;  // Distinct slacks for the deadline kind.
    deadline *= 2.0;
    specs.push_back(spec);
  }
  std::vector<query::QueryTrace> solo;
  for (const QuerySpec& spec : specs) {
    auto trace = reference.FindDistinct(spec.class_id, spec.limit, spec.options);
    ASSERT_TRUE(trace.ok());
    solo.push_back(std::move(trace).value());
  }

  for (const query::SchedulerKind kind :
       {query::SchedulerKind::kFair, query::SchedulerKind::kPriority,
        query::SchedulerKind::kDeadline}) {
    EngineConfig config = OracleConfig();
    config.coalesce_detect = true;
    config.device_batch = 8;
    config.scheduler = kind;
    SearchEngine engine = MakeEngine(*fx, 3, config);
    auto traces = engine.RunConcurrent(specs);
    ASSERT_TRUE(traces.ok()) << query::SchedulerKindName(kind);
    for (size_t i = 0; i < specs.size(); ++i) {
      ExpectSameTrace(solo[i], traces.value()[i],
                      std::string(query::SchedulerKindName(kind)) + " session " +
                          std::to_string(i));
    }
  }
}

TEST(SessionSchedulingTest, PrioritySchedulingIsDeterministicUnderFixedSeed) {
  auto fx = SchedFixture::Make(/*num_shards=*/2);
  std::vector<QuerySpec> specs;
  for (int i = 0; i < 3; ++i) {
    QuerySpec spec;
    spec.class_id = i == 2 ? 1 : 0;  // One rare-class session: skewed rates.
    spec.limit = 6;
    spec.options.batch_size = 4;
    specs.push_back(spec);
  }

  auto run_once = [&]() {
    EngineConfig config = OracleConfig();
    config.coalesce_detect = true;
    config.scheduler = query::SchedulerKind::kPriority;
    config.scheduler_seed = 99;
    SearchEngine engine = MakeEngine(*fx, 2, config);
    auto traces = engine.RunConcurrent(specs);
    EXPECT_TRUE(traces.ok());
    return std::move(traces).value();
  };
  const std::vector<query::QueryTrace> first = run_once();
  const std::vector<query::QueryTrace> second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectSameTrace(first[i], second[i], "rerun session " + std::to_string(i));
  }
}

// --- Threaded configuration under TSan ---------------------------------------
//
// The heaviest shared-state configuration in one run: coalesced service
// over 3 shards, prefetchers drained by the service, decode tasks and detect
// fan-out sharing the engine's one pool — the paths the TSan CI job
// watches.

TEST(SessionSchedulingTest, ThreadedCoalescedDecodeWorkloadMatchesSolo) {
  auto fx = SchedFixture::Make(/*num_shards=*/3);
  EngineConfig config = OracleConfig();
  config.coalesce_detect = true;
  config.device_batch = 16;
  config.num_threads = 3;  // Detect fan-out and decode tasks share it.
  config.simulate_decode = true;
  config.prefetch_depth = 2;  // Service-drained decode-ahead.
  config.scheduler = query::SchedulerKind::kPriority;
  SearchEngine engine = MakeEngine(*fx, 3, config);

  EngineConfig solo_config = config;
  solo_config.coalesce_detect = false;
  solo_config.scheduler = query::SchedulerKind::kFair;
  SearchEngine reference = MakeEngine(*fx, 3, solo_config);

  std::vector<QuerySpec> specs;
  for (const Method method :
       {Method::kExSample, Method::kRandom, Method::kRandomPlus}) {
    QuerySpec spec;
    spec.class_id = 0;
    spec.limit = 8;
    spec.options.method = method;
    spec.options.batch_size = 6;
    specs.push_back(spec);
  }
  auto traces = engine.RunConcurrent(specs);
  ASSERT_TRUE(traces.ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), traces.value()[i],
                    "threaded coalesced session " + std::to_string(i));
  }
}

// --- Observability -----------------------------------------------------------

TEST(SessionSchedulingTest, SchedulerStatsMirrorCoalescedWork) {
  auto fx = SchedFixture::Make(/*num_shards=*/2);
  EngineConfig config = OracleConfig();
  config.coalesce_detect = true;
  config.device_batch = 32;
  SearchEngine engine = MakeEngine(*fx, 2, config);
  query::DetectorService* service = engine.detector_service();
  ASSERT_NE(service, nullptr);

  QueryOptions options;
  options.batch_size = 8;
  auto a = engine.CreateSession(0, 10, options);
  auto b = engine.CreateSession(0, 10, options);
  ASSERT_TRUE(a.ok() && b.ok());

  // Drive the two sessions in waves by hand (what RunConcurrent does) so the
  // live sessions' stats stay inspectable.
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<QuerySession*> wave;
    for (QuerySession* session : {a.value().get(), b.value().get()}) {
      if (!session->Done() && session->BeginStep()) wave.push_back(session);
    }
    if (!wave.empty()) progress = true;
    service->Flush();
    for (QuerySession* session : wave) session->FinishStep();
  }

  for (QuerySession* session : {a.value().get(), b.value().get()}) {
    const query::SessionSchedulerStats& stats = session->scheduler_stats();
    EXPECT_GT(stats.steps_granted, 0u);
    EXPECT_EQ(stats.frames_submitted, session->Trace().final.samples);
    EXPECT_GT(stats.device_batches, 0u);
    // Both sessions stepped in lockstep: their batches were shared.
    EXPECT_GT(stats.batches_shared, 0u);
    EXPECT_GT(stats.frames_coalesced, 0u);
    EXPECT_LE(stats.frames_coalesced, stats.frames_submitted);
    // Sharded observability reads the same as the dispatcher-executed path.
    uint64_t dispatcher_frames = 0;
    ASSERT_NE(session->shard_dispatcher(), nullptr);
    for (const query::ShardStats& shard : session->shard_dispatcher()->Stats()) {
      dispatcher_frames += shard.frames_detected;
    }
    EXPECT_EQ(dispatcher_frames, session->Trace().final.samples);
  }
  EXPECT_GT(service->stats().shared_batches, 0u);
  EXPECT_GT(service->FillRate(), 0.0);
  EXPECT_LE(service->FillRate(), 1.0);
}

TEST(SessionSchedulingTest, FillRateImprovesWithSessionCount) {
  auto fx = SchedFixture::Make(/*num_shards=*/1);
  auto fill_with_sessions = [&](size_t n) {
    EngineConfig config = OracleConfig();
    config.coalesce_detect = true;
    config.device_batch = 32;
    SearchEngine engine = MakeEngine(*fx, 1, config);
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < n; ++i) {
      QuerySpec spec;
      spec.class_id = 0;
      spec.limit = 1000000;  // Bound by samples, so all sessions run in step.
      spec.options.batch_size = 8;
      spec.options.max_samples = 64;
      spec.options.exsample.seed = 7 + i;
      specs.push_back(spec);
    }
    EXPECT_TRUE(engine.RunConcurrent(specs).ok());
    return engine.detector_service()->FillRate();
  };
  const double fill1 = fill_with_sessions(1);
  const double fill2 = fill_with_sessions(2);
  const double fill4 = fill_with_sessions(4);
  EXPECT_GT(fill2, fill1);
  EXPECT_GT(fill4, fill2);
  EXPECT_DOUBLE_EQ(fill1, 8.0 / 32.0);   // Alone: one under-filled batch per step.
  EXPECT_DOUBLE_EQ(fill4, 32.0 / 32.0);  // Four sessions fill the device batch.
}

// --- DetectorService unit behavior -------------------------------------------

TEST(DetectorServiceTest, SlicesQueueAndRoutesResultsPerRequest) {
  auto fx = SchedFixture::Make(1);
  detect::SimulatedDetector det_a(&fx->truth, detect::DetectorOptions::Perfect(0));
  detect::SimulatedDetector det_b(&fx->truth, detect::DetectorOptions::Perfect(0));

  // Each session runs over its own one-shard dispatcher.
  query::ShardDispatcher dispatcher_a(nullptr, {query::ShardContext{&det_a, nullptr}});
  query::ShardDispatcher dispatcher_b(nullptr, {query::ShardContext{&det_b, nullptr}});

  query::DetectorServiceOptions options;
  options.device_batch = 4;
  query::DetectorService service(options);

  const std::vector<video::FrameId> frames_a = {10, 2000, 30000};
  const std::vector<video::FrameId> frames_b = {11, 2001, 30001, 40001, 50001};
  const std::vector<uint32_t> shards_a(frames_a.size(), 0);
  const std::vector<uint32_t> shards_b(frames_b.size(), 0);
  query::SessionSchedulerStats stats_a, stats_b;

  query::DetectorService::DetectRequest request_a;
  request_a.session_id = 1;
  request_a.frames = common::Span<const video::FrameId>(frames_a.data(), frames_a.size());
  request_a.shards = shards_a;
  request_a.dispatcher = &dispatcher_a;
  request_a.session_stats = &stats_a;
  query::DetectorService::DetectRequest request_b = request_a;
  request_b.session_id = 2;
  request_b.frames = common::Span<const video::FrameId>(frames_b.data(), frames_b.size());
  request_b.shards = shards_b;
  request_b.dispatcher = &dispatcher_b;
  request_b.session_stats = &stats_b;

  const auto ticket_a = service.Submit(request_a);
  const auto ticket_b = service.Submit(request_b);
  EXPECT_EQ(service.PendingFrames(), 8u);
  EXPECT_FALSE(service.Ready(ticket_a));

  service.Flush();
  EXPECT_EQ(service.PendingFrames(), 0u);
  ASSERT_TRUE(service.Ready(ticket_a) && service.Ready(ticket_b));

  // 8 queued frames, device batch 4: two slices; the first mixes sessions.
  EXPECT_EQ(service.stats().device_batches, 2u);
  EXPECT_EQ(service.stats().shared_batches, 1u);
  EXPECT_EQ(service.stats().frames, 8u);
  EXPECT_DOUBLE_EQ(service.FillRate(), 1.0);
  EXPECT_EQ(stats_a.frames_submitted, 3u);
  EXPECT_EQ(stats_a.frames_coalesced, 3u);  // All of A ran in the shared slice.
  EXPECT_EQ(stats_b.frames_coalesced, 1u);  // Only B's first frame did.
  EXPECT_EQ(stats_b.device_batches, 2u);
  EXPECT_EQ(stats_b.batches_shared, 1u);

  // Results match direct detection, per frame, per session's own detector.
  const auto results_a = service.Take(ticket_a);
  const auto results_b = service.Take(ticket_b);
  EXPECT_FALSE(service.Ready(ticket_a));
  ASSERT_EQ(results_a.size(), frames_a.size());
  ASSERT_EQ(results_b.size(), frames_b.size());
  for (size_t i = 0; i < frames_a.size(); ++i) {
    EXPECT_EQ(results_a[i].size(), det_a.Detect(frames_a[i]).size());
  }
  for (size_t i = 0; i < frames_b.size(); ++i) {
    EXPECT_EQ(results_b[i].size(), det_b.Detect(frames_b[i]).size());
  }
}

// --- Scheduler unit behavior -------------------------------------------------

TEST(SchedulerTest, FairStepsEveryLiveSessionOnceInOrder) {
  query::FairScheduler scheduler;
  std::vector<query::SessionSchedulerInfo> infos(4);
  infos[2].done = true;
  std::vector<size_t> order;
  scheduler.PlanRound(
      common::Span<const query::SessionSchedulerInfo>(infos.data(), infos.size()),
      &order);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 3}));
}

TEST(SchedulerTest, PriorityFavorsHighRateButNeverStarves) {
  query::SessionSchedulerOptions options;
  options.seed = 5;
  options.starvation_rounds = 3;
  query::PriorityScheduler scheduler(options);

  std::vector<query::SessionSchedulerInfo> infos(3);
  // Session 0: high observed rate. Session 1: has results, but at a far lower
  // rate. Session 2: hot but done. All past cold start (steps > 0).
  infos[0].steps = 10;
  infos[0].reported_results = 50;
  infos[0].seconds = 1.0;
  infos[1].steps = 10;
  infos[1].reported_results = 1;
  infos[1].seconds = 100.0;
  infos[2].steps = 10;
  infos[2].reported_results = 500;
  infos[2].seconds = 1.0;
  infos[2].done = true;

  size_t grants_0 = 0, grants_1 = 0;
  uint64_t rounds_since_1 = 0, max_wait_1 = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<size_t> order;
    scheduler.PlanRound(
        common::Span<const query::SessionSchedulerInfo>(infos.data(), infos.size()),
        &order);
    EXPECT_EQ(order.size(), 2u);  // One grant per live session per round.
    bool granted_1 = false;
    for (const size_t idx : order) {
      EXPECT_NE(idx, 2u);  // Done sessions are never scheduled.
      if (idx == 0) ++grants_0;
      if (idx == 1) {
        ++grants_1;
        granted_1 = true;
      }
    }
    rounds_since_1 = granted_1 ? 0 : rounds_since_1 + 1;
    max_wait_1 = std::max(max_wait_1, rounds_since_1);
  }
  EXPECT_GT(grants_0, grants_1);  // Rate priority is real...
  EXPECT_GT(grants_1, 0u);        // ...but no one starves,
  EXPECT_LE(max_wait_1, options.starvation_rounds);  // within the bound.
}

TEST(SchedulerTest, PriorityExploresColdSessionsThenFavorsFirstResults) {
  query::PriorityScheduler scheduler(query::SessionSchedulerOptions{});
  {
    // Never-stepped sessions are granted once each, in index order — the
    // first round of a workload is exploratory, like the fair baseline's.
    std::vector<query::SessionSchedulerInfo> infos(2);
    std::vector<size_t> order;
    scheduler.PlanRound(
        common::Span<const query::SessionSchedulerInfo>(infos.data(), infos.size()),
        &order);
    EXPECT_EQ(order, (std::vector<size_t>{0, 1}));
  }
  {
    // A session still waiting for its first result outranks even a
    // high-rate session that is already reporting.
    std::vector<query::SessionSchedulerInfo> infos(2);
    infos[0].steps = 5;
    infos[0].reported_results = 100;
    infos[0].seconds = 1.0;
    infos[1].steps = 5;
    infos[1].reported_results = 0;
    infos[1].seconds = 50.0;
    std::vector<size_t> order;
    scheduler.PlanRound(
        common::Span<const query::SessionSchedulerInfo>(infos.data(), infos.size()),
        &order);
    EXPECT_EQ(order, (std::vector<size_t>{1, 1}));
  }
}

TEST(SchedulerTest, DeadlineOrdersBySlackThenIndex) {
  query::DeadlineScheduler scheduler;
  std::vector<query::SessionSchedulerInfo> infos(4);
  infos[0].deadline_seconds = 100.0;  // Slack 100.
  infos[1].deadline_seconds = 0.0;    // No deadline: after all holders.
  infos[2].deadline_seconds = 50.0;
  infos[2].seconds = 45.0;  // Slack 5: most urgent.
  infos[3].deadline_seconds = 60.0;
  infos[3].seconds = 30.0;  // Slack 30.
  std::vector<size_t> order;
  scheduler.PlanRound(
      common::Span<const query::SessionSchedulerInfo>(infos.data(), infos.size()),
      &order);
  EXPECT_EQ(order, (std::vector<size_t>{2, 3, 0, 1}));
}

TEST(SchedulerTest, PriorityStarvationBoundHoldsUnderTenantSkew) {
  // Tenant-skewed two-level scheduling: one tenant holds 90% of the sessions
  // (9 of 10), with the priority scheduler ordering sessions inside each
  // tenant. The inner starvation guard places overdue sessions at the front
  // of the tenant's plan, and the weighted-fair pick consumes plans from the
  // front — so every session must keep making progress even when its tenant's
  // per-round grant share is a fraction of its session count. The bound is
  // the inner `starvation_rounds` plus one round of slack for the weighted
  // pick's prefix consumption (a tenant's last plan entry can slip a round
  // when the WFQ share jitters by one grant).
  serve::TenantRegistry registry;
  serve::TenantSpec big;
  big.id = "big";
  big.weight = 9.0;
  serve::TenantSpec small;
  small.id = "small";
  small.weight = 1.0;
  const size_t big_t = registry.Register(big).value();
  const size_t small_t = registry.Register(small).value();

  serve::WeightedTenantSchedulerOptions options;
  options.inner = query::SchedulerKind::kPriority;
  options.inner_options.seed = 7;
  options.inner_options.starvation_rounds = 4;
  serve::WeightedTenantScheduler scheduler(&registry, options);

  std::vector<query::SessionSchedulerInfo> infos(10);
  std::vector<size_t> session_tenant(10, big_t);
  session_tenant[9] = small_t;
  for (size_t i = 0; i < infos.size(); ++i) {
    scheduler.BindSession(i, session_tenant[i]);
    // Skewed observed rates, so the priority tiers are real: session i
    // reports ~10-i results per unit time.
    infos[i].steps = 1;
    infos[i].seconds = 1.0;
    infos[i].reported_results = 10 - i;
  }

  std::vector<uint64_t> waited(infos.size(), 0);
  uint64_t max_wait = 0;
  for (int round = 0; round < 120; ++round) {
    std::vector<size_t> order;
    scheduler.PlanRound(common::Span<const query::SessionSchedulerInfo>(
                            infos.data(), infos.size()),
                        &order);
    ASSERT_FALSE(order.empty());
    std::vector<bool> granted(infos.size(), false);
    for (const size_t idx : order) {
      granted[idx] = true;
      infos[idx].steps += 1;
      infos[idx].seconds += 1.0;
      registry.ChargeStep(session_tenant[idx], 1.0, 1);
    }
    for (size_t i = 0; i < infos.size(); ++i) {
      waited[i] = granted[i] ? 0 : waited[i] + 1;
      max_wait = std::max(max_wait, waited[i]);
    }
  }
  for (size_t i = 0; i < infos.size(); ++i) {
    EXPECT_GT(infos[i].steps, 1u) << "session " << i << " never progressed";
  }
  EXPECT_LE(max_wait, options.inner_options.starvation_rounds + 1);
}

TEST(SchedulerTest, PriorityStateFollowsDepartingSessions) {
  // Two drivers of the same priority scheduler must plan identically:
  // RunConcurrent's, which keeps every session in the span and flags the
  // finished ones `done`, and the serving layer's, which plans over the live
  // sessions only and announces each departure through RemoveSession.
  // Sessions finish in a scattered order, so every departure shifts
  // survivors whose starvation counters are mid-count — a counter left
  // behind at its old index would move a starvation grant.
  query::SessionSchedulerOptions options;
  options.seed = 31;
  options.starvation_rounds = 2;
  query::PriorityScheduler full(options);
  query::PriorityScheduler compact(options);

  constexpr size_t kSessions = 12;
  std::vector<query::SessionSchedulerInfo> infos(kSessions);
  std::vector<size_t> live(kSessions);  // Global index of each live position.
  for (size_t i = 0; i < kSessions; ++i) live[i] = i;
  // Session finish_order[k] finishes after round 3 + 2k.
  const std::vector<size_t> finish_order = {7, 2, 11, 0, 5, 9, 3, 10, 1, 6};

  size_t skipped = 0;  // Rounds a live session went without a grant.
  for (size_t round = 0; round < 3 + 2 * finish_order.size(); ++round) {
    std::vector<size_t> full_order;
    full.PlanRound(common::Span<const query::SessionSchedulerInfo>(
                       infos.data(), infos.size()),
                   &full_order);
    std::vector<query::SessionSchedulerInfo> live_infos;
    for (const size_t global : live) live_infos.push_back(infos[global]);
    std::vector<size_t> positions;
    compact.PlanRound(common::Span<const query::SessionSchedulerInfo>(
                          live_infos.data(), live_infos.size()),
                      &positions);
    std::vector<size_t> compact_order;
    for (const size_t pos : positions) compact_order.push_back(live[pos]);
    ASSERT_EQ(full_order, compact_order) << "round " << round;

    // Skewed yields: low-index sessions report often, high-index ones
    // rarely, so the rate tiers hand grants unevenly and the starvation
    // guard has real work.
    std::vector<bool> granted(kSessions, false);
    for (const size_t idx : full_order) {
      granted[idx] = true;
      infos[idx].steps += 1;
      infos[idx].seconds += 0.5;
      if (infos[idx].steps % (1 + idx) == 0) infos[idx].reported_results += 1;
    }
    for (const size_t global : live) {
      if (!granted[global]) ++skipped;
    }

    if (round >= 3 && (round - 3) % 2 == 0) {
      const size_t leaving = finish_order[(round - 3) / 2];
      infos[leaving].done = true;
      const auto it = std::find(live.begin(), live.end(), leaving);
      ASSERT_NE(it, live.end());
      compact.RemoveSession(static_cast<size_t>(it - live.begin()));
      live.erase(it);
    }
  }
  // The rounds really skipped sessions, so the counters were in play.
  EXPECT_GT(skipped, 0u);
}

TEST(SchedulerTest, KindNamesRoundTrip) {
  for (const query::SchedulerKind kind :
       {query::SchedulerKind::kFair, query::SchedulerKind::kPriority,
        query::SchedulerKind::kDeadline}) {
    const auto parsed = query::ParseSchedulerKind(query::SchedulerKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
    EXPECT_STREQ(query::MakeSessionScheduler(kind)->name(),
                 query::SchedulerKindName(kind));
  }
  EXPECT_FALSE(query::ParseSchedulerKind("round-robin").has_value());
}

}  // namespace
}  // namespace engine
}  // namespace exsample
