// Distributed shard transport suite (`dist` + `concurrency` labels).
//
// The load-bearing property: moving the shared detect stage behind a
// transport — wire-serialized batches, per-shard runner threads, reordered
// completions, injected latency and failures, retry + requeue onto surviving
// shards — changes wall-clock and wire traffic only. Every session's trace
// must stay bit-identical to its solo in-process run, for every method,
// shard count, and flush policy; and a fleet that dies past recovery must
// surface a non-OK Status from RunConcurrent instead of spinning or
// returning truncated traces. CI re-runs the suite under ASan and TSan (the
// runner threads, byte queues, and latency-aware flushes are threaded
// paths).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <set>
#include <thread>

#include "engine/search_engine.h"
#include "query/detector_service.h"
#include "query/socket_transport.h"
#include "query/transport.h"
#include "query/wire.h"
#include "scene/generator.h"
#include "testutil/shardd_harness.h"

namespace exsample {
namespace engine {
namespace {

struct DistFixture {
  video::VideoRepository repo;
  video::ShardedRepository sharded;
  video::Chunking chunking;
  scene::GroundTruth truth;

  DistFixture(video::VideoRepository r, video::ShardedRepository s,
              video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)),
        sharded(std::move(s)),
        chunking(std::move(c)),
        truth(std::move(t)) {}

  static std::unique_ptr<DistFixture> Make(size_t num_shards, uint64_t seed = 5) {
    common::Rng rng(seed);
    const uint64_t frames = 80000;
    auto repo = video::VideoRepository::UniformClips(8, frames / 8);
    auto sharded = video::ShardedRepository::ShardByClips(repo, num_shards).value();
    auto chunking = video::MakeFixedCountChunks(frames, 16).value();
    scene::SceneSpec spec;
    spec.total_frames = frames;
    scene::ClassPopulationSpec abundant;
    abundant.class_id = 0;
    abundant.instance_count = 100;
    abundant.duration.mean_frames = 150.0;
    abundant.placement = scene::PlacementSpec::NormalCenter(0.3);
    spec.classes.push_back(abundant);
    scene::ClassPopulationSpec rare;
    rare.class_id = 1;
    rare.instance_count = 8;
    rare.duration.mean_frames = 80.0;
    spec.classes.push_back(rare);
    auto truth = std::move(scene::GenerateScene(spec, &chunking, rng)).value();
    return std::make_unique<DistFixture>(std::move(repo), std::move(sharded),
                                         std::move(chunking), std::move(truth));
  }
};

EngineConfig OracleConfig() {
  EngineConfig config;
  config.discriminator = EngineConfig::DiscriminatorKind::kOracle;
  config.detector = detect::DetectorOptions::Perfect(0);
  return config;
}

SearchEngine MakeEngine(DistFixture& fx, size_t num_shards, EngineConfig config) {
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

std::vector<QuerySpec> AllMethodSpecs(uint64_t limit) {
  std::vector<QuerySpec> specs;
  for (const Method method : kAllMethods) {
    QuerySpec spec;
    spec.class_id = 0;
    spec.limit = limit;
    spec.options.method = method;
    spec.options.batch_size = 4;
    specs.push_back(spec);
  }
  return specs;
}

/// Loopback engine config with everything hostile turned on: wire latency,
/// completion reordering, a latency-aware flush deadline, and (optionally)
/// transient failures forcing retries.
EngineConfig LoopbackConfig(double failure_rate = 0.0) {
  EngineConfig config = OracleConfig();
  config.num_threads = 2;
  config.coalesce_detect = true;
  config.device_batch = 16;
  config.transport = TransportKind::kLoopback;
  config.flush_deadline_seconds = 0.0005;
  config.loopback.latency_seconds = 0.00005;
  config.loopback.reorder_jitter_seconds = 0.0002;
  config.loopback.failure_rate = failure_rate;
  return config;
}

// --- Bit-identity: loopback transport vs solo in-process runs ---------------

class LoopbackEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LoopbackEquivalenceTest, AllMethodsMatchSoloRuns) {
  const size_t num_shards = GetParam();
  auto fx = DistFixture::Make(num_shards);

  SearchEngine loopback =
      MakeEngine(*fx, num_shards, LoopbackConfig(/*failure_rate=*/0.05));
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  auto concurrent = loopback.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_EQ(concurrent.value().size(), specs.size());

  // The wire path really ran: batches crossed as serialized bytes, and the
  // transient failure injection exercised retries.
  ASSERT_NE(loopback.shard_transport(), nullptr);
  const query::TransportStats wire = loopback.shard_transport()->Stats();
  EXPECT_GT(wire.requests, 0u);
  EXPECT_GT(wire.bytes_sent, 0u);
  EXPECT_GT(wire.bytes_received, 0u);
  const query::DetectorServiceStats& stats = loopback.detector_service()->stats();
  // Send accounting is exact: every transport send is a first send
  // (wire_batches, including proactive reroutes), a retry resend, or a
  // failure-driven requeue resend.
  EXPECT_EQ(wire.requests,
            stats.wire_batches + stats.wire_retries + stats.wire_requeues);
  EXPECT_GT(stats.wire_retries, 0u);
  EXPECT_GT(stats.wire_charged_seconds, 0.0);
  // Sessions withdraw their wire registrations when they die (the directory
  // holds raw detector pointers): after the workload the directory is empty.
  EXPECT_EQ(loopback.detector_service()->directory().NumSessions(), 0u);
  EXPECT_TRUE(loopback.detector_service()->transport_status().ok());

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("loopback vs solo: ") +
                        MethodName(specs[i].options.method) + " at " +
                        std::to_string(num_shards) + " shards");
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, LoopbackEquivalenceTest,
                         ::testing::Values(1, 2, 5),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "shards_" + std::to_string(info.param);
                         });

// --- Single-shard failure with requeue --------------------------------------

TEST(DistTransportTest, ShardFailureRequeuesAndPreservesTraces) {
  const size_t num_shards = 5;
  auto fx = DistFixture::Make(num_shards);

  EngineConfig config = LoopbackConfig();
  config.transport_max_retries = 1;
  config.loopback.fail_shard = 2;       // Dies mid-workload...
  config.loopback.fail_after_requests = 3;  // ...after serving 3 batches.
  SearchEngine failing = MakeEngine(*fx, num_shards, config);
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  auto concurrent = failing.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();

  // The failure actually happened and was recovered from: the dead runner's
  // batches exhausted their retries and requeued onto survivors — with
  // `origin_shard` (and therefore detections and charged seconds) unchanged.
  const query::DetectorServiceStats& stats = failing.detector_service()->stats();
  EXPECT_GE(stats.wire_retries, 1u);
  EXPECT_GE(stats.wire_requeues, 1u);
  EXPECT_EQ(stats.shards_down, 1u);
  EXPECT_TRUE(failing.detector_service()->transport_status().ok());

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("failed-shard requeue: ") +
                        MethodName(specs[i].options.method));
  }
}

TEST(DistTransportTest, RequeuedBatchesGetAFreshRetryBudgetOnTheSurvivor) {
  // Regression: a batch requeued off a dead shard used to carry its
  // exhausted attempt counter to the surviving runner, so the survivor's
  // *first* transient failure marked it permanently down — one blip away
  // from a spurious whole-fleet failure. With a per-runner budget the
  // survivor absorbs transients like any healthy shard and the workload
  // completes.
  const size_t num_shards = 2;
  auto fx = DistFixture::Make(num_shards);

  // A hostile survivor: transient failures land on requeued and rerouted
  // batches alike, and the deep per-runner budget absorbs them (exhaustion
  // would need 9 consecutive deterministic-coin failures on one batch).
  // The scripted-transport test below pins the budget-reset semantics
  // exactly; this one proves the full engine path survives the combination.
  EngineConfig config = LoopbackConfig(/*failure_rate=*/0.5);
  config.transport_max_retries = 8;
  config.loopback.fail_shard = 0;          // Dead on arrival: every batch
  config.loopback.fail_after_requests = 0; // to shard 0 must requeue.
  SearchEngine engine = MakeEngine(*fx, num_shards, config);
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  auto concurrent = engine.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();

  const query::DetectorServiceStats& stats = engine.detector_service()->stats();
  EXPECT_EQ(stats.shards_down, 1u) << "only the dead shard may be marked down";
  EXPECT_GT(stats.wire_requeues, 0u);
  EXPECT_GT(stats.wire_retries, 0u);  // Transients on the survivor retried.
  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("requeue with fresh budget: ") +
                        MethodName(specs[i].options.method));
  }
}

// --- Permanent failure surfaces a Status ------------------------------------

TEST(DistTransportTest, AllRunnersDownSurfacesStatusFromRunConcurrent) {
  auto fx = DistFixture::Make(/*num_shards=*/1);

  EngineConfig config = LoopbackConfig();
  config.transport_max_retries = 1;
  config.loopback.fail_shard = 0;  // The only runner: nothing survives.
  config.loopback.fail_after_requests = 2;
  SearchEngine engine = MakeEngine(*fx, 1, config);

  std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  size_t observed_steps = 0;
  auto result = engine.RunConcurrent(
      specs, [&](size_t, const QuerySession&) { ++observed_steps; });
  ASSERT_FALSE(result.ok()) << "a dead fleet must not return traces";
  EXPECT_EQ(result.status().code(), common::StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("shard runner"), std::string::npos)
      << result.status().ToString();
  // The service is sticky-failed with nothing left pending (no dangling
  // spans into the destroyed sessions).
  EXPECT_FALSE(engine.detector_service()->transport_status().ok());
  EXPECT_EQ(engine.detector_service()->PendingFrames(), 0u);
  EXPECT_GT(observed_steps, 0u);  // The workload made progress before dying.
  // Every session was aborted, none finished: each still retired its counter
  // slab (only the service's remains) and published its stage timer.
  EXPECT_EQ(engine.counter_registry()->NumSlabs(), 1u);
  EXPECT_GE(engine.stage_timer().Count(stats::Stage::kPick), observed_steps);
}

TEST(DistTransportTest, DeadFleetFailsSoloQueriesWithAStatus) {
  // Solo queries and stepped sessions run through the engine's service too:
  // a fleet that dies mid-query must come back as a non-OK Status, never
  // abort the process.
  auto fx = DistFixture::Make(/*num_shards=*/1);
  EngineConfig config = OracleConfig();
  config.transport = TransportKind::kLoopback;
  config.transport_max_retries = 1;
  config.loopback.fail_shard = 0;  // The only runner: nothing survives.
  config.loopback.fail_after_requests = 3;
  config.reuse.warm_start = true;  // A failed query must bank no beliefs.

  SearchEngine engine = MakeEngine(*fx, 1, config);
  auto found = engine.FindDistinct(/*class_id=*/0, /*limit=*/50);
  ASSERT_FALSE(found.ok()) << "a dead fleet must not return a trace";
  EXPECT_EQ(found.status().code(), common::StatusCode::kInternal);
  EXPECT_NE(found.status().message().find("shard runner"), std::string::npos)
      << found.status().ToString();

  SearchEngine stepped_engine = MakeEngine(*fx, 1, config);
  auto session = stepped_engine.CreateSession(/*class_id=*/0, /*limit=*/50);
  ASSERT_TRUE(session.ok());
  size_t steps = 0;
  while (session.value()->Step()) ++steps;
  EXPECT_TRUE(session.value()->Done());
  EXPECT_EQ(steps, config.loopback.fail_after_requests);
  EXPECT_EQ(session.value()->status().code(), found.status().code());
  EXPECT_EQ(session.value()->status().message(), found.status().message());
  EXPECT_EQ(session.value()->Trace().final.samples, steps);
  // Finish hands back the truncated trace; the status says why it stopped.
  EXPECT_EQ(session.value()->Finish().final.samples, steps);
  EXPECT_FALSE(session.value()->status().ok());
  EXPECT_EQ(stepped_engine.reuse_manager()->beliefs().Stats().posteriors_recorded, 0u);
}

TEST(DistTransportTest, RepositoryMismatchSurfacesStatus) {
  auto fx = DistFixture::Make(/*num_shards=*/2);

  EngineConfig config = LoopbackConfig();
  // The runners expect a different repository than the coordinator queries —
  // a mis-deployment. Non-retryable, so every runner goes down immediately.
  config.loopback.expected_fingerprint = 0xdeadbeefcafef00dull;
  SearchEngine engine = MakeEngine(*fx, 2, config);

  auto result = engine.RunConcurrent(AllMethodSpecs(/*limit=*/5));
  ASSERT_FALSE(result.ok());
  // A mis-deployment is reported by name — not buried under an
  // availability error after pointlessly requeuing through (and marking
  // down) every healthy runner.
  EXPECT_EQ(result.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("fingerprint"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(engine.detector_service()->stats().wire_retries, 0u)
      << "a repository mismatch must not be retried";
  EXPECT_EQ(engine.detector_service()->stats().shards_down, 0u)
      << "healthy runners must not be blamed for a deployment mismatch";
}

// --- Full pipeline: decode + prefetch + per-shard pools over loopback -------

TEST(DistTransportTest, FullPipelineLoopbackMatchesLocal) {
  const size_t num_shards = 5;
  auto fx = DistFixture::Make(num_shards);

  EngineConfig base = OracleConfig();
  base.num_threads = 2;
  base.threads_per_shard = 2;  // Loopback runners drive per-shard pools.
  base.simulate_decode = true;
  base.prefetch_depth = 4;
  base.io_threads = 2;
  base.coalesce_detect = true;
  base.device_batch = 16;

  EngineConfig loopback_config = base;
  loopback_config.transport = TransportKind::kLoopback;
  loopback_config.flush_deadline_seconds = 0.0005;
  loopback_config.loopback.latency_seconds = 0.00005;
  loopback_config.loopback.reorder_jitter_seconds = 0.0002;
  loopback_config.loopback.failure_rate = 0.05;

  SearchEngine loopback = MakeEngine(*fx, num_shards, loopback_config);
  SearchEngine local = MakeEngine(*fx, num_shards, base);

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/8);
  auto over_wire = loopback.RunConcurrent(specs);
  auto in_process = local.RunConcurrent(specs);
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  for (size_t i = 0; i < specs.size(); ++i) {
    ExpectSameTrace(in_process.value()[i], over_wire.value()[i],
                    std::string("full pipeline loopback vs local: ") +
                        MethodName(specs[i].options.method));
  }
  EXPECT_GT(loopback.shard_transport()->Stats().bytes_sent, 0u);
}

// --- DetectorService flush policies (unit level) ----------------------------

struct ServiceFixture {
  std::unique_ptr<DistFixture> fx = DistFixture::Make(1);
  detect::SimulatedDetector detector{&fx->truth,
                                     detect::DetectorOptions::Perfect(0)};

  query::DetectorService::DetectRequest Request(
      const std::vector<video::FrameId>& frames, uint64_t session_id = 1) {
    query::DetectorService::DetectRequest request;
    request.session_id = session_id;
    request.frames = common::Span<const video::FrameId>(frames.data(), frames.size());
    request.detector = &detector;
    return request;
  }

  void ExpectDirectDetections(const std::vector<video::FrameId>& frames,
                              const std::vector<detect::Detections>& results) {
    ASSERT_EQ(results.size(), frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      const detect::Detections direct = detector.Detect(frames[i]);
      ASSERT_EQ(results[i].size(), direct.size()) << "frame " << frames[i];
      for (size_t j = 0; j < direct.size(); ++j) {
        EXPECT_EQ(results[i][j].box, direct[j].box);
        EXPECT_EQ(results[i][j].source_instance, direct[j].source_instance);
      }
    }
  }
};

TEST(FlushPolicyTest, FillTriggerShipsFullWireBatches) {
  ServiceFixture fixture;
  query::DetectorServiceOptions options;
  options.device_batch = 4;
  options.flush_policy = query::FlushPolicy::kLatencyAware;
  query::DetectorService service(options, 1);

  // A full wire batch ships at submit, without any barrier flush.
  const std::vector<video::FrameId> full = {10, 20, 30, 40};
  const auto full_ticket = service.Submit(fixture.Request(full));
  EXPECT_TRUE(service.Ready(full_ticket));
  EXPECT_EQ(service.stats().fill_flushes, 1u);
  EXPECT_EQ(service.PendingFrames(), 0u);
  fixture.ExpectDirectDetections(full, service.Take(full_ticket));

  // A partial tail keeps waiting for the barrier.
  const std::vector<video::FrameId> partial = {50, 60};
  const auto partial_ticket = service.Submit(fixture.Request(partial));
  EXPECT_FALSE(service.Ready(partial_ticket));
  EXPECT_EQ(service.PendingFrames(), 2u);
  service.Flush();
  ASSERT_TRUE(service.Ready(partial_ticket));
  fixture.ExpectDirectDetections(partial, service.Take(partial_ticket));
  EXPECT_EQ(service.TicketLatencies().size(), 2u);
}

TEST(FlushPolicyTest, FillTriggerLeavesThePartialTailQueued) {
  ServiceFixture fixture;
  query::DetectorServiceOptions options;
  options.device_batch = 4;
  options.flush_policy = query::FlushPolicy::kLatencyAware;
  query::DetectorService service(options, 1);

  // Six frames: one full slice ships, two frames stay queued — the ticket
  // is not ready until its last frame is detected.
  const std::vector<video::FrameId> frames = {1, 2, 3, 4, 5, 6};
  const auto ticket = service.Submit(fixture.Request(frames));
  EXPECT_FALSE(service.Ready(ticket));
  EXPECT_EQ(service.stats().fill_flushes, 1u);
  EXPECT_EQ(service.PendingFrames(), 2u);
  service.Flush();
  ASSERT_TRUE(service.Ready(ticket));
  fixture.ExpectDirectDetections(frames, service.Take(ticket));
}

TEST(FlushPolicyTest, DeadlineTriggerShipsStaleQueues) {
  ServiceFixture fixture;
  query::DetectorServiceOptions options;
  options.device_batch = 64;  // Never fills.
  options.flush_policy = query::FlushPolicy::kLatencyAware;
  options.flush_deadline_seconds = 0.0002;
  query::DetectorService service(options, 1);

  const std::vector<video::FrameId> frames = {7, 8};
  const auto ticket = service.Submit(fixture.Request(frames));
  EXPECT_FALSE(service.Ready(ticket));
  service.Poll();  // Deadline almost surely not hit yet; either way:
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service.Poll();
  ASSERT_TRUE(service.Ready(ticket));
  EXPECT_GE(service.stats().deadline_flushes, 1u);
  fixture.ExpectDirectDetections(frames, service.Take(ticket));
}

TEST(FlushPolicyTest, BarrierPolicyNeverSelfFlushes) {
  ServiceFixture fixture;
  query::DetectorServiceOptions options;
  options.device_batch = 2;  // Submits exceed a wire batch immediately.
  query::DetectorService service(options, 1);

  const std::vector<video::FrameId> frames = {1, 2, 3, 4, 5};
  const auto ticket = service.Submit(fixture.Request(frames));
  service.Poll();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  service.Poll();
  EXPECT_FALSE(service.Ready(ticket));
  EXPECT_EQ(service.stats().fill_flushes, 0u);
  EXPECT_EQ(service.stats().deadline_flushes, 0u);
  service.Flush();
  EXPECT_TRUE(service.Ready(ticket));
  (void)service.Take(ticket);
}

// --- Transports at the service level ----------------------------------------

TEST(DistTransportTest, LocalTransportMatchesInProcessExecution) {
  ServiceFixture fixture;
  const std::vector<video::FrameId> frames = {100, 200, 300, 400, 500};

  query::DetectorServiceOptions inline_options;
  inline_options.device_batch = 2;
  query::DetectorService inline_service(inline_options, 1);
  const auto inline_ticket = inline_service.Submit(fixture.Request(frames));
  inline_service.Flush();
  const auto inline_results = inline_service.Take(inline_ticket);

  query::LocalTransport transport(1);
  query::DetectorServiceOptions wire_options;
  wire_options.device_batch = 2;
  wire_options.transport = &transport;
  query::DetectorService wire_service(wire_options, 1);
  const auto wire_ticket = wire_service.Submit(fixture.Request(frames));
  wire_service.Flush();
  const auto wire_results = wire_service.Take(wire_ticket);

  ASSERT_EQ(inline_results.size(), wire_results.size());
  for (size_t i = 0; i < inline_results.size(); ++i) {
    ASSERT_EQ(inline_results[i].size(), wire_results[i].size());
    for (size_t j = 0; j < inline_results[i].size(); ++j) {
      EXPECT_EQ(inline_results[i][j].box, wire_results[i][j].box);
      EXPECT_EQ(inline_results[i][j].source_instance,
                wire_results[i][j].source_instance);
    }
  }
  EXPECT_EQ(transport.Stats().requests, 3u);  // ceil(5 / 2) slices.
  EXPECT_EQ(transport.Stats().bytes_sent, 0u);  // Local never serializes.
  fixture.ExpectDirectDetections(frames, wire_results);
}

TEST(DistTransportTest, LoopbackServiceRoundTripsOverBytes) {
  ServiceFixture fixture;
  query::LoopbackTransportOptions loopback;
  loopback.reorder_jitter_seconds = 0.0001;
  query::LoopbackTransport transport(1, {}, loopback);
  query::DetectorServiceOptions options;
  options.device_batch = 3;
  options.transport = &transport;
  query::DetectorService service(options, 1);

  const std::vector<video::FrameId> frames = {11, 22, 33, 44, 55, 66, 77};
  const auto ticket = service.Submit(fixture.Request(frames));
  service.Flush();
  ASSERT_TRUE(service.Ready(ticket));
  fixture.ExpectDirectDetections(frames, service.Take(ticket));
  EXPECT_EQ(transport.Stats().requests, 3u);  // ceil(7 / 3) slices.
  EXPECT_GT(transport.Stats().bytes_sent, 0u);
  EXPECT_GT(transport.Stats().bytes_received, 0u);
  EXPECT_EQ(transport.InFlight(), 0u);
}

/// Scripted transport: shard 0's runner is dead (every batch fails), shard
/// 1's runner fails each wire batch exactly once and then serves it. The
/// sequence of outcomes is fixed, so the retry-budget semantics are pinned
/// without probabilistic injection.
class ScriptedTransport : public query::ShardTransport {
 public:
  const char* name() const override { return "scripted"; }
  void BindLocalResolver(const query::SessionResolver* resolver) override {
    resolver_ = resolver;
  }
  common::Status Send(uint32_t runner_shard,
                      const query::DetectRequestMsg& request) override {
    query::DetectResponseMsg response;
    response.wire_seq = request.wire_seq;
    response.origin_shard = request.origin_shard;
    response.attempt = request.attempt;
    if (runner_shard == 0 || failed_once_.insert(request.wire_seq).second) {
      response.status = query::WireStatus::kUnavailable;
    } else {
      response = query::ExecuteWireRequest(request, *resolver_, nullptr);
    }
    completed_.push_back(std::move(response));
    return common::Status::OK();
  }
  common::Result<query::DetectResponseMsg> Receive() override {
    if (completed_.empty()) {
      return common::Status::FailedPrecondition("no wire batch in flight");
    }
    query::DetectResponseMsg response = std::move(completed_.front());
    completed_.erase(completed_.begin());
    return response;
  }
  size_t InFlight() const override { return completed_.size(); }
  query::TransportStats Stats() const override { return stats_; }

 private:
  const query::SessionResolver* resolver_ = nullptr;
  std::vector<query::DetectResponseMsg> completed_;
  std::set<uint64_t> failed_once_;
  query::TransportStats stats_;
};

TEST(DistTransportTest, RetryBudgetResetsPerRunnerDeterministic) {
  // Regression (deterministic): a batch exhausts its retries on dead shard
  // 0 and requeues to shard 1, which fails it exactly once more. The
  // per-runner budget must absorb that single failure; carrying the
  // exhausted counter across the requeue — the old behavior — would mark
  // the survivor down and sticky-fail the whole service.
  ServiceFixture fixture;
  ScriptedTransport transport;
  query::DetectorServiceOptions options;
  options.device_batch = 8;
  options.max_retries = 2;
  options.transport = &transport;
  query::DetectorService service(options, 2);

  const std::vector<video::FrameId> frames = {10, 20, 30};
  const std::vector<uint32_t> shards = {0, 0, 1};  // Slices for both runners.
  query::DetectorService::DetectRequest request = fixture.Request(frames);
  request.shards = common::Span<const uint32_t>(shards.data(), shards.size());
  const auto ticket = service.Submit(request);
  service.Flush();

  ASSERT_TRUE(service.transport_status().ok())
      << "one transient on the survivor must not kill the fleet: "
      << service.transport_status().ToString();
  ASSERT_TRUE(service.Ready(ticket));
  fixture.ExpectDirectDetections(frames, service.Take(ticket));
  const query::DetectorServiceStats& stats = service.stats();
  EXPECT_EQ(stats.shards_down, 1u);     // Only the dead runner.
  EXPECT_EQ(stats.wire_requeues, 1u);   // Shard 0's slice moved to shard 1.
  // 2 exhausted retries on shard 0, 1 absorbed transient per wire batch on
  // shard 1 (the requeued slice and shard 1's own slice).
  EXPECT_EQ(stats.wire_retries, 4u);
}

TEST(DistTransportTest, SessionDirectoryResolvesAndRejects) {
  ServiceFixture fixture;
  query::SessionDirectory directory;
  EXPECT_EQ(directory.Resolve(1, 0), nullptr);
  directory.Register(1, 0, &fixture.detector);
  directory.Register(1, 3, &fixture.detector);
  directory.Register(1, 0, &fixture.detector);  // Idempotent re-registration.
  EXPECT_EQ(directory.Resolve(1, 0), &fixture.detector);
  EXPECT_EQ(directory.Resolve(1, 3), &fixture.detector);
  EXPECT_EQ(directory.Resolve(1, 2), nullptr);
  EXPECT_EQ(directory.Resolve(2, 0), nullptr);
  EXPECT_EQ(directory.NumSessions(), 1u);
}

// --- Socket transport: real servers, real TCP --------------------------------
//
// The lane the loopback suite above rehearses for: `exsample_shardd`
// subprocesses materialize sessions from RegisterSessionMsg frames (no shared
// memory at all), detect batches cross localhost TCP, and the traces must
// still be bit-identical to the solo in-process runs — including when a
// server is killed or wedged mid-query.

TEST(SocketFramingTest, FramesRoundTripOverASocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<uint8_t> payload = {1, 2, 3, 250, 0, 7};
  ASSERT_TRUE(query::WriteFrame(
                  fds[0], common::Span<const uint8_t>(payload.data(),
                                                      payload.size()))
                  .ok());
  auto frame = query::ReadFrame(fds[1], query::kMaxFrameBytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value(), payload);

  // A frame past the receiver's bound is rejected before any allocation.
  ASSERT_TRUE(query::WriteFrame(
                  fds[0], common::Span<const uint8_t>(payload.data(),
                                                      payload.size()))
                  .ok());
  auto bounded = query::ReadFrame(fds[1], /*max_frame_bytes=*/2);
  EXPECT_FALSE(bounded.ok());

  // EOF mid-stream is a clean error, not a hang or a garbage frame.
  ::close(fds[0]);
  EXPECT_FALSE(query::ReadFrame(fds[1], query::kMaxFrameBytes).ok());
  ::close(fds[1]);
}

EngineConfig SocketConfig(std::vector<std::string> hosts) {
  EngineConfig config = OracleConfig();
  config.num_threads = 2;
  config.coalesce_detect = true;
  config.device_batch = 16;
  config.transport = TransportKind::kSocket;
  config.socket.hosts = std::move(hosts);
  config.flush_deadline_seconds = 0.0005;
  return config;
}

class SocketEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SocketEquivalenceTest, AllMethodsMatchSoloRuns) {
  const size_t num_shards = GetParam();
  auto fx = DistFixture::Make(num_shards);
  // The servers rebuild the fixture's scenario from the same (frames, seed)
  // recipe — their only coupling to this process is the flag pair.
  testutil::ShardFleet fleet(EXSAMPLE_SHARDD_PATH, num_shards);

  SearchEngine socket = MakeEngine(*fx, num_shards, SocketConfig(fleet.Hosts()));
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  auto concurrent = socket.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_EQ(concurrent.value().size(), specs.size());

  // Real bytes crossed real sockets, and the control plane deployed every
  // session before its first batch.
  ASSERT_NE(socket.shard_transport(), nullptr);
  const query::TransportStats wire = socket.shard_transport()->Stats();
  EXPECT_GT(wire.requests, 0u);
  EXPECT_GT(wire.bytes_sent, 0u);
  EXPECT_GT(wire.bytes_received, 0u);
  EXPECT_GE(wire.control_messages, specs.size() * num_shards)
      << "every session registers on every shard";
  EXPECT_GE(wire.connects, num_shards);
  const query::DetectorServiceStats& stats = socket.detector_service()->stats();
  EXPECT_EQ(wire.requests,
            stats.wire_batches + stats.wire_retries + stats.wire_requeues);
  EXPECT_TRUE(socket.detector_service()->transport_status().ok());
  EXPECT_EQ(socket.detector_service()->directory().NumSessions(), 0u);

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("socket vs solo: ") +
                        MethodName(specs[i].options.method) + " at " +
                        std::to_string(num_shards) + " shards");
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, SocketEquivalenceTest,
                         ::testing::Values(1, 2, 5),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "shards_" + std::to_string(info.param);
                         });

TEST(SocketTransportTest, KilledServerIsInferredAndItsBatchesRequeue) {
  // SIGKILL one of two servers mid-query: the coordinator gets no goodbye,
  // only a dropped connection (and connect-refused on retry). Failure
  // inference must synthesize kUnavailable completions, the service must
  // exhaust retries and requeue onto the survivor, and — because requeues
  // preserve origin_shard — every trace must stay bit-identical to the
  // solo runs.
  const size_t num_shards = 2;
  auto fx = DistFixture::Make(num_shards);
  testutil::ShardFleet fleet(EXSAMPLE_SHARDD_PATH, num_shards);

  EngineConfig config = SocketConfig(fleet.Hosts());
  config.transport_max_retries = 1;
  config.socket.request_deadline_seconds = 1.0;
  SearchEngine engine = MakeEngine(*fx, num_shards, config);
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  size_t steps = 0;
  auto concurrent = engine.RunConcurrent(specs, [&](size_t, const QuerySession&) {
    if (++steps == 5 && fleet.server(1).running()) fleet.server(1).Kill();
  });
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();

  const query::TransportStats wire = engine.shard_transport()->Stats();
  EXPECT_GT(wire.inferred_failures, 0u)
      << "the kill must be noticed by inference, not reported";
  const query::DetectorServiceStats& stats = engine.detector_service()->stats();
  EXPECT_EQ(stats.shards_down, 1u);
  EXPECT_GE(stats.wire_requeues, 1u);
  EXPECT_TRUE(engine.detector_service()->transport_status().ok());

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("socket kill mid-query: ") +
                        MethodName(specs[i].options.method));
  }
}

TEST(SocketTransportTest, WedgedServerIsCaughtByTheRequestDeadline) {
  // The nastier failure: a server that stays connected, keeps reading, and
  // never answers (--hang-after). No socket event ever fires — the
  // per-request deadline is the only signal, and its synthesized failures
  // must drive the same retry → requeue recovery with traces intact.
  const size_t num_shards = 2;
  auto fx = DistFixture::Make(num_shards);
  testutil::ShardFleet healthy(EXSAMPLE_SHARDD_PATH, 1);
  testutil::ShardServer::Options wedged_options;
  wedged_options.hang_after = 2;  // Serves two batches, then goes silent.
  testutil::ShardServer wedged(EXSAMPLE_SHARDD_PATH, wedged_options);

  EngineConfig config =
      SocketConfig({healthy.server(0).host(), wedged.host()});
  config.transport_max_retries = 1;
  // Governs only how long the test waits out the wedge (the server never
  // answers) — generous enough that a sanitizer-slowed healthy batch is
  // never misjudged as wedged.
  config.socket.request_deadline_seconds = 0.5;
  SearchEngine engine = MakeEngine(*fx, num_shards, config);
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/6);
  auto concurrent = engine.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();

  const query::TransportStats wire = engine.shard_transport()->Stats();
  EXPECT_GT(wire.inferred_failures, 0u);
  const query::DetectorServiceStats& stats = engine.detector_service()->stats();
  EXPECT_EQ(stats.shards_down, 1u);
  EXPECT_GE(stats.wire_requeues, 1u);

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("socket wedged server: ") +
                        MethodName(specs[i].options.method));
  }
}

TEST(SocketTransportTest, RepositoryMismatchAckFailsRegistrationByName) {
  // Servers built over a different scenario (different seed, different
  // fingerprint) must refuse the session at *registration* time with a
  // kRepoMismatch ack — surfaced as FailedPrecondition before a single
  // detect batch ships, never buried under availability errors.
  const size_t num_shards = 2;
  auto fx = DistFixture::Make(num_shards);
  testutil::ShardServer::Options wrong;
  // A different frame count yields a different *repository* — which is what
  // the fingerprint covers. (The scenario seed only shapes ground truth, the
  // simulation's stand-in for the video content itself.)
  wrong.frames = 40000;
  testutil::ShardFleet fleet(EXSAMPLE_SHARDD_PATH, num_shards, wrong);

  SearchEngine engine = MakeEngine(*fx, num_shards, SocketConfig(fleet.Hosts()));
  auto result = engine.RunConcurrent(AllMethodSpecs(/*limit=*/5));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("fingerprint"), std::string::npos)
      << result.status().ToString();
}

// --- Socket transport I/O model: scripted peers ------------------------------
//
// The transport does all socket I/O on the coordinator thread. These peers
// script the cases that model must survive: a frame that stops halfway, and
// a wave whose requests and responses both overflow the socket buffers.

/// A scripted in-test shard server: accepts one connection and runs
/// `script` on it on its own thread. Every blocking call of the script times
/// out after `kPeerTimeoutSeconds`, and the connection closes when the
/// script returns, so the peer bounds the test's wall time even against a
/// transport that blocks where it must not.
class ScriptedPeer {
 public:
  static constexpr int kPeerTimeoutSeconds = 10;

  /// `buffer_bytes` > 0 shrinks the connection's SO_SNDBUF and SO_RCVBUF.
  ScriptedPeer(std::function<void(int fd)> script, int buffer_bytes = 0) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    common::Check(listener_ >= 0, "scripted peer: socket failed");
    if (buffer_bytes > 0) {
      // Set on the listener, before listen(): accepted sockets inherit the
      // sizes, and the receive window is negotiated from them.
      ::setsockopt(listener_, SOL_SOCKET, SO_SNDBUF, &buffer_bytes,
                   sizeof(buffer_bytes));
      ::setsockopt(listener_, SOL_SOCKET, SO_RCVBUF, &buffer_bytes,
                   sizeof(buffer_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    common::Check(::bind(listener_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) == 0 &&
                      ::listen(listener_, 1) == 0,
                  "scripted peer: bind/listen failed");
    socklen_t len = sizeof(addr);
    ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, script = std::move(script)] {
      pollfd pfd{};
      pfd.fd = listener_;
      pfd.events = POLLIN;
      if (::poll(&pfd, 1, kPeerTimeoutSeconds * 1000) <= 0) return;
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;
      timeval timeout{};
      timeout.tv_sec = kPeerTimeoutSeconds;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
      script(fd);
      ::close(fd);
    });
  }

  ~ScriptedPeer() {
    thread_.join();
    ::close(listener_);
  }

  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  std::string host() const { return "127.0.0.1:" + std::to_string(port_); }

 private:
  int listener_ = -1;
  int port_ = 0;
  std::thread thread_;
};

bool Reply(int fd, const std::vector<uint8_t>& bytes) {
  return query::WriteFrame(
             fd, common::Span<const uint8_t>(bytes.data(), bytes.size()))
      .ok();
}

TEST(SocketTransportTest, HalfSentResponseWaitsOutTheRequestDeadline) {
  // The peer acks the registration, then answers the detect request with a
  // frame header alone and goes silent, connection open. The transport must
  // buffer the partial frame, not block on it: Receive synthesizes
  // kUnavailable when the request deadline passes.
  ScriptedPeer peer([](int fd) {
    auto registration = query::ReadFrame(fd, query::kMaxFrameBytes);
    if (!registration.ok()) return;
    query::SessionAckMsg ack;
    ack.session_id = 11;
    if (!Reply(fd, query::SerializeSessionAck(ack))) return;
    if (!query::ReadFrame(fd, query::kMaxFrameBytes).ok()) return;
    const uint8_t header[query::kFrameHeaderBytes] = {200, 0, 0, 0};
    if (::send(fd, header, sizeof(header), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(sizeof(header))) {
      return;
    }
    // Silent until the coordinator hangs up (or the peer timeout fires).
    (void)query::ReadFrame(fd, query::kMaxFrameBytes);
  });

  query::SocketTransportOptions options;
  options.hosts = {peer.host()};
  options.request_deadline_seconds = 0.3;
  query::SocketTransport transport(1, options);
  query::RegisterSessionMsg registration;
  registration.session_id = 11;
  ASSERT_TRUE(transport.RegisterSession(registration).ok());

  query::DetectRequestMsg request;
  request.wire_seq = 7;
  request.slots = {query::WireSlot{11, 42}};
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(transport.Send(0, request).ok());
  auto response = transport.Receive();
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().wire_seq, 7u);
  EXPECT_EQ(response.value().status, query::WireStatus::kUnavailable);
  EXPECT_GE(waited, 0.25);
  EXPECT_LT(waited, 3.0) << "the half-sent frame blocked the coordinator";
  EXPECT_EQ(transport.Stats().inferred_failures, 1u);
  EXPECT_EQ(transport.InFlight(), 0u);
}

TEST(SocketTransportTest, ResponseWithTheWrongSlotCountIsAProtocolViolation) {
  // The peer acks the registration, then answers a two-slot detect request
  // with `kOk` and a single detection list. A response that cannot be
  // scattered back must drop the connection like any other protocol
  // violation — the batch is inferred unavailable — never reach the
  // service as a short `kOk`.
  ScriptedPeer peer([](int fd) {
    auto registration = query::ReadFrame(fd, query::kMaxFrameBytes);
    if (!registration.ok()) return;
    query::SessionAckMsg ack;
    ack.session_id = 11;
    if (!Reply(fd, query::SerializeSessionAck(ack))) return;
    auto frame = query::ReadFrame(fd, query::kMaxFrameBytes);
    if (!frame.ok()) return;
    auto request = query::ParseDetectRequest(common::Span<const uint8_t>(
        frame.value().data(), frame.value().size()));
    if (!request.ok()) return;
    query::DetectResponseMsg response;
    response.wire_seq = request.value().wire_seq;
    response.attempt = request.value().attempt;
    response.detections.resize(request.value().slots.size() - 1);
    if (!Reply(fd, query::SerializeDetectResponse(response))) return;
    // Hold the connection until the coordinator hangs up.
    (void)query::ReadFrame(fd, query::kMaxFrameBytes);
  });

  query::SocketTransportOptions options;
  options.hosts = {peer.host()};
  options.request_deadline_seconds = 5.0;
  query::SocketTransport transport(1, options);
  query::RegisterSessionMsg registration;
  registration.session_id = 11;
  ASSERT_TRUE(transport.RegisterSession(registration).ok());

  query::DetectRequestMsg request;
  request.wire_seq = 9;
  request.slots = {query::WireSlot{11, 42}, query::WireSlot{11, 43}};
  ASSERT_TRUE(transport.Send(0, request).ok());
  auto response = transport.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().wire_seq, 9u);
  EXPECT_EQ(response.value().status, query::WireStatus::kUnavailable);
  EXPECT_TRUE(response.value().detections.empty());
  EXPECT_GE(transport.Stats().inferred_failures, 1u);
  EXPECT_EQ(transport.InFlight(), 0u);
}

TEST(SocketTransportTest, WaveLargerThanTheSocketBuffersCompletes) {
  // The service ships a whole wave before it receives. Against a peer with
  // shrunken socket buffers that answers every request with a large
  // response and reads its next request only once that reply is written,
  // the coordinator's sends block while the peer blocks on its reply:
  // unless a blocked send keeps reading, both processes stall until the
  // request deadline gives the peer up (which bounds the test's wall time).
  constexpr size_t kWave = 10;
  constexpr size_t kSlotsPerRequest = 40000;
  constexpr size_t kDetectionsPerResponse = 6000;
  ScriptedPeer peer(
      [&](int fd) {
        for (size_t i = 0; i < kWave; ++i) {
          auto frame = query::ReadFrame(fd, query::kMaxFrameBytes);
          if (!frame.ok()) return;
          auto request = query::ParseDetectRequest(common::Span<const uint8_t>(
              frame.value().data(), frame.value().size()));
          if (!request.ok()) return;
          query::DetectResponseMsg response;
          response.wire_seq = request.value().wire_seq;
          response.attempt = request.value().attempt;
          // One detection list per slot, the first one large.
          response.detections.resize(request.value().slots.size());
          response.detections[0].resize(kDetectionsPerResponse);
          if (!Reply(fd, query::SerializeDetectResponse(response))) return;
        }
      },
      /*buffer_bytes=*/64 << 10);

  query::SocketTransportOptions options;
  options.hosts = {peer.host()};
  // Generous: sanitizer builds move these megabytes slowly, and only a
  // stall must miss it.
  options.request_deadline_seconds = 10.0;
  query::SocketTransport transport(1, options);

  query::DetectRequestMsg request;
  request.slots.assign(kSlotsPerRequest, query::WireSlot{3, 5});
  const size_t request_bytes = query::SerializeDetectRequest(request).size();
  query::DetectResponseMsg probe;
  probe.detections.resize(kSlotsPerRequest);
  probe.detections[0].resize(kDetectionsPerResponse);
  const size_t response_bytes = query::SerializeDetectResponse(probe).size();
  // Either direction outgrows the buffers on its path: the requests even a
  // send buffer autotuned to the usual 4 MiB maximum, the responses the
  // peer's send buffer plus the coordinator's untouched receive buffer.
  EXPECT_GT(kWave * request_bytes, size_t{5} << 20);
  EXPECT_GT(kWave * response_bytes, size_t{2} << 20);

  for (uint64_t seq = 0; seq < kWave; ++seq) {
    request.wire_seq = seq;
    ASSERT_TRUE(transport.Send(0, request).ok());
  }
  std::set<uint64_t> answered;
  for (size_t i = 0; i < kWave; ++i) {
    auto response = transport.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, query::WireStatus::kOk)
        << "batch " << response.value().wire_seq << " was given up on";
    if (response.value().status == query::WireStatus::kOk) {
      ASSERT_EQ(response.value().detections.size(), kSlotsPerRequest);
      EXPECT_EQ(response.value().detections[0].size(), kDetectionsPerResponse);
    }
    answered.insert(response.value().wire_seq);
  }
  EXPECT_EQ(answered.size(), kWave);
  const query::TransportStats stats = transport.Stats();
  EXPECT_EQ(stats.inferred_failures, 0u);
  EXPECT_EQ(stats.bytes_received, kWave * response_bytes);
  EXPECT_EQ(transport.InFlight(), 0u);
}

size_t ThreadCount() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  size_t threads = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++threads;
  }
  ::closedir(dir);
  return threads;
}

TEST(SocketTransportTest, StartsNoThreads) {
  // All socket I/O runs on the caller's thread: a full register → detect →
  // unregister round trip through a real server leaves the process's thread
  // count where it was before the transport existed.
  testutil::ShardServer server(EXSAMPLE_SHARDD_PATH, {});
  const size_t before = ThreadCount();
  ASSERT_GT(before, 0u) << "/proc/self/task is unreadable";

  query::SocketTransportOptions options;
  options.hosts = {server.host()};
  query::SocketTransport transport(1, options);
  query::RegisterSessionMsg registration;
  registration.session_id = 5;
  ASSERT_TRUE(transport.RegisterSession(registration).ok());
  query::DetectRequestMsg request;
  request.wire_seq = 1;
  request.slots = {query::WireSlot{5, 100}, query::WireSlot{5, 2000}};
  ASSERT_TRUE(transport.Send(0, request).ok());
  auto response = transport.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, query::WireStatus::kOk);
  EXPECT_EQ(response.value().detections.size(), 2u);
  transport.UnregisterSession(5);

  EXPECT_EQ(ThreadCount(), before);
  EXPECT_EQ(transport.Stats().connects, 1u);
}

}  // namespace
}  // namespace engine
}  // namespace exsample
