// Batched-equivalence suite for the batch-first execution pipeline.
//
// The refactor's contract, proven here:
//  (a) batch_size=1 with no thread pool yields a trace *bit-identical* to the
//      legacy single-frame pull loop (`RunSingleFrame` below) for every
//      `engine::Method` — batching is a pure generalization;
//  (b) traces are invariant to thread-pool size for fixed seeds (threads buy
//      wall-clock, never different answers);
//  (c) `NextBatch` never returns a frame twice and drains the repository
//      exactly, for every strategy.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "engine/search_engine.h"
#include "scene/generator.h"

namespace exsample {
namespace {

struct Fixture {
  video::VideoRepository repo;
  video::Chunking chunking;
  scene::GroundTruth truth;
  engine::EngineConfig config;

  Fixture(video::VideoRepository r, video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)), chunking(std::move(c)), truth(std::move(t)) {}

  static std::unique_ptr<Fixture> Make(uint64_t frames = 20000,
                                       uint64_t instances = 120,
                                       uint64_t seed = 77) {
    common::Rng rng(seed);
    scene::SceneSpec spec;
    spec.total_frames = frames;
    scene::ClassPopulationSpec cls;
    cls.instance_count = instances;
    cls.duration.mean_frames = 90.0;
    spec.classes.push_back(cls);
    auto fx = std::make_unique<Fixture>(
        video::VideoRepository::SingleClip(frames),
        video::MakeFixedCountChunks(frames, 8).value(),
        std::move(scene::GenerateScene(spec, nullptr, rng)).value());
    return fx;
  }
};

// The pre-batching reference implementation: a strictly single-frame pull
// loop over `NextFrame`/`Observe` (Algorithm 1 verbatim), ignoring
// `batch_size`/`thread_pool`. The batch pipeline is tested against it:
// batch_size=1 must be bit-identical.
query::QueryTrace RunSingleFrame(const scene::GroundTruth& truth,
                                 detect::ObjectDetector* detector,
                                 track::Discriminator* discriminator,
                                 const query::RunnerOptions& options,
                                 query::SearchStrategy* strategy) {
  query::QueryTrace trace;
  trace.strategy_name = strategy->name();
  trace.total_instances = truth.NumInstances(options.recall_class);

  std::unordered_set<scene::InstanceId> found;
  query::DiscoveryPoint current;
  current.seconds = strategy->UpfrontCostSeconds();
  trace.points.push_back(current);
  double charged_overhead = 0.0;

  while (current.samples < options.max_samples &&
         current.reported_results < options.result_limit &&
         current.true_distinct < options.true_distinct_target) {
    const std::optional<video::FrameId> frame = strategy->NextFrame();
    if (!frame.has_value()) break;

    // Charge any incremental strategy overhead (e.g. lazy proxy scoring)
    // accrued while choosing this frame.
    const double overhead = strategy->CumulativeOverheadSeconds();
    current.seconds += overhead - charged_overhead;
    charged_overhead = overhead;

    if (options.video_store != nullptr) {
      const common::Result<video::ReadPlan> plan =
          options.video_store->PlanRead(*frame);
      if (plan.ok()) {
        options.video_store->PerformRead(plan.value());
        current.seconds += plan.value().seconds;
      }
    }
    current.seconds += detector->SecondsPerFrame();

    const detect::Detections dets = detector->Detect(*frame);
    const track::MatchResult result = discriminator->Observe(*frame, dets);
    strategy->Observe(*frame, result.d0.size(), result.d1.size());

    ++current.samples;
    current.reported_results += result.d0.size();

    bool changed = false;
    for (const detect::Detection& det : result.d0) {
      if (!det.IsTruePositive()) continue;
      if (options.recall_class != scene::GroundTruth::kAllClasses &&
          det.class_id != options.recall_class) {
        continue;
      }
      if (found.insert(det.source_instance).second) {
        ++current.true_distinct;
        changed = true;
      }
    }
    if (changed || !result.d0.empty()) {
      trace.points.push_back(current);
    }
  }
  trace.final = current;
  if (trace.points.empty() || trace.points.back().samples != current.samples) {
    trace.points.push_back(current);
  }
  return trace;
}

const engine::Method kAllMethods[] = {
    engine::Method::kExSample,   engine::Method::kExSampleAdaptive,
    engine::Method::kRandom,     engine::Method::kRandomPlus,
    engine::Method::kSequential, engine::Method::kProxyGuided,
    engine::Method::kHybrid,
};

engine::QueryOptions MakeQueryOptions(engine::Method method, uint64_t seed = 5) {
  engine::QueryOptions options;
  options.method = method;
  options.exsample.seed = seed;
  options.adaptive.seed = seed;
  options.adaptive.min_chunk_frames = 256;
  options.hybrid.seed = seed;
  return options;
}

// Runs one query with freshly constructed per-query components (detector
// noise stream, discriminator memory, strategy beliefs), through either the
// batch pipeline or the legacy single-frame reference loop.
query::QueryTrace RunOnce(Fixture& fx, engine::Method method, bool batched,
                          size_t batch_size, common::ThreadPool* pool) {
  engine::SearchEngine engine(&fx.repo, &fx.chunking, &fx.truth, fx.config);
  auto strategy = engine.MakeStrategy(0, MakeQueryOptions(method));
  EXPECT_TRUE(strategy.ok()) << strategy.status().ToString();

  detect::DetectorOptions det_opts;  // Realistic noise model, class-filtered.
  det_opts.target_class = 0;
  detect::SimulatedDetector detector(&fx.truth, det_opts);
  track::IouTrackerDiscriminator discriminator(&fx.truth, {});

  query::RunnerOptions options;
  options.recall_class = 0;
  options.result_limit = 30;
  options.max_samples = 3000;
  options.batch_size = batch_size;
  options.thread_pool = pool;
  if (!batched) {
    return RunSingleFrame(fx.truth, &detector, &discriminator, options,
                          strategy.value().get());
  }
  query::QueryRunner runner(&fx.truth, &detector, &discriminator, options);
  return runner.Run(strategy.value().get());
}

void ExpectTracesIdentical(const query::QueryTrace& a, const query::QueryTrace& b,
                           const char* what) {
  EXPECT_EQ(a.total_instances, b.total_instances) << what;
  ASSERT_EQ(a.points.size(), b.points.size()) << what;
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].samples, b.points[i].samples) << what << " point " << i;
    EXPECT_EQ(a.points[i].reported_results, b.points[i].reported_results)
        << what << " point " << i;
    EXPECT_EQ(a.points[i].true_distinct, b.points[i].true_distinct)
        << what << " point " << i;
    // Bit-identical, not approximately equal: the pipelines must charge the
    // exact same sequence of floating-point additions.
    EXPECT_EQ(a.points[i].seconds, b.points[i].seconds) << what << " point " << i;
  }
  EXPECT_EQ(a.final.samples, b.final.samples) << what;
  EXPECT_EQ(a.final.reported_results, b.final.reported_results) << what;
  EXPECT_EQ(a.final.true_distinct, b.final.true_distinct) << what;
  EXPECT_EQ(a.final.seconds, b.final.seconds) << what;
}

// (a) The batch pipeline at batch_size=1 with no pool is the legacy loop,
// bit for bit, for all seven methods.
TEST(BatchPipelineTest, BatchSizeOneMatchesSingleFramePathForAllMethods) {
  auto fx = Fixture::Make();
  for (const engine::Method method : kAllMethods) {
    const query::QueryTrace legacy = RunOnce(*fx, method, /*batched=*/false, 1, nullptr);
    const query::QueryTrace batched = RunOnce(*fx, method, /*batched=*/true, 1, nullptr);
    EXPECT_EQ(legacy.strategy_name, batched.strategy_name);
    ExpectTracesIdentical(legacy, batched, engine::MethodName(method));
    EXPECT_GT(legacy.final.samples, 0u) << engine::MethodName(method);
  }
}

// (b) Thread-pool size changes wall-clock only: for a fixed seed and batch
// size, every pool size produces the identical trace.
TEST(BatchPipelineTest, TracesInvariantToThreadCount) {
  auto fx = Fixture::Make();
  for (const engine::Method method :
       {engine::Method::kExSample, engine::Method::kHybrid, engine::Method::kRandom}) {
    const query::QueryTrace base = RunOnce(*fx, method, true, 16, nullptr);
    for (const size_t threads : {2u, 4u, 8u}) {
      common::ThreadPool pool(threads);
      const query::QueryTrace parallel = RunOnce(*fx, method, true, 16, &pool);
      ExpectTracesIdentical(base, parallel, engine::MethodName(method));
    }
  }
}

// NextBatch must emit the same frame sequence NextFrame would.
TEST(BatchPipelineTest, NextBatchMatchesNextFrameSequence) {
  auto fx = Fixture::Make(6000, 30);
  for (const engine::Method method : kAllMethods) {
    engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, fx->config);
    auto a = engine.MakeStrategy(0, MakeQueryOptions(method));
    auto b = engine.MakeStrategy(0, MakeQueryOptions(method));
    ASSERT_TRUE(a.ok() && b.ok());
    std::vector<video::FrameId> singles;
    for (int i = 0; i < 100; ++i) {
      const auto frame = a.value()->NextFrame();
      if (!frame.has_value()) break;
      singles.push_back(*frame);
    }
    std::vector<video::FrameId> batched;
    while (batched.size() < singles.size()) {
      const auto chunk = b.value()->NextBatch(
          std::min<size_t>(7, singles.size() - batched.size()));
      if (chunk.empty()) break;
      batched.insert(batched.end(), chunk.begin(), chunk.end());
    }
    EXPECT_EQ(singles, batched) << engine::MethodName(method);
  }
}

// (c) NextBatch never repeats a frame and drains the repository exactly.
TEST(BatchPipelineTest, NextBatchDrainsRepositoryExactlyOnce) {
  auto fx = Fixture::Make(3000, 20);
  for (const engine::Method method : kAllMethods) {
    engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, fx->config);
    engine::QueryOptions options = MakeQueryOptions(method);
    // candidates_per_pick=1 makes hybrid consume one frame per pick, the
    // configuration under which it (like every other method) is exhaustive.
    options.hybrid.candidates_per_pick = 1;
    auto strategy = engine.MakeStrategy(0, options);
    ASSERT_TRUE(strategy.ok());

    std::unordered_set<video::FrameId> seen;
    uint64_t total = 0;
    for (;;) {
      const std::vector<video::FrameId> batch = strategy.value()->NextBatch(7);
      if (batch.empty()) break;
      for (const video::FrameId frame : batch) {
        EXPECT_LT(frame, fx->repo.TotalFrames()) << engine::MethodName(method);
        EXPECT_TRUE(seen.insert(frame).second)
            << engine::MethodName(method) << " repeated frame " << frame;
      }
      total += batch.size();
      ASSERT_LE(total, fx->repo.TotalFrames()) << engine::MethodName(method);
    }
    EXPECT_EQ(total, fx->repo.TotalFrames()) << engine::MethodName(method);
    // Exhausted strategies stay exhausted.
    EXPECT_TRUE(strategy.value()->NextBatch(7).empty()) << engine::MethodName(method);
    EXPECT_FALSE(strategy.value()->NextFrame().has_value())
        << engine::MethodName(method);
  }
}

// The batched runner respects max_samples across batch boundaries (the last
// batch is truncated, never overshot).
TEST(BatchPipelineTest, MaxSamplesRespectedAcrossBatches) {
  auto fx = Fixture::Make(6000, 30);
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, fx->config);
  auto strategy = engine.MakeStrategy(0, MakeQueryOptions(engine::Method::kRandom));
  ASSERT_TRUE(strategy.ok());
  detect::DetectorOptions det_opts;
  det_opts.target_class = 0;
  detect::SimulatedDetector detector(&fx->truth, det_opts);
  track::IouTrackerDiscriminator discriminator(&fx->truth, {});
  query::RunnerOptions options;
  options.recall_class = 0;
  options.max_samples = 30;  // Not a multiple of the batch size.
  options.batch_size = 16;
  query::QueryRunner runner(&fx->truth, &detector, &discriminator, options);
  const query::QueryTrace trace = runner.Run(strategy.value().get());
  EXPECT_EQ(trace.final.samples, 30u);
}

// Engine sessions: stepping a session to completion equals FindDistinct, and
// RunConcurrent equals running each query alone — interleaving over shared
// engine state never leaks between queries.
TEST(BatchPipelineTest, SessionsAndConcurrentExecutionMatchSoloRuns) {
  auto fx = Fixture::Make();
  fx->config.num_threads = 2;  // Shared pool exercised.
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, fx->config);

  std::vector<engine::QuerySpec> specs;
  for (const engine::Method method :
       {engine::Method::kExSample, engine::Method::kRandomPlus,
        engine::Method::kHybrid}) {
    engine::QuerySpec spec;
    spec.class_id = 0;
    spec.limit = 15;
    spec.options = MakeQueryOptions(method);
    spec.options.batch_size = 8;
    specs.push_back(spec);
  }

  auto concurrent = engine.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_EQ(concurrent.value().size(), specs.size());

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = engine.FindDistinct(specs[i].class_id, specs[i].limit,
                                    specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectTracesIdentical(solo.value(), concurrent.value()[i], "concurrent");
  }

  // Manual stepping arrives at the same place.
  auto session = engine.CreateSession(0, 15, specs[0].options);
  ASSERT_TRUE(session.ok());
  uint64_t steps = 0;
  while (session.value()->Step()) ++steps;
  EXPECT_TRUE(session.value()->Done());
  EXPECT_GT(steps, 0u);
  auto solo = engine.FindDistinct(0, 15, specs[0].options);
  ASSERT_TRUE(solo.ok());
  ExpectTracesIdentical(solo.value(), session.value()->Finish(), "session");
}

}  // namespace
}  // namespace exsample
