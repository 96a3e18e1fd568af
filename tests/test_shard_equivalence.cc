// Cross-shard equivalence & determinism suite — the sharding refactor's
// contract, proven rather than asserted:
//
//  (a) for all 7 methods, a query over a sharded repository (shards ∈
//      {1, 2, 5}) produces a merged trace *bit-identical* to the unsharded
//      run at the same seed — shard count never changes an answer;
//  (b) traces are additionally invariant to thread count, loopback runners
//      per shard, decode-ahead beside a contended detect path, and
//      internal-vs-explicit sharding — those knobs buy wall-clock only;
//  (c) per-shard attribution adds up: every shard that owns frames detects
//      some, and the dispatcher's per-shard tallies sum to the trace;
//  (d) decode accounting follows the same rules under shard routing.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/search_engine.h"
#include "query/shard_trace.h"
#include "scene/generator.h"
#include "video/sharded_repository.h"

namespace exsample {
namespace {

struct ShardFixture {
  video::VideoRepository repo;
  video::Chunking chunking;
  scene::GroundTruth truth;

  ShardFixture(video::VideoRepository r, video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)), chunking(std::move(c)), truth(std::move(t)) {}

  /// A multi-clip repository (10 clips of 2000 frames) so clip-aligned
  /// sharding has real boundaries to cut at; chunking and scene match the
  /// batch-pipeline fixture.
  static std::unique_ptr<ShardFixture> Make(uint64_t seed = 77) {
    const uint64_t frames = 20000;
    common::Rng rng(seed);
    auto chunking = video::MakeFixedCountChunks(frames, 8).value();
    scene::SceneSpec spec;
    spec.total_frames = frames;
    scene::ClassPopulationSpec cls;
    cls.instance_count = 120;
    cls.duration.mean_frames = 90.0;
    spec.classes.push_back(cls);
    return std::make_unique<ShardFixture>(
        video::VideoRepository::UniformClips(10, 2000), std::move(chunking),
        std::move(scene::GenerateScene(spec, nullptr, rng)).value());
  }
};

const engine::Method kAllMethods[] = {
    engine::Method::kExSample,   engine::Method::kExSampleAdaptive,
    engine::Method::kRandom,     engine::Method::kRandomPlus,
    engine::Method::kSequential, engine::Method::kProxyGuided,
    engine::Method::kHybrid,
};

engine::QueryOptions MakeQueryOptions(engine::Method method, size_t batch_size = 16,
                                      uint64_t seed = 5) {
  engine::QueryOptions options;
  options.method = method;
  options.exsample.seed = seed;
  options.adaptive.seed = seed;
  options.adaptive.min_chunk_frames = 256;
  options.hybrid.seed = seed;
  options.batch_size = batch_size;
  options.max_samples = 3000;
  return options;
}

void ExpectTracesIdentical(const query::QueryTrace& a, const query::QueryTrace& b,
                           const std::string& what) {
  // Bit-identical, not approximately equal: sharded execution must charge
  // the exact same sequence of floating-point additions as unsharded.
  EXPECT_TRUE(query::TracesBitIdentical(a, b)) << what;
  ASSERT_EQ(a.points.size(), b.points.size()) << what;
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].samples, b.points[i].samples) << what << " point " << i;
    EXPECT_EQ(a.points[i].seconds, b.points[i].seconds) << what << " point " << i;
    EXPECT_EQ(a.points[i].reported_results, b.points[i].reported_results)
        << what << " point " << i;
    EXPECT_EQ(a.points[i].true_distinct, b.points[i].true_distinct)
        << what << " point " << i;
  }
}

// (a) Sharded == unsharded, bit for bit, for every method at shards {1,2,5}.
TEST(ShardEquivalenceTest, AllMethodsMatchUnshardedAtEveryShardCount) {
  auto fx = ShardFixture::Make();
  engine::SearchEngine unsharded(&fx->repo, &fx->chunking, &fx->truth);
  for (const engine::Method method : kAllMethods) {
    auto base = unsharded.FindDistinct(0, 30, MakeQueryOptions(method));
    ASSERT_TRUE(base.ok()) << engine::MethodName(method);
    EXPECT_GT(base.value().final.samples, 0u) << engine::MethodName(method);
    for (const size_t shards : {1u, 2u, 5u}) {
      auto sharded_repo = video::ShardedRepository::ShardByClips(fx->repo, shards);
      ASSERT_TRUE(sharded_repo.ok());
      engine::SearchEngine engine(&sharded_repo.value(), &fx->chunking, &fx->truth);
      auto trace = engine.FindDistinct(0, 30, MakeQueryOptions(method));
      ASSERT_TRUE(trace.ok()) << engine::MethodName(method);
      ExpectTracesIdentical(base.value(), trace.value(),
                            std::string(engine::MethodName(method)) + " shards=" +
                                std::to_string(shards));
    }
  }
}

// Batch size 1 (Algorithm 1 verbatim) stays equivalent under sharding too.
TEST(ShardEquivalenceTest, BatchSizeOneMatchesUnsharded) {
  auto fx = ShardFixture::Make();
  engine::SearchEngine unsharded(&fx->repo, &fx->chunking, &fx->truth);
  auto sharded_repo = video::ShardedRepository::ShardByClips(fx->repo, 5);
  ASSERT_TRUE(sharded_repo.ok());
  engine::SearchEngine engine(&sharded_repo.value(), &fx->chunking, &fx->truth);
  for (const engine::Method method :
       {engine::Method::kExSample, engine::Method::kRandom, engine::Method::kHybrid}) {
    auto base = unsharded.FindDistinct(0, 30, MakeQueryOptions(method, 1));
    auto trace = engine.FindDistinct(0, 30, MakeQueryOptions(method, 1));
    ASSERT_TRUE(base.ok() && trace.ok());
    ExpectTracesIdentical(base.value(), trace.value(), engine::MethodName(method));
  }
}

// (b) Thread knobs — engine pool size, and parallel shard dispatch over one
// loopback runner per shard — change wall-clock only, never the merged
// trace.
TEST(ShardEquivalenceTest, TracesInvariantToThreadAndPoolConfiguration) {
  auto fx = ShardFixture::Make();
  engine::SearchEngine unsharded(&fx->repo, &fx->chunking, &fx->truth);
  auto base = unsharded.FindDistinct(0, 30, MakeQueryOptions(engine::Method::kExSample));
  ASSERT_TRUE(base.ok());

  struct Knobs {
    size_t num_threads;
    engine::TransportKind transport;
  };
  constexpr engine::TransportKind kLocal = engine::TransportKind::kLocal;
  constexpr engine::TransportKind kLoopback = engine::TransportKind::kLoopback;
  for (const size_t shards : {2u, 5u}) {
    auto sharded_repo = video::ShardedRepository::ShardByClips(fx->repo, shards);
    ASSERT_TRUE(sharded_repo.ok());
    for (const Knobs knobs : {Knobs{1, kLocal}, Knobs{4, kLocal}, Knobs{1, kLoopback},
                              Knobs{4, kLoopback}}) {
      engine::EngineConfig config;
      config.num_threads = knobs.num_threads;
      config.transport = knobs.transport;
      engine::SearchEngine engine(&sharded_repo.value(), &fx->chunking, &fx->truth,
                                  config);
      auto trace = engine.FindDistinct(0, 30, MakeQueryOptions(engine::Method::kExSample));
      ASSERT_TRUE(trace.ok());
      ExpectTracesIdentical(base.value(), trace.value(),
                            "shards=" + std::to_string(shards) + " threads=" +
                                std::to_string(knobs.num_threads) + " over " +
                                engine::TransportKindName(knobs.transport));
    }
  }
}

// Everything the lock-free paths touch at once — an 8-thread pool running
// decode-ahead tasks (prefetch 4) while the loopback coordinator and its
// runners detect coalesced batches — reproduces the sequential run bit for
// bit, for every method and shard count. Queue mechanics move work between
// threads; they must never reorder the computation the trace records.
TEST(ShardEquivalenceTest, ContendedEngineMatchesSequentialForEveryMethod) {
  auto fx = ShardFixture::Make();
  engine::EngineConfig sequential_config;
  sequential_config.simulate_decode = true;
  engine::SearchEngine sequential(&fx->repo, &fx->chunking, &fx->truth,
                                  sequential_config);
  engine::EngineConfig contended_config = sequential_config;
  contended_config.num_threads = 8;
  contended_config.prefetch_depth = 4;
  contended_config.device_batch = 16;
  contended_config.transport = engine::TransportKind::kLoopback;
  contended_config.flush_deadline_seconds = 0.0005;
  for (const engine::Method method : kAllMethods) {
    engine::QueryOptions options = MakeQueryOptions(method);
    options.max_samples = 600;
    auto base = sequential.FindDistinct(0, 20, options);
    ASSERT_TRUE(base.ok()) << engine::MethodName(method);
    for (const size_t shards : {1u, 2u, 5u}) {
      auto sharded_repo = video::ShardedRepository::ShardByClips(fx->repo, shards);
      ASSERT_TRUE(sharded_repo.ok());
      engine::SearchEngine contended(&sharded_repo.value(), &fx->chunking,
                                     &fx->truth, contended_config);
      auto trace = contended.FindDistinct(0, 20, options);
      ASSERT_TRUE(trace.ok()) << engine::MethodName(method);
      ExpectTracesIdentical(base.value(), trace.value(),
                            std::string(engine::MethodName(method)) +
                                " contended shards=" + std::to_string(shards));
    }
  }
}

// Internal sharding (`EngineConfig::num_shards`) is the same execution as an
// explicit ShardedRepository.
TEST(ShardEquivalenceTest, EngineInternalShardingMatchesExplicit) {
  auto fx = ShardFixture::Make();
  engine::SearchEngine unsharded(&fx->repo, &fx->chunking, &fx->truth);
  engine::EngineConfig config;
  config.num_shards = 5;
  engine::SearchEngine internal(&fx->repo, &fx->chunking, &fx->truth, config);
  ASSERT_NE(internal.sharded_repository(), nullptr);
  EXPECT_EQ(internal.sharded_repository()->NumShards(), 5u);

  auto sharded_repo = video::ShardedRepository::ShardByClips(fx->repo, 5);
  ASSERT_TRUE(sharded_repo.ok());
  engine::SearchEngine explicit_engine(&sharded_repo.value(), &fx->chunking,
                                       &fx->truth);

  const engine::QueryOptions options = MakeQueryOptions(engine::Method::kRandomPlus);
  auto base = unsharded.FindDistinct(0, 30, options);
  auto a = internal.FindDistinct(0, 30, options);
  auto b = explicit_engine.FindDistinct(0, 30, options);
  ASSERT_TRUE(base.ok() && a.ok() && b.ok());
  ExpectTracesIdentical(base.value(), a.value(), "internal sharding");
  ExpectTracesIdentical(a.value(), b.value(), "internal vs explicit");
}

// (c) Per-shard attribution: every shard that owns frames detected some, and
// the dispatcher's per-shard tallies sum to the trace's sample count.
TEST(ShardEquivalenceTest, PerShardStatsAttributeEverySample) {
  auto fx = ShardFixture::Make();
  auto sharded_repo = video::ShardedRepository::ShardByClips(fx->repo, 2);
  ASSERT_TRUE(sharded_repo.ok());
  engine::SearchEngine engine(&sharded_repo.value(), &fx->chunking, &fx->truth);

  auto session = engine.CreateSession(0, 30, MakeQueryOptions(engine::Method::kExSample));
  ASSERT_TRUE(session.ok());
  while (session.value()->Step()) {
  }
  const query::QueryTrace finished = session.value()->Finish();

  const query::ShardDispatcher* dispatcher = session.value()->shard_dispatcher();
  ASSERT_NE(dispatcher, nullptr);
  ASSERT_EQ(dispatcher->NumShards(), 2u);
  uint64_t detected = 0;
  for (uint32_t s = 0; s < dispatcher->NumShards(); ++s) {
    EXPECT_GT(dispatcher->Stats()[s].frames_detected, 0u)
        << "shard " << s << " never executed a frame";
    detected += dispatcher->Stats()[s].frames_detected;
  }
  EXPECT_EQ(detected, finished.final.samples);
}

// The proxy method's upfront scan cost opens the trace: it is paid before
// any shard sees a frame.
TEST(ShardEquivalenceTest, ProxyUpfrontCostOpensTheTrace) {
  auto fx = ShardFixture::Make();
  auto sharded_repo = video::ShardedRepository::ShardByClips(fx->repo, 2);
  ASSERT_TRUE(sharded_repo.ok());
  engine::SearchEngine engine(&sharded_repo.value(), &fx->chunking, &fx->truth);
  auto session =
      engine.CreateSession(0, 10, MakeQueryOptions(engine::Method::kProxyGuided));
  ASSERT_TRUE(session.ok());
  const query::QueryTrace trace = session.value()->Finish();
  ASSERT_FALSE(trace.points.empty());
  // 20000 frames at the 100 fps proxy scan rate = 200 s, before any sample.
  EXPECT_DOUBLE_EQ(trace.points[0].seconds, 200.0);
  EXPECT_EQ(trace.points[0].samples, 0u);
}

// (d) Decode routed through the shared store under shard dispatch charges
// exactly what the unsharded run charges (bit-identical trace including
// decode seconds); per-shard stores keep consistent books.
TEST(ShardEquivalenceTest, DecodeAccountingUnderShardRouting) {
  auto fx = ShardFixture::Make();
  auto sharded_repo = video::ShardedRepository::ShardByClips(fx->repo, 5);
  ASSERT_TRUE(sharded_repo.ok());

  detect::DetectorOptions det_opts;
  det_opts.target_class = 0;
  query::RunnerOptions base_options;
  base_options.recall_class = 0;
  base_options.result_limit = 20;
  base_options.max_samples = 1000;
  base_options.batch_size = 8;

  // Unsharded reference with a global decode store.
  query::QueryTrace base;
  {
    samplers::UniformRandomStrategy strategy(&fx->repo, /*seed=*/5);
    detect::SimulatedDetector detector(&fx->truth, det_opts);
    track::IouTrackerDiscriminator discriminator(&fx->truth, {});
    video::SimulatedVideoStore store(&fx->repo, {});
    query::RunnerOptions options = base_options;
    options.video_store = &store;
    query::QueryExecution execution(&fx->truth, &detector, &discriminator, &strategy,
                                    options);
    base = execution.Finish();
    EXPECT_GT(store.Stats().random_reads + store.Stats().sequential_reads, 0u);
  }

  // Sharded execution, same global store semantics (one store shared by
  // every shard context): decode cost is attributed to the owning shard but
  // charged identically.
  {
    samplers::UniformRandomStrategy strategy(&fx->repo, /*seed=*/5);
    std::vector<std::unique_ptr<detect::SimulatedDetector>> detectors;
    video::SimulatedVideoStore store(&fx->repo, {});
    std::vector<query::ShardContext> contexts(sharded_repo.value().NumShards());
    for (uint32_t s = 0; s < sharded_repo.value().NumShards(); ++s) {
      detectors.push_back(std::make_unique<detect::SimulatedDetector>(&fx->truth, det_opts));
      contexts[s].detector = detectors.back().get();
      contexts[s].store = &store;
    }
    query::ShardDispatcher dispatcher(&sharded_repo.value(), std::move(contexts));
    track::IouTrackerDiscriminator discriminator(&fx->truth, {});
    query::RunnerOptions options = base_options;
    options.shard_dispatcher = &dispatcher;
    query::QueryExecution execution(&fx->truth, /*detector=*/nullptr, &discriminator,
                                    &strategy, options);
    const query::QueryTrace trace = execution.Finish();
    ExpectTracesIdentical(base, trace, "shared store under shard routing");
  }

  // Per-shard stores: each shard decodes independently (its own position
  // state). The books must still balance: every sample decodes exactly once,
  // on exactly its owning shard.
  {
    samplers::UniformRandomStrategy strategy(&fx->repo, /*seed=*/5);
    std::vector<std::unique_ptr<detect::SimulatedDetector>> detectors;
    std::vector<std::unique_ptr<video::SimulatedVideoStore>> stores;
    std::vector<query::ShardContext> contexts(sharded_repo.value().NumShards());
    for (uint32_t s = 0; s < sharded_repo.value().NumShards(); ++s) {
      detectors.push_back(std::make_unique<detect::SimulatedDetector>(&fx->truth, det_opts));
      stores.push_back(std::make_unique<video::SimulatedVideoStore>(
          &sharded_repo.value().Global(), video::DecodeCostModel{}));
      contexts[s].detector = detectors.back().get();
      contexts[s].store = stores.back().get();
    }
    query::ShardDispatcher dispatcher(&sharded_repo.value(), std::move(contexts));
    ASSERT_TRUE(dispatcher.HasStores());
    track::IouTrackerDiscriminator discriminator(&fx->truth, {});
    query::RunnerOptions options = base_options;
    options.shard_dispatcher = &dispatcher;
    query::QueryExecution execution(&fx->truth, nullptr, &discriminator, &strategy,
                                    options);
    const query::QueryTrace trace = execution.Finish();

    uint64_t reads = 0;
    double decode_seconds = 0.0;
    for (uint32_t s = 0; s < sharded_repo.value().NumShards(); ++s) {
      const video::DecodeStats& stats = stores[s]->Stats();
      reads += stats.random_reads + stats.sequential_reads;
      decode_seconds += stats.total_seconds;
      EXPECT_EQ(stats.random_reads + stats.sequential_reads,
                dispatcher.Stats()[s].frames_decoded);
    }
    EXPECT_EQ(reads, trace.final.samples);
    double charged = 0.0;
    for (const query::ShardStats& stats : dispatcher.Stats()) {
      charged += stats.decode_seconds;
    }
    EXPECT_DOUBLE_EQ(charged, decode_seconds);
  }
}

}  // namespace
}  // namespace exsample
