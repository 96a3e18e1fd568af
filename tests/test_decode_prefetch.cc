// Decode-prefetch equivalence & determinism suite — the pipelined decode
// stage's contract, proven rather than asserted:
//
//  (a) the async split (`PlanRead` + `PerformRead`) charges bit-identically
//      to the synchronous `ReadAndDecode`, read for read;
//  (b) the prefetcher respects its bounded in-flight window and serves
//      decoded frames from a cache keyed by FrameId;
//  (c) for all 7 methods, a query with prefetching decode (depths {1, 4},
//      any thread/I-O pool configuration) produces a trace bit-identical to
//      the synchronous decode path (depth 0) — overlap buys wall-clock only;
//  (d) the same holds composed with sharding (prefetch × shards {1, 2, 5},
//      per-shard stores and detect pools), and under concurrent sessions
//      sharing the engine's prefetch pools.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "engine/search_engine.h"
#include "query/prefetch.h"
#include "scene/generator.h"
#include "video/decode.h"
#include "video/sharded_repository.h"

namespace exsample {
namespace {

struct DecodeFixture {
  video::VideoRepository repo;
  video::Chunking chunking;
  scene::GroundTruth truth;

  DecodeFixture(video::VideoRepository r, video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)), chunking(std::move(c)), truth(std::move(t)) {}

  /// Multi-clip repository (10 clips of 2000 frames) so clip-aligned sharding
  /// has boundaries to cut at; matches the shard-equivalence fixture.
  static std::unique_ptr<DecodeFixture> Make(uint64_t seed = 77) {
    const uint64_t frames = 20000;
    common::Rng rng(seed);
    auto chunking = video::MakeFixedCountChunks(frames, 8).value();
    scene::SceneSpec spec;
    spec.total_frames = frames;
    scene::ClassPopulationSpec cls;
    cls.instance_count = 120;
    cls.duration.mean_frames = 90.0;
    spec.classes.push_back(cls);
    return std::make_unique<DecodeFixture>(
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

engine::EngineConfig DecodeConfig(size_t prefetch_depth, size_t num_threads = 1) {
  engine::EngineConfig config;
  config.simulate_decode = true;
  config.prefetch_depth = prefetch_depth;
  config.num_threads = num_threads;
  return config;
}

void ExpectTracesIdentical(const query::QueryTrace& a, const query::QueryTrace& b,
                           const std::string& what) {
  // Bit-identical, not approximately equal: the prefetching path must charge
  // the exact same sequence of floating-point additions as the synchronous
  // path.
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

// The one-shard dispatcher an unsharded execution builds over its detector
// and store. The prefetcher only plans and performs reads through it.
struct OneShard {
  scene::GroundTruth truth;
  detect::SimulatedDetector detector{&truth, {}};
  query::ShardDispatcher dispatcher;

  OneShard(video::SimulatedVideoStore* store, uint64_t frames)
      : truth({}, frames), dispatcher(nullptr, {query::ShardContext{&detector, store}}) {}
};

// Every frame of a one-shard batch is owned by shard 0.
std::vector<uint32_t> ShardZero(size_t frames) {
  return std::vector<uint32_t>(frames, 0);
}

// (a) PlanRead + PerformRead is ReadAndDecode, split: charges, read
// classification, and position state advance identically, read for read.
TEST(DecodePlanTest, PlanPerformSplitMatchesSynchronousReads) {
  const video::VideoRepository repo = video::VideoRepository::UniformClips(4, 500);
  video::SimulatedVideoStore sync_store(&repo, {});
  video::SimulatedVideoStore split_store(&repo, {});

  // Mixed access pattern: random jumps, sequential runs, clip boundaries.
  const video::FrameId reads[] = {0, 1, 2, 77, 78, 500, 1999, 3, 4, 5, 1000, 1001};
  for (const video::FrameId frame : reads) {
    const double before = sync_store.Stats().total_seconds;
    ASSERT_TRUE(sync_store.ReadAndDecode(frame).ok());
    const double sync_seconds = sync_store.Stats().total_seconds - before;

    auto plan = split_store.PlanRead(frame);
    ASSERT_TRUE(plan.ok());
    // Near-equality per read: `sync_seconds` is a difference of running sums,
    // which rounds differently from the plan's exact per-read charge. The
    // totals below — the same addition sequence on both stores — must be
    // bit-equal.
    EXPECT_NEAR(plan.value().seconds, sync_seconds, 1e-12) << "frame " << frame;
    split_store.PerformRead(plan.value());
  }
  EXPECT_EQ(split_store.Stats().random_reads, sync_store.Stats().random_reads);
  EXPECT_EQ(split_store.Stats().sequential_reads, sync_store.Stats().sequential_reads);
  EXPECT_EQ(split_store.Stats().frames_decoded, sync_store.Stats().frames_decoded);
  EXPECT_EQ(split_store.Stats().total_seconds, sync_store.Stats().total_seconds);
}

TEST(DecodePlanTest, PlanRejectsOutOfRangeFrames) {
  const video::VideoRepository repo = video::VideoRepository::SingleClip(100);
  video::SimulatedVideoStore store(&repo, {});
  EXPECT_FALSE(store.PlanRead(100).ok());
  EXPECT_EQ(store.Stats().random_reads + store.Stats().sequential_reads, 0u);
}

TEST(DecodePlanTest, WallClockScaleSpendsRealTime) {
  const video::VideoRepository repo = video::VideoRepository::SingleClip(100);
  video::DecodeCostModel cost;
  cost.wall_clock_scale = 1.0;  // Sequential read = 1/500 s = 2 ms of wall.
  video::SimulatedVideoStore store(&repo, cost);
  ASSERT_TRUE(store.ReadAndDecode(0).ok());  // Random; position now at 0.
  auto plan = store.PlanRead(1);
  ASSERT_TRUE(plan.ok());
  const auto start = std::chrono::steady_clock::now();
  store.PerformRead(plan.value());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(elapsed, plan.value().seconds * 0.5);  // Sleeps are >= requested.
}

// (b) The prefetcher plans in batch order (charges identical to a synchronous
// store walking the same frames), bounds its decode-ahead window, and serves
// the decoded batch from a FrameId-keyed cache.
TEST(DecodePrefetcherTest, ChargesMatchSynchronousOrderAndWindowIsBounded) {
  const video::VideoRepository repo = video::VideoRepository::UniformClips(4, 500);
  video::SimulatedVideoStore reference(&repo, {});
  video::SimulatedVideoStore store(&repo, {});
  common::ThreadPool pool(3);

  query::PrefetchOptions options;
  options.depth = 2;
  OneShard shard(&store, repo.TotalFrames());
  query::DecodePrefetcher prefetcher(&shard.dispatcher, &pool, options);

  const std::vector<video::FrameId> frames = {10, 11, 900, 12, 1500, 13, 901, 14};
  const std::vector<double>& charges =
      prefetcher.SubmitBatch(frames, ShardZero(frames.size()));
  ASSERT_EQ(charges.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    const double before = reference.Stats().total_seconds;
    ASSERT_TRUE(reference.ReadAndDecode(frames[i]).ok());
    // Near-equality per read (running-sum rounding); totals are bit-equal.
    EXPECT_NEAR(charges[i], reference.Stats().total_seconds - before, 1e-12)
        << "frame " << frames[i];
    prefetcher.WaitFrame(i);
  }
  EXPECT_EQ(store.Stats().total_seconds, reference.Stats().total_seconds);

  const query::PrefetchStats& stats = prefetcher.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.frames, frames.size());
  EXPECT_LE(stats.max_ahead, options.depth);
  EXPECT_EQ(stats.async_reads + stats.inline_reads, frames.size());
  for (const video::FrameId frame : frames) {
    EXPECT_TRUE(prefetcher.Cached(frame)) << "frame " << frame;
  }
  EXPECT_FALSE(prefetcher.Cached(9999));
}

TEST(DecodePrefetcherTest, DepthZeroDecodesInlineAtSubmit) {
  const video::VideoRepository repo = video::VideoRepository::SingleClip(1000);
  video::SimulatedVideoStore store(&repo, {});
  common::ThreadPool pool(3);
  query::PrefetchOptions options;
  options.depth = 0;
  OneShard shard(&store, repo.TotalFrames());
  query::DecodePrefetcher prefetcher(&shard.dispatcher, &pool, options);
  const std::vector<video::FrameId> frames = {5, 6, 7, 300};
  prefetcher.SubmitBatch(frames, ShardZero(frames.size()));
  // Everything decoded synchronously: cached before any wait.
  for (const video::FrameId frame : frames) {
    EXPECT_TRUE(prefetcher.Cached(frame));
  }
  EXPECT_EQ(prefetcher.stats().inline_reads, frames.size());
  EXPECT_EQ(prefetcher.stats().async_reads, 0u);
  // Submitting another batch drains the first; synchronous mode must never
  // report read-ahead (the whole batch decodes at submit, not ahead of it).
  const std::vector<video::FrameId> next = {400, 401};
  prefetcher.SubmitBatch(next, ShardZero(next.size()));
  prefetcher.Drain();
  EXPECT_EQ(prefetcher.stats().max_ahead, 0u);
}

TEST(DecodePrefetcherTest, SubmitDrainsThePreviousBatch) {
  const video::VideoRepository repo = video::VideoRepository::SingleClip(1000);
  video::SimulatedVideoStore store(&repo, {});
  common::ThreadPool pool(2);
  query::PrefetchOptions options;
  options.depth = 4;
  OneShard shard(&store, repo.TotalFrames());
  query::DecodePrefetcher prefetcher(&shard.dispatcher, &pool, options);
  const std::vector<video::FrameId> first = {1, 2, 3, 4, 5, 6};
  prefetcher.SubmitBatch(first, ShardZero(first.size()));  // Never waited on.
  const std::vector<video::FrameId> second = {100, 101};
  prefetcher.SubmitBatch(second, ShardZero(second.size()));
  EXPECT_FALSE(prefetcher.Cached(1));  // Previous batch evicted...
  EXPECT_GE(store.Stats().frames_decoded, 8u);  // ...but fully decoded.
  prefetcher.Drain();
  EXPECT_TRUE(prefetcher.Cached(100));
}

// (c) For every method, prefetching decode (any depth, any pool size)
// produces the synchronous path's trace bit for bit.
TEST(DecodePrefetchEquivalenceTest, AllMethodsBitIdenticalAcrossDepthsAndPools) {
  auto fx = DecodeFixture::Make();
  engine::SearchEngine sync_engine(&fx->repo, &fx->chunking, &fx->truth,
                                   DecodeConfig(/*prefetch_depth=*/0));
  struct Layout {
    size_t depth;
    size_t num_threads;
  };
  const Layout layouts[] = {
      {1, 1},  // Overlap window 1, no pool at all (inline fallback).
      {4, 2},  // One worker shared by decode tasks and detect fan-out.
      {4, 4},  // Three workers shared by both.
      {1, 4},  // Overlap window 1 on the shared pool.
  };
  for (const engine::Method method : kAllMethods) {
    auto base = sync_engine.FindDistinct(0, 30, MakeQueryOptions(method));
    ASSERT_TRUE(base.ok()) << engine::MethodName(method);
    EXPECT_GT(base.value().final.samples, 0u) << engine::MethodName(method);
    // Decode charged: simulate_decode must show up in the trace's seconds
    // (upfront-cost-only strategies aside, sampling pays decode per frame).
    for (const Layout& layout : layouts) {
      engine::SearchEngine engine(
          &fx->repo, &fx->chunking, &fx->truth,
          DecodeConfig(layout.depth, layout.num_threads));
      auto trace = engine.FindDistinct(0, 30, MakeQueryOptions(method));
      ASSERT_TRUE(trace.ok()) << engine::MethodName(method);
      ExpectTracesIdentical(
          base.value(), trace.value(),
          std::string(engine::MethodName(method)) + " depth=" +
              std::to_string(layout.depth) + " threads=" +
              std::to_string(layout.num_threads));
    }
  }
}

// Decode really is charged: the same query without simulate_decode is
// strictly cheaper in trace seconds.
TEST(DecodePrefetchEquivalenceTest, SimulatedDecodeChargesIntoTheTrace) {
  auto fx = DecodeFixture::Make();
  engine::SearchEngine plain(&fx->repo, &fx->chunking, &fx->truth);
  engine::SearchEngine decoded(&fx->repo, &fx->chunking, &fx->truth,
                               DecodeConfig(/*prefetch_depth=*/4, 2));
  const engine::QueryOptions options = MakeQueryOptions(engine::Method::kRandom);
  auto without = plain.FindDistinct(0, 30, options);
  auto with = decoded.FindDistinct(0, 30, options);
  ASSERT_TRUE(without.ok() && with.ok());
  EXPECT_EQ(without.value().final.samples, with.value().final.samples);
  EXPECT_GT(with.value().final.seconds, without.value().final.seconds);
}

// The session exposes prefetcher observability, and the books balance:
// every sampled frame is decoded exactly once, within the configured window.
TEST(DecodePrefetchEquivalenceTest, SessionPrefetcherStatsBalance) {
  auto fx = DecodeFixture::Make();
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth,
                              DecodeConfig(/*prefetch_depth=*/4, 2));
  auto session =
      engine.CreateSession(0, 30, MakeQueryOptions(engine::Method::kExSample));
  ASSERT_TRUE(session.ok());
  const query::QueryTrace trace = session.value()->Finish();
  ASSERT_NE(session.value()->prefetcher(), nullptr);
  const query::PrefetchStats& stats = session.value()->prefetcher()->stats();
  EXPECT_EQ(stats.frames, trace.final.samples);
  EXPECT_LE(stats.max_ahead, 4u);
  EXPECT_GT(stats.async_reads, 0u);
  const video::SimulatedVideoStore* store =
      session.value()->shard_dispatcher()->Context(0).store;
  ASSERT_NE(store, nullptr);
  const video::DecodeStats& decode = store->Stats();
  EXPECT_EQ(decode.random_reads + decode.sequential_reads, trace.final.samples);
}

// (d) Composed with sharding: at every shard count, the prefetching path
// reproduces that shard count's synchronous trace bit for bit (per-shard
// stores and position state, with every shard's decode and detect on the
// engine's one pool).
TEST(DecodePrefetchShardingTest, AllMethodsBitIdenticalAtEveryShardCount) {
  auto fx = DecodeFixture::Make();
  for (const size_t shards : {1u, 2u, 5u}) {
    auto sharded_repo = video::ShardedRepository::ShardByClips(fx->repo, shards);
    ASSERT_TRUE(sharded_repo.ok());
    for (const engine::Method method : kAllMethods) {
      engine::SearchEngine sync_engine(&sharded_repo.value(), &fx->chunking,
                                       &fx->truth, DecodeConfig(0));
      auto base = sync_engine.FindDistinct(0, 30, MakeQueryOptions(method));
      ASSERT_TRUE(base.ok()) << engine::MethodName(method);
      for (const size_t depth : {1u, 4u}) {
        const engine::EngineConfig config = DecodeConfig(depth, /*num_threads=*/4);
        engine::SearchEngine engine(&sharded_repo.value(), &fx->chunking, &fx->truth,
                                    config);
        auto trace = engine.FindDistinct(0, 30, MakeQueryOptions(method));
        ASSERT_TRUE(trace.ok()) << engine::MethodName(method);
        ExpectTracesIdentical(base.value(), trace.value(),
                              std::string(engine::MethodName(method)) + " shards=" +
                                  std::to_string(shards) + " depth=" +
                                  std::to_string(depth));
      }
    }
  }
}

// Concurrent sessions share the engine's pool for decode and detect alike;
// interleaving their prefetching steps changes no trace (same result as
// running each alone).
TEST(DecodePrefetchShardingTest, ConcurrentSessionsSharingPrefetchPools) {
  auto fx = DecodeFixture::Make();
  const engine::EngineConfig config = DecodeConfig(/*prefetch_depth=*/4, 4);

  std::vector<engine::QuerySpec> specs;
  for (const engine::Method method :
       {engine::Method::kExSample, engine::Method::kRandom,
        engine::Method::kSequential}) {
    engine::QuerySpec spec;
    spec.class_id = 0;
    spec.limit = 20;
    spec.options = MakeQueryOptions(method);
    specs.push_back(spec);
  }

  engine::SearchEngine concurrent(&fx->repo, &fx->chunking, &fx->truth, config);
  auto traces = concurrent.RunConcurrent(specs);
  ASSERT_TRUE(traces.ok());
  ASSERT_EQ(traces.value().size(), specs.size());

  for (size_t i = 0; i < specs.size(); ++i) {
    engine::SearchEngine alone(&fx->repo, &fx->chunking, &fx->truth, config);
    auto solo = alone.FindDistinct(specs[i].class_id, specs[i].limit, specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectTracesIdentical(solo.value(), traces.value()[i],
                          "concurrent session " + std::to_string(i));
  }
}

}  // namespace
}  // namespace exsample
