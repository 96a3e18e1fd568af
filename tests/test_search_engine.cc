#include "engine/search_engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "scene/generator.h"

namespace exsample {
namespace engine {
namespace {

struct EngineFixture {
  video::VideoRepository repo;
  video::Chunking chunking;
  scene::GroundTruth truth;

  EngineFixture(video::VideoRepository r, video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)), chunking(std::move(c)), truth(std::move(t)) {}

  static std::unique_ptr<EngineFixture> Make(uint64_t seed = 5) {
    common::Rng rng(seed);
    const uint64_t frames = 100000;
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
    return std::make_unique<EngineFixture>(
        video::VideoRepository::SingleClip(frames), std::move(chunking),
        std::move(scene::GenerateScene(spec, &chunking, rng)).value());
  }
};

EngineConfig OracleConfig() {
  EngineConfig config;
  config.discriminator = EngineConfig::DiscriminatorKind::kOracle;
  config.detector = detect::DetectorOptions::Perfect(0);
  return config;
}

TEST(SearchEngineTest, FindDistinctReachesLimit) {
  auto fx = EngineFixture::Make();
  SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, OracleConfig());
  auto trace = engine.FindDistinct(/*class_id=*/0, /*limit=*/25);
  ASSERT_TRUE(trace.ok());
  EXPECT_GE(trace.value().final.reported_results, 25u);
  EXPECT_LT(trace.value().final.samples, 100000u);
}

TEST(SearchEngineTest, FindDistinctValidatesLimit) {
  auto fx = EngineFixture::Make();
  SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, OracleConfig());
  EXPECT_FALSE(engine.FindDistinct(0, 0).ok());
}

TEST(SearchEngineTest, RunToRecallValidates) {
  auto fx = EngineFixture::Make();
  SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, OracleConfig());
  EXPECT_FALSE(engine.RunToRecall(0, 0.0).ok());
  EXPECT_FALSE(engine.RunToRecall(0, 1.5).ok());
  // Unknown class: NotFound.
  EXPECT_EQ(engine.RunToRecall(99, 0.5).status().code(),
            common::StatusCode::kNotFound);
}

TEST(SearchEngineTest, RunToRecallCoversFraction) {
  auto fx = EngineFixture::Make();
  SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, OracleConfig());
  auto trace = engine.RunToRecall(0, 0.5);
  ASSERT_TRUE(trace.ok());
  EXPECT_GE(trace.value().final.true_distinct, 60u);  // 50% of 120.
}

class SearchEngineMethodTest : public ::testing::TestWithParam<Method> {};

TEST_P(SearchEngineMethodTest, EveryMethodCompletesAQuery) {
  const Method method = GetParam();
  auto fx = EngineFixture::Make();
  SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, OracleConfig());
  QueryOptions options;
  options.method = method;
  auto trace = engine.RunToRecall(0, 0.3, options);
  ASSERT_TRUE(trace.ok()) << MethodName(method);
  EXPECT_GE(trace.value().final.true_distinct, 36u) << MethodName(method);
  // Strategy name flows into the trace.
  EXPECT_FALSE(trace.value().strategy_name.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Methods, SearchEngineMethodTest,
    ::testing::Values(Method::kExSample, Method::kExSampleAdaptive, Method::kRandom,
                      Method::kRandomPlus, Method::kSequential, Method::kProxyGuided,
                      Method::kHybrid),
    [](const ::testing::TestParamInfo<Method>& info) {
      std::string name = MethodName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SearchEngineTest, ProxyQueryPaysScanExSampleDoesNot) {
  auto fx = EngineFixture::Make();
  SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, OracleConfig());
  QueryOptions proxy;
  proxy.method = Method::kProxyGuided;
  auto proxy_trace = engine.RunToRecall(0, 0.1, proxy);
  auto ex_trace = engine.RunToRecall(0, 0.1, QueryOptions{});
  ASSERT_TRUE(proxy_trace.ok() && ex_trace.ok());
  // 100k frames at 100 fps = 1000 s scan for the proxy.
  EXPECT_GE(proxy_trace.value().final.seconds, 1000.0);
  EXPECT_LT(ex_trace.value().final.seconds, proxy_trace.value().final.seconds);
}

TEST(SearchEngineTest, TrackerDiscriminatorByDefault) {
  auto fx = EngineFixture::Make();
  EngineConfig config;  // Default: IoU tracker, noisy detector defaults.
  config.detector.miss_prob = 0.1;
  SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);
  auto trace = engine.FindDistinct(0, 15);
  ASSERT_TRUE(trace.ok());
  EXPECT_GE(trace.value().final.reported_results, 15u);
}

TEST(SearchEngineTest, RareClassQuery) {
  auto fx = EngineFixture::Make();
  SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, OracleConfig());
  auto trace = engine.RunToRecall(/*class_id=*/1, 0.5);
  ASSERT_TRUE(trace.ok());
  EXPECT_GE(trace.value().final.true_distinct, 5u);
}

TEST(SearchEngineTest, MaxSamplesCapRespected) {
  auto fx = EngineFixture::Make();
  SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, OracleConfig());
  QueryOptions options;
  options.max_samples = 50;
  auto trace = engine.FindDistinct(0, 1000000, options);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().final.samples, 50u);
}

// Options a strategy would assert on or abort over are refused with
// InvalidArgument, by solo queries and by RunConcurrent alike; the latter
// refuses before it builds the valid proxy session listed first. A refused
// query builds no session, so it draws no warm start from the belief bank.
TEST(SearchEngineTest, RejectsInvalidQueryOptions) {
  auto fx = EngineFixture::Make();
  EngineConfig config = OracleConfig();
  config.reuse = reuse::ReuseOptions::All();
  SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);
  ASSERT_TRUE(engine.FindDistinct(0, 5).ok());  // Banks a posterior for class 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, QueryOptions>> bad;
  const auto add = [&bad](const std::string& what, Method method,
                          const std::function<void(QueryOptions&)>& set) {
    QueryOptions options;
    options.method = method;
    set(options);
    bad.emplace_back(what, options);
  };
  add("sequential stride 0", Method::kSequential,
      [](QueryOptions& o) { o.sequential_stride = 0; });
  add("adaptive min_chunk_frames 0", Method::kExSampleAdaptive, [](QueryOptions& o) {
    o.adaptive.min_chunk_frames = 0;
    o.adaptive.split_threshold = 1;
  });
  for (const double f : {-0.25, 1.5, nan}) {
    add("adaptive inherit_fraction " + std::to_string(f), Method::kExSampleAdaptive,
        [f](QueryOptions& o) { o.adaptive.inherit_fraction = f; });
  }
  for (const double v : {0.0, -1.0, nan, inf}) {
    const std::string value = std::to_string(v);
    add("exsample alpha0 " + value, Method::kExSample,
        [v](QueryOptions& o) { o.exsample.belief.alpha0 = v; });
    add("exsample beta0 " + value, Method::kExSample,
        [v](QueryOptions& o) { o.exsample.belief.beta0 = v; });
    add("adaptive alpha0 " + value, Method::kExSampleAdaptive,
        [v](QueryOptions& o) { o.adaptive.belief.alpha0 = v; });
    add("adaptive beta0 " + value, Method::kExSampleAdaptive,
        [v](QueryOptions& o) { o.adaptive.belief.beta0 = v; });
    add("hybrid alpha0 " + value, Method::kHybrid,
        [v](QueryOptions& o) { o.hybrid.belief.alpha0 = v; });
    add("hybrid beta0 " + value, Method::kHybrid,
        [v](QueryOptions& o) { o.hybrid.belief.beta0 = v; });
  }
  add("hybrid candidates_per_pick 0", Method::kHybrid,
      [](QueryOptions& o) { o.hybrid.candidates_per_pick = 0; });

  QuerySpec proxy;
  proxy.limit = 5;
  proxy.options.method = Method::kProxyGuided;
  for (const auto& [what, options] : bad) {
    EXPECT_EQ(engine.FindDistinct(0, 5, options).status().code(),
              common::StatusCode::kInvalidArgument)
        << what;
    QuerySpec spec;
    spec.limit = 5;
    spec.options = options;
    EXPECT_EQ(engine.RunConcurrent({proxy, spec}).status().code(),
              common::StatusCode::kInvalidArgument)
        << what;
  }
  EXPECT_EQ(engine.reuse_manager()->beliefs().Stats().warm_starts, 0u);
}

// --- Sharded-engine concurrency determinism ---------------------------------
//
// `RunConcurrent` over a sharded repository must yield per-session traces
// identical to solo runs (and to the unsharded engine): interleaving many
// queries over shared shard contexts never leaks state between sessions.

struct ShardedEngineFixture {
  video::VideoRepository repo;
  video::ShardedRepository sharded;
  video::Chunking chunking;
  scene::GroundTruth truth;

  ShardedEngineFixture(video::VideoRepository r, video::ShardedRepository s,
                       video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)),
        sharded(std::move(s)),
        chunking(std::move(c)),
        truth(std::move(t)) {}

  /// Multi-clip variant of EngineFixture (same frame count, chunking, and
  /// scene) so clip-aligned sharding has boundaries to cut at.
  static std::unique_ptr<ShardedEngineFixture> Make(size_t num_shards,
                                                    uint64_t seed = 5) {
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
    auto truth = std::move(scene::GenerateScene(spec, &chunking, rng)).value();
    return std::make_unique<ShardedEngineFixture>(std::move(repo), std::move(sharded),
                                                  std::move(chunking),
                                                  std::move(truth));
  }
};

void ExpectSameTrace(const query::QueryTrace& a, const query::QueryTrace& b,
                     const char* what) {
  EXPECT_TRUE(query::TracesBitIdentical(a, b)) << what;
  EXPECT_EQ(a.final.samples, b.final.samples) << what;
  EXPECT_EQ(a.final.seconds, b.final.seconds) << what;
  EXPECT_EQ(a.final.reported_results, b.final.reported_results) << what;
  EXPECT_EQ(a.final.true_distinct, b.final.true_distinct) << what;
}

TEST(SearchEngineShardTest, RunConcurrentOnShardedEngineMatchesSoloRuns) {
  auto fx = ShardedEngineFixture::Make(/*num_shards=*/4);
  EngineConfig config = OracleConfig();
  config.num_threads = 2;  // Shared engine pool exercised across sessions.
  engine::SearchEngine sharded_engine(&fx->sharded, &fx->chunking, &fx->truth, config);
  engine::SearchEngine unsharded_engine(&fx->repo, &fx->chunking, &fx->truth, config);

  std::vector<QuerySpec> specs;
  for (const Method method :
       {Method::kExSample, Method::kRandomPlus, Method::kHybrid}) {
    QuerySpec spec;
    spec.class_id = 0;
    spec.limit = 15;
    spec.options.method = method;
    spec.options.batch_size = 8;
    specs.push_back(spec);
  }

  auto concurrent = sharded_engine.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_EQ(concurrent.value().size(), specs.size());

  for (size_t i = 0; i < specs.size(); ++i) {
    // Interleaved == solo on the sharded engine == solo on the unsharded one.
    auto solo = sharded_engine.FindDistinct(specs[i].class_id, specs[i].limit,
                                            specs[i].options);
    auto unsharded = unsharded_engine.FindDistinct(specs[i].class_id, specs[i].limit,
                                                   specs[i].options);
    ASSERT_TRUE(solo.ok() && unsharded.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i], "sharded concurrent vs solo");
    ExpectSameTrace(unsharded.value(), concurrent.value()[i],
                    "sharded concurrent vs unsharded solo");
  }
}

TEST(SearchEngineShardTest, InterleavedShardedSessionsMatchSoloRuns) {
  auto fx = ShardedEngineFixture::Make(/*num_shards=*/3);
  EngineConfig config = OracleConfig();
  config.num_threads = 2;  // One pool shared by both sessions' fan-out.
  engine::SearchEngine engine(&fx->sharded, &fx->chunking, &fx->truth, config);

  QueryOptions a_options;
  a_options.method = Method::kExSample;
  a_options.batch_size = 4;
  QueryOptions b_options;
  b_options.method = Method::kRandom;
  b_options.batch_size = 4;

  auto a = engine.CreateSession(0, 20, a_options);
  auto b = engine.CreateSession(0, 20, b_options);
  ASSERT_TRUE(a.ok() && b.ok());

  // Unfair interleaving (two A steps per B step): scheduling order must not
  // matter because session state is fully isolated.
  bool progress = true;
  while (progress) {
    progress = false;
    if (a.value()->Step()) progress = true;
    if (a.value()->Step()) progress = true;
    if (b.value()->Step()) progress = true;
  }
  const query::QueryTrace a_trace = a.value()->Finish();
  const query::QueryTrace b_trace = b.value()->Finish();

  auto a_solo = engine.FindDistinct(0, 20, a_options);
  auto b_solo = engine.FindDistinct(0, 20, b_options);
  ASSERT_TRUE(a_solo.ok() && b_solo.ok());
  ExpectSameTrace(a_solo.value(), a_trace, "interleaved session A");
  ExpectSameTrace(b_solo.value(), b_trace, "interleaved session B");
}

TEST(SearchEngineShardTest, SessionExposesShardObservability) {
  auto fx = ShardedEngineFixture::Make(/*num_shards=*/4);
  engine::SearchEngine engine(&fx->sharded, &fx->chunking, &fx->truth, OracleConfig());
  auto session = engine.CreateSession(0, 10);
  ASSERT_TRUE(session.ok());
  ASSERT_NE(session.value()->shard_dispatcher(), nullptr);
  EXPECT_EQ(session.value()->shard_dispatcher()->NumShards(), 4u);
  const query::QueryTrace trace = session.value()->Finish();
  uint64_t detected = 0;
  for (const query::ShardStats& stats : session.value()->shard_dispatcher()->Stats()) {
    detected += stats.frames_detected;
  }
  EXPECT_EQ(detected, trace.final.samples);
  // Unsharded engines run every session over one shard context, with the
  // same attribution.
  engine::SearchEngine plain(&fx->repo, &fx->chunking, &fx->truth, OracleConfig());
  auto plain_session = plain.CreateSession(0, 10);
  ASSERT_TRUE(plain_session.ok());
  const query::ShardDispatcher* one_shard = plain_session.value()->shard_dispatcher();
  ASSERT_NE(one_shard, nullptr);
  EXPECT_EQ(one_shard->NumShards(), 1u);
  const query::QueryTrace plain_trace = plain_session.value()->Finish();
  uint64_t plain_detected = 0;
  for (const query::ShardStats& stats : one_shard->Stats()) {
    plain_detected += stats.frames_detected;
  }
  EXPECT_EQ(plain_detected, plain_trace.final.samples);
  EXPECT_GT(plain_detected, 0u);
}

TEST(MethodNameTest, AllNamed) {
  EXPECT_STREQ(MethodName(Method::kExSample), "exsample");
  EXPECT_STREQ(MethodName(Method::kExSampleAdaptive), "exsample-adaptive");
  EXPECT_STREQ(MethodName(Method::kRandom), "random");
  EXPECT_STREQ(MethodName(Method::kRandomPlus), "random+");
  EXPECT_STREQ(MethodName(Method::kSequential), "sequential");
  EXPECT_STREQ(MethodName(Method::kProxyGuided), "proxy");
  EXPECT_STREQ(MethodName(Method::kHybrid), "hybrid");
}

}  // namespace
}  // namespace engine
}  // namespace exsample
