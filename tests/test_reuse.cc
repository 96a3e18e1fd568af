// Cross-query reuse suite — the reuse subsystem's contract, proven rather
// than asserted:
//
//  (a) components: the detection cache is exact (hits return stored bytes
//      verbatim), evicts deterministically under a fixed budget (oldest
//      empty first, non-empty pinned until no empty remains), and refreshes
//      in place; the scanned sketch never reports a never-scanned or
//      non-empty frame as empty, however the Bloom bits fall (the exact
//      guards make a skip a proof, not a bet); the belief bank accumulates
//      posterior counts and builds warm priors that are pure Bayesian
//      accumulation at weight 1;
//  (b) keying: the repository fingerprint is memoized, incremental, and
//      sensitive to clip names and frame rates — two different recordings
//      with identical layouts can never share cached detections — and the
//      detector-config hash separates configs that would detect differently;
//  (c) engine equivalence: with reuse off, every method × shard count is
//      bit-identical to the reuse-less engine; with reuse on, the first
//      (cold) query is bit-identical to a reuse-off run, and a repeated
//      identical query reproduces the cold run's discovery sequence exactly
//      while charging (far) fewer detector seconds — the cached detections
//      are bit-identical, so every downstream byte matches;
//  (d) the sketch stands in for cache-evicted empty outcomes, and warm
//      start wires persisted posteriors into later sessions' priors.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/belief_policy.h"
#include "engine/search_engine.h"
#include "reuse/belief_bank.h"
#include "reuse/detection_cache.h"
#include "reuse/reuse.h"
#include "reuse/scanned_sketch.h"
#include "scene/generator.h"
#include "video/sharded_repository.h"

namespace exsample {
namespace {

reuse::ReuseKey MakeKey(uint64_t repo = 0x1111, uint64_t config = 0x2222,
                        int32_t class_id = 0) {
  reuse::ReuseKey key;
  key.repo_fingerprint = repo;
  key.detector_config = config;
  key.class_id = class_id;
  return key;
}

detect::Detections MakeDetections(size_t count, int32_t class_id = 0) {
  detect::Detections detections;
  for (size_t i = 0; i < count; ++i) {
    detect::Detection d;
    d.box = {10.0 * static_cast<double>(i), 5.0, 20.0, 15.0};
    d.class_id = class_id;
    d.confidence = 0.5 + 0.1 * static_cast<double>(i);
    d.source_instance = static_cast<scene::InstanceId>(i);
    detections.push_back(d);
  }
  return detections;
}

void ExpectDetectionsEqual(const detect::Detections& a, const detect::Detections& b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].box.x, b[i].box.x) << what << " box " << i;
    EXPECT_EQ(a[i].box.y, b[i].box.y) << what << " box " << i;
    EXPECT_EQ(a[i].class_id, b[i].class_id) << what << " class " << i;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << what << " confidence " << i;
    EXPECT_EQ(a[i].source_instance, b[i].source_instance) << what << " src " << i;
  }
}

// ---------------------------------------------------------------------------
// (a) Detection cache
// ---------------------------------------------------------------------------

TEST(DetectionCacheTest, HitReturnsStoredDetectionsVerbatim) {
  reuse::DetectionCache cache;
  const reuse::ReuseKey key = MakeKey();
  const detect::Detections stored = MakeDetections(3);

  detect::Detections out;
  EXPECT_FALSE(cache.Lookup(key, 42, &out));
  cache.Insert(key, 42, stored);
  ASSERT_TRUE(cache.Lookup(key, 42, &out));
  ExpectDetectionsEqual(stored, out, "cached hit");

  const reuse::DetectionCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.nonempty_entries, 1u);
}

TEST(DetectionCacheTest, KeysDoNotAlias) {
  reuse::DetectionCache cache;
  cache.Insert(MakeKey(1, 2, 3), 7, MakeDetections(2));
  detect::Detections out;
  // Same frame under any different key component misses.
  EXPECT_FALSE(cache.Lookup(MakeKey(9, 2, 3), 7, &out));
  EXPECT_FALSE(cache.Lookup(MakeKey(1, 9, 3), 7, &out));
  EXPECT_FALSE(cache.Lookup(MakeKey(1, 2, 9), 7, &out));
  EXPECT_TRUE(cache.Lookup(MakeKey(1, 2, 3), 7, &out));
}

TEST(DetectionCacheTest, EvictsOldestEmptyBeforeAnyNonEmpty) {
  reuse::DetectionCacheOptions options;
  options.budget_frames = 3;
  reuse::DetectionCache cache(options);
  const reuse::ReuseKey key = MakeKey();

  cache.Insert(key, 1, MakeDetections(2));  // non-empty, oldest overall
  cache.Insert(key, 2, {});                 // empty, oldest empty
  cache.Insert(key, 3, {});                 // empty
  cache.Insert(key, 4, MakeDetections(1));  // over budget: evicts frame 2

  detect::Detections out;
  EXPECT_TRUE(cache.Lookup(key, 1, &out));   // non-empty survives
  EXPECT_FALSE(cache.Lookup(key, 2, &out));  // oldest empty evicted
  EXPECT_TRUE(cache.Lookup(key, 3, &out));
  EXPECT_TRUE(cache.Lookup(key, 4, &out));

  cache.Insert(key, 5, {});  // evicts frame 3 (the only remaining empty)
  EXPECT_FALSE(cache.Lookup(key, 3, &out));
  EXPECT_TRUE(cache.Lookup(key, 1, &out));

  cache.Insert(key, 6, {});  // no empty left but 5/6: evicts... frame 5
  const reuse::DetectionCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evicted_empty + stats.evicted_nonempty, 3u);
}

TEST(DetectionCacheTest, EvictsOldestNonEmptyWhenNoEmptyRemains) {
  reuse::DetectionCacheOptions options;
  options.budget_frames = 2;
  reuse::DetectionCache cache(options);
  const reuse::ReuseKey key = MakeKey();
  cache.Insert(key, 1, MakeDetections(1));
  cache.Insert(key, 2, MakeDetections(2));
  cache.Insert(key, 3, MakeDetections(3));  // evicts frame 1
  detect::Detections out;
  EXPECT_FALSE(cache.Lookup(key, 1, &out));
  EXPECT_TRUE(cache.Lookup(key, 2, &out));
  EXPECT_TRUE(cache.Lookup(key, 3, &out));
  EXPECT_EQ(cache.Stats().evicted_nonempty, 1u);
}

TEST(DetectionCacheTest, ReinsertRefreshesInPlaceWithoutDuplicateTickets) {
  reuse::DetectionCacheOptions options;
  options.budget_frames = 2;
  reuse::DetectionCache cache(options);
  const reuse::ReuseKey key = MakeKey();
  cache.Insert(key, 1, {});
  cache.Insert(key, 1, MakeDetections(2));  // refresh: empty -> non-empty
  cache.Insert(key, 2, {});
  EXPECT_EQ(cache.Stats().entries, 2u);
  EXPECT_EQ(cache.Stats().nonempty_entries, 1u);

  // The stale empty ticket for frame 1 must not evict the refreshed entry:
  // going over budget evicts frame 2 (the only live empty entry).
  cache.Insert(key, 3, MakeDetections(1));
  detect::Detections out;
  EXPECT_TRUE(cache.Lookup(key, 1, &out));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FALSE(cache.Lookup(key, 2, &out));
}

// Eviction is a deterministic function of the insertion sequence: two caches
// fed the same sequence under the same budget agree on every surviving entry
// and every counter.
TEST(DetectionCacheTest, EvictionDeterministicUnderFixedBudget) {
  reuse::DetectionCacheOptions options;
  options.budget_frames = 16;
  reuse::DetectionCache a(options);
  reuse::DetectionCache b(options);
  common::Rng rng(123);
  std::vector<std::pair<video::FrameId, detect::Detections>> sequence;
  for (int i = 0; i < 200; ++i) {
    const video::FrameId frame = rng.NextU64() % 64;
    sequence.emplace_back(frame, MakeDetections(rng.NextU64() % 3));
  }
  const reuse::ReuseKey key = MakeKey();
  for (const auto& [frame, detections] : sequence) {
    a.Insert(key, frame, detections);
    b.Insert(key, frame, detections);
  }
  const reuse::DetectionCacheStats sa = a.Stats();
  const reuse::DetectionCacheStats sb = b.Stats();
  EXPECT_EQ(sa.entries, sb.entries);
  EXPECT_EQ(sa.nonempty_entries, sb.nonempty_entries);
  EXPECT_EQ(sa.evicted_empty, sb.evicted_empty);
  EXPECT_EQ(sa.evicted_nonempty, sb.evicted_nonempty);
  EXPECT_LE(sa.entries, 16u);
  for (video::FrameId frame = 0; frame < 64; ++frame) {
    detect::Detections da, db;
    const bool ha = a.Lookup(key, frame, &da);
    const bool hb = b.Lookup(key, frame, &db);
    EXPECT_EQ(ha, hb) << "frame " << frame;
    if (ha && hb) ExpectDetectionsEqual(da, db, "replayed entry");
  }
}

// ---------------------------------------------------------------------------
// (a) Scanned sketch
// ---------------------------------------------------------------------------

TEST(ScannedSketchTest, KnownEmptyOnlyAfterEmptyScan) {
  reuse::ScannedSketch sketch;
  const reuse::ReuseKey key = MakeKey();
  EXPECT_FALSE(sketch.KnownEmpty(key, 5));
  sketch.RecordScan(key, 5, /*found_empty=*/true, /*total_frames=*/100);
  EXPECT_TRUE(sketch.KnownEmpty(key, 5));
  // A frame scanned and found non-empty is never reported empty.
  sketch.RecordScan(key, 6, /*found_empty=*/false, 100);
  EXPECT_FALSE(sketch.KnownEmpty(key, 6));
  // Unscanned neighbors stay unknown.
  EXPECT_FALSE(sketch.KnownEmpty(key, 7));
}

TEST(ScannedSketchTest, KeysDoNotAlias) {
  reuse::ScannedSketch sketch;
  sketch.RecordScan(MakeKey(1, 2, 3), 5, true, 100);
  EXPECT_FALSE(sketch.KnownEmpty(MakeKey(9, 2, 3), 5));
  EXPECT_FALSE(sketch.KnownEmpty(MakeKey(1, 2, 9), 5));
  EXPECT_TRUE(sketch.KnownEmpty(MakeKey(1, 2, 3), 5));
}

// The FP-safety property itself: a deliberately tiny Bloom filter saturates
// with false positives, yet KnownEmpty never affirms a frame that was not
// really scanned-and-empty — the exact guards catch every one, and the
// catches are visible in `guard_rejects`.
TEST(ScannedSketchTest, SaturatedBloomNeverYieldsUnsafeSkip) {
  reuse::ScannedSketchOptions options;
  options.bloom_bits = 64;  // Minimum size: collisions guaranteed.
  options.num_hashes = 2;
  reuse::ScannedSketch sketch(options);
  const reuse::ReuseKey key = MakeKey();
  const uint64_t total_frames = 4096;
  // Record even frames empty, odd multiples of 3 non-empty; the rest were
  // never scanned.
  for (video::FrameId frame = 0; frame < total_frames; frame += 2) {
    sketch.RecordScan(key, frame, /*found_empty=*/true, total_frames);
  }
  for (video::FrameId frame = 3; frame < total_frames; frame += 6) {
    sketch.RecordScan(key, frame, /*found_empty=*/false, total_frames);
  }
  for (video::FrameId frame = 0; frame < total_frames; ++frame) {
    const bool really_empty_scan = (frame % 2) == 0;
    EXPECT_EQ(sketch.KnownEmpty(key, frame), really_empty_scan) << frame;
  }
  // With a 64-bit filter and 2048 inserts, the Bloom answers "maybe" for
  // nearly everything — the guards must have rejected many positives.
  EXPECT_GT(sketch.Stats().guard_rejects, 0u);
  EXPECT_EQ(sketch.Stats().known_empty, total_frames / 2);
}

// ---------------------------------------------------------------------------
// (a) Belief bank
// ---------------------------------------------------------------------------

TEST(BeliefBankTest, WarmPriorsAreBayesianAccumulationAtWeightOne) {
  reuse::BeliefBank bank;
  const reuse::ReuseKey key = MakeKey();
  const uint64_t signature = 0xABCD;
  core::BeliefParams base;
  EXPECT_TRUE(bank.WarmPriors(key, signature, base, 1.0).empty());

  core::ChunkStatsTable stats(3);
  stats.Update(0, 2, 0);  // n=1, N1=2
  stats.Update(0, 1, 0);  // n=2, N1=3
  stats.Update(2, 0, 1);  // n=1, N1=-1 -> clamped to 0
  bank.RecordPosterior(key, signature, stats);

  const std::vector<core::BeliefParams> priors =
      bank.WarmPriors(key, signature, base, 1.0);
  ASSERT_EQ(priors.size(), 3u);
  EXPECT_DOUBLE_EQ(priors[0].alpha0, base.alpha0 + 3.0);
  EXPECT_DOUBLE_EQ(priors[0].beta0, base.beta0 + 2.0);
  EXPECT_DOUBLE_EQ(priors[1].alpha0, base.alpha0);
  EXPECT_DOUBLE_EQ(priors[1].beta0, base.beta0);
  EXPECT_DOUBLE_EQ(priors[2].alpha0, base.alpha0);  // N1 clamped at 0
  EXPECT_DOUBLE_EQ(priors[2].beta0, base.beta0 + 1.0);

  // A second recording accumulates; half weight discounts it.
  bank.RecordPosterior(key, signature, stats);
  const std::vector<core::BeliefParams> half =
      bank.WarmPriors(key, signature, base, 0.5);
  EXPECT_DOUBLE_EQ(half[0].alpha0, base.alpha0 + 0.5 * 6.0);
  EXPECT_DOUBLE_EQ(half[0].beta0, base.beta0 + 0.5 * 4.0);

  // Other signatures and keys stay cold.
  EXPECT_TRUE(bank.WarmPriors(key, signature + 1, base, 1.0).empty());
  EXPECT_TRUE(bank.WarmPriors(MakeKey(9, 9, 9), signature, base, 1.0).empty());
}

TEST(BeliefBankTest, ChunkingSignatureSeparatesLayouts) {
  const uint64_t frames = 1000;
  const auto eight = video::MakeFixedCountChunks(frames, 8).value();
  const auto eight_again = video::MakeFixedCountChunks(frames, 8).value();
  const auto ten = video::MakeFixedCountChunks(frames, 10).value();
  EXPECT_EQ(reuse::ChunkingSignature(eight), reuse::ChunkingSignature(eight_again));
  EXPECT_NE(reuse::ChunkingSignature(eight), reuse::ChunkingSignature(ten));
}

// A uniform chunk_priors vector equal to the flat prior is bit-identical to
// no priors at all — the warm-start seam is a pure prior substitution.
TEST(BeliefPolicyTest, UniformChunkPriorsMatchFlatPrior) {
  core::BeliefParams params;
  core::ChunkStatsTable flat(4, params);
  core::ChunkStatsTable warmed(4, params, std::vector<core::BeliefParams>(4, params));
  for (core::ChunkStatsTable* stats : {&flat, &warmed}) {
    stats->Update(1, 3, 0);
    stats->Update(2, 1, 1);
  }
  core::ThompsonPolicy policy;
  common::Rng rng_a(99), rng_b(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(policy.PickChunk(flat, rng_a), policy.PickChunk(warmed, rng_b));
  }
}

// ---------------------------------------------------------------------------
// (b) Keying: repository fingerprint & detector-config hash
// ---------------------------------------------------------------------------

TEST(ReuseKeyTest, FingerprintSensitiveToNamesAndFps) {
  video::VideoRepository a;
  a.AddClip("cam1.mp4", 1000, 30.0);
  a.AddClip("cam2.mp4", 500, 30.0);

  // Identical layout, different clip name: a different recording.
  video::VideoRepository b;
  b.AddClip("cam1.mp4", 1000, 30.0);
  b.AddClip("cam3.mp4", 500, 30.0);

  // Identical layout and names, different fps.
  video::VideoRepository c;
  c.AddClip("cam1.mp4", 1000, 30.0);
  c.AddClip("cam2.mp4", 500, 25.0);

  // True twin: must agree (same dataset reopened).
  video::VideoRepository twin;
  twin.AddClip("cam1.mp4", 1000, 30.0);
  twin.AddClip("cam2.mp4", 500, 30.0);

  EXPECT_EQ(a.Fingerprint(), twin.Fingerprint());
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
  // Memoized value stays stable across calls.
  EXPECT_EQ(a.Fingerprint(), a.Fingerprint());
}

TEST(ReuseKeyTest, DetectorConfigHashSeparatesConfigs) {
  detect::DetectorOptions base;
  EXPECT_EQ(detect::DetectorOptionsHash(base), detect::DetectorOptionsHash(base));

  detect::DetectorOptions other = base;
  other.miss_prob += 0.01;
  EXPECT_NE(detect::DetectorOptionsHash(base), detect::DetectorOptionsHash(other));

  detect::DetectorOptions cls = base;
  cls.target_class = base.target_class + 1;
  EXPECT_NE(detect::DetectorOptionsHash(base), detect::DetectorOptionsHash(cls));
}

// ---------------------------------------------------------------------------
// (c) Engine equivalence
// ---------------------------------------------------------------------------

struct ReuseFixture {
  video::VideoRepository repo;
  video::Chunking chunking;
  scene::GroundTruth truth;

  ReuseFixture(video::VideoRepository r, video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)), chunking(std::move(c)), truth(std::move(t)) {}

  static std::unique_ptr<ReuseFixture> Make(uint64_t seed = 77) {
    const uint64_t frames = 20000;
    common::Rng rng(seed);
    auto chunking = video::MakeFixedCountChunks(frames, 8).value();
    scene::SceneSpec spec;
    spec.total_frames = frames;
    scene::ClassPopulationSpec cls;
    cls.instance_count = 120;
    cls.duration.mean_frames = 90.0;
    spec.classes.push_back(cls);
    return std::make_unique<ReuseFixture>(
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
  EXPECT_TRUE(query::TracesBitIdentical(a, b)) << what;
  ASSERT_EQ(a.points.size(), b.points.size()) << what;
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].samples, b.points[i].samples) << what << " point " << i;
    EXPECT_EQ(a.points[i].seconds, b.points[i].seconds) << what << " point " << i;
  }
}

// The cold run's *discovery sequence* (which frames found what, in what
// order) without the cost axis: a reuse-on repeat must reproduce it exactly
// — same samples, same results — while its `seconds` drop.
void ExpectSameDiscoverySequence(const query::QueryTrace& cold,
                                 const query::QueryTrace& warm,
                                 const std::string& what) {
  ASSERT_EQ(cold.points.size(), warm.points.size()) << what;
  for (size_t i = 0; i < cold.points.size(); ++i) {
    EXPECT_EQ(cold.points[i].samples, warm.points[i].samples) << what << " " << i;
    EXPECT_EQ(cold.points[i].reported_results, warm.points[i].reported_results)
        << what << " " << i;
    EXPECT_EQ(cold.points[i].true_distinct, warm.points[i].true_distinct)
        << what << " " << i;
  }
  EXPECT_EQ(cold.final.samples, warm.final.samples) << what;
  EXPECT_EQ(cold.final.reported_results, warm.final.reported_results) << what;
  EXPECT_EQ(cold.final.true_distinct, warm.final.true_distinct) << what;
}

// Reuse off (the default) is bit-identical to the engine predating reuse —
// and the first query of a reuse-on engine (an empty cache: all misses) is
// bit-identical to reuse-off, for every method and shard count.
TEST(ReuseEquivalenceTest, ReuseOffAndColdFirstQueryBitIdenticalEverywhere) {
  auto fx = ReuseFixture::Make();
  for (const engine::Method method : kAllMethods) {
    engine::SearchEngine off(&fx->repo, &fx->chunking, &fx->truth);
    auto base = off.FindDistinct(0, 30, MakeQueryOptions(method));
    ASSERT_TRUE(base.ok()) << engine::MethodName(method);
    EXPECT_GT(base.value().final.samples, 0u);

    for (const size_t shards : {1u, 2u, 5u}) {
      engine::EngineConfig config;
      config.reuse = reuse::ReuseOptions::All();
      config.num_shards = shards;
      engine::SearchEngine on(&fx->repo, &fx->chunking, &fx->truth, config);
      auto cold = on.FindDistinct(0, 30, MakeQueryOptions(method));
      ASSERT_TRUE(cold.ok()) << engine::MethodName(method);
      ExpectTracesIdentical(base.value(), cold.value(),
                            std::string(engine::MethodName(method)) +
                                " cold-vs-off shards=" + std::to_string(shards));
    }
  }
}

// A repeated identical query answers from the cache: bit-identical
// detections reproduce the cold discovery sequence exactly, at a fraction of
// the charged detector seconds, with saved_detector_seconds accounting for
// the difference.
TEST(ReuseEquivalenceTest, RepeatedQueryBitIdenticalDetectionsAndCheaper) {
  auto fx = ReuseFixture::Make();
  for (const size_t shards : {1u, 2u, 5u}) {
    engine::EngineConfig config;
    config.reuse.cache = true;
    config.reuse.sketch = true;
    config.num_shards = shards;
    engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);
    const engine::QueryOptions options = MakeQueryOptions(engine::Method::kExSample);

    auto cold_session = engine.CreateSession(0, 30, options);
    ASSERT_TRUE(cold_session.ok());
    const query::QueryTrace cold = cold_session.value()->Finish();
    EXPECT_EQ(cold_session.value()->reuse_stats().cache_hits, 0u);
    EXPECT_EQ(cold_session.value()->reuse_stats().saved_detector_seconds, 0.0);

    auto warm_session = engine.CreateSession(0, 30, options);
    ASSERT_TRUE(warm_session.ok());
    const query::QueryTrace warm = warm_session.value()->Finish();
    const reuse::ReuseSessionStats& stats = warm_session.value()->reuse_stats();

    const std::string what = "shards=" + std::to_string(shards);
    ExpectSameDiscoverySequence(cold, warm, what);
    // Same strategy seed, fresh session: the repeat picks the same frames,
    // so every lookup hits and zero detector seconds are charged.
    EXPECT_EQ(stats.cache_hits, cold.final.samples) << what;
    EXPECT_EQ(stats.cache_misses, 0u) << what;
    EXPECT_GT(stats.saved_detector_seconds, 0.0) << what;
    EXPECT_EQ(stats.charged_detector_seconds, 0.0) << what;
    EXPECT_LT(warm.final.seconds, cold.final.seconds) << what;
  }
}

// The same contract holds through the shared detector service: pre-filtered
// batches (misses only) coalesce across sessions without changing a byte.
TEST(ReuseEquivalenceTest, RepeatedQueryThroughCoalescedServiceMatches) {
  auto fx = ReuseFixture::Make();
  engine::EngineConfig off_config;
  off_config.coalesce_detect = true;
  engine::SearchEngine off(&fx->repo, &fx->chunking, &fx->truth, off_config);
  const engine::QueryOptions options = MakeQueryOptions(engine::Method::kExSample);
  auto base = off.FindDistinct(0, 30, options);
  ASSERT_TRUE(base.ok());

  engine::EngineConfig config;
  config.coalesce_detect = true;
  config.reuse.cache = true;
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);
  auto cold = engine.CreateSession(0, 30, options);
  ASSERT_TRUE(cold.ok());
  const query::QueryTrace cold_trace = cold.value()->Finish();
  ExpectTracesIdentical(base.value(), cold_trace, "service cold-vs-off");

  auto warm = engine.CreateSession(0, 30, options);
  ASSERT_TRUE(warm.ok());
  const query::QueryTrace warm_trace = warm.value()->Finish();
  ExpectSameDiscoverySequence(cold_trace, warm_trace, "service repeat");
  EXPECT_GT(warm.value()->reuse_stats().cache_hits, 0u);
  EXPECT_GT(warm.value()->reuse_stats().saved_detector_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// (d) Sketch recovery after eviction, and warm-started beliefs
// ---------------------------------------------------------------------------

// With the cache squeezed to a tiny budget, most of the first query's empty
// outcomes are evicted — and the sketch stands in for them: the repeat still
// reproduces the cold discovery sequence, with its empty frames served as
// FP-safe sketch skips instead of cache hits.
TEST(ReuseSketchTest, SketchServesEvictedEmptyOutcomes) {
  auto fx = ReuseFixture::Make();
  engine::EngineConfig config;
  config.reuse.cache = true;
  config.reuse.sketch = true;
  config.reuse.cache_budget_frames = 16;  // Far below the query's footprint.
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);
  const engine::QueryOptions options = MakeQueryOptions(engine::Method::kExSample);

  auto cold = engine.CreateSession(0, 30, options);
  ASSERT_TRUE(cold.ok());
  const query::QueryTrace cold_trace = cold.value()->Finish();
  ASSERT_GT(cold_trace.final.samples, 2 * config.reuse.cache_budget_frames);

  auto warm = engine.CreateSession(0, 30, options);
  ASSERT_TRUE(warm.ok());
  const query::QueryTrace warm_trace = warm.value()->Finish();
  const reuse::ReuseSessionStats& stats = warm.value()->reuse_stats();

  ExpectSameDiscoverySequence(cold_trace, warm_trace, "tiny-budget repeat");
  EXPECT_GT(stats.sketch_skips, 0u);
  EXPECT_GT(stats.saved_detector_seconds, 0.0);
  // Hits + skips + misses account for every sample.
  EXPECT_EQ(stats.cache_hits + stats.sketch_skips + stats.cache_misses,
            warm_trace.final.samples);
}

TEST(ReuseWarmStartTest, SecondQueryWarmStartsAndBanksPosteriors) {
  auto fx = ReuseFixture::Make();
  engine::EngineConfig config;
  config.reuse.warm_start = true;
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);
  const engine::QueryOptions options = MakeQueryOptions(engine::Method::kExSample);

  auto first = engine.CreateSession(0, 30, options);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value()->reuse_stats().warm_started);
  first.value()->Finish();
  ASSERT_NE(engine.reuse_manager(), nullptr);
  EXPECT_EQ(engine.reuse_manager()->beliefs().Stats().posteriors_recorded, 1u);

  auto second = engine.CreateSession(0, 30, options);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value()->reuse_stats().warm_started);
  const query::QueryTrace warm = second.value()->Finish();
  EXPECT_GT(warm.final.reported_results, 0u);
  EXPECT_EQ(engine.reuse_manager()->beliefs().Stats().posteriors_recorded, 2u);
  EXPECT_EQ(engine.reuse_manager()->beliefs().Stats().warm_starts, 1u);

  // Warm start alone never touches the detect stage: no cache, no sketch.
  EXPECT_EQ(second.value()->reuse_stats().cache_hits, 0u);
  EXPECT_EQ(second.value()->reuse_stats().sketch_skips, 0u);
}

// Methods without chunk beliefs pass through the warm-start seam unchanged
// (nothing harvested, nothing seeded) — and stay bit-identical.
TEST(ReuseWarmStartTest, BeliefFreeMethodsUnaffectedByWarmStart) {
  auto fx = ReuseFixture::Make();
  engine::SearchEngine off(&fx->repo, &fx->chunking, &fx->truth);
  engine::EngineConfig config;
  config.reuse.warm_start = true;
  engine::SearchEngine on(&fx->repo, &fx->chunking, &fx->truth, config);
  for (const engine::Method method :
       {engine::Method::kRandom, engine::Method::kSequential}) {
    const engine::QueryOptions options = MakeQueryOptions(method);
    auto base = off.FindDistinct(0, 30, options);
    auto first = on.FindDistinct(0, 30, options);
    auto second = on.FindDistinct(0, 30, options);
    ASSERT_TRUE(base.ok() && first.ok() && second.ok());
    ExpectTracesIdentical(base.value(), first.value(),
                          std::string(engine::MethodName(method)) + " first");
    ExpectTracesIdentical(base.value(), second.value(),
                          std::string(engine::MethodName(method)) + " second");
  }
}

}  // namespace
}  // namespace exsample
