// Engine-wide observability: the unified counter registry (per-writer slabs
// aggregated by Sync), per-stage latency histograms (StageTimer), and the
// versioned JSON export — plus the stats-primitive regression fixes that
// rode along (RunningStat::Merge equivalence, DetectorService::FillRate
// zero-guard). The suite carries the `stats` label (plus `concurrency`: CI
// re-runs it under TSan — the slab-tick-vs-Sync path is the one deliberately
// unlocked concurrency in the subsystem).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "engine/search_engine.h"
#include "query/detector_service.h"
#include "query/trace.h"
#include "scene/generator.h"
#include "stats/counter_registry.h"
#include "stats/running_stat.h"
#include "stats/stage_timer.h"
#include "stats/stats_json.h"

namespace exsample {
namespace stats {
namespace {

// --- CounterRegistry --------------------------------------------------------

TEST(CounterRegistryTest, RegisterDedupsByNameAndKind) {
  CounterRegistry registry;
  const MetricId a = registry.RegisterCounter("frames");
  const MetricId b = registry.RegisterCounter("frames");
  const MetricId c = registry.RegisterCounter("steps");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.NumCounters(), 2u);
  // Gauges are a separate id space: the same name is a distinct metric.
  const MetricId g = registry.RegisterGauge("frames");
  EXPECT_EQ(g, registry.RegisterGauge("frames"));
  EXPECT_EQ(registry.NumGauges(), 1u);
}

TEST(CounterRegistryTest, SyncSumsAcrossSlabs) {
  CounterRegistry registry;
  const MetricId frames = registry.RegisterCounter("frames");
  const MetricId depth = registry.RegisterGauge("depth");
  CounterSlab* a = registry.AcquireSlab("session/0");
  CounterSlab* b = registry.AcquireSlab("session/1");
  a->Add(frames, 3);
  b->Add(frames, 4);
  a->SetGauge(depth, 1.5);
  b->SetGauge(depth, 2.0);  // Gauges sum too: each slab owns its share.

  StatsSnapshot snap = registry.Sync();
  EXPECT_EQ(snap.counters.at("frames"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("depth"), 3.5);
  EXPECT_EQ(snap.sync_sequence, 1u);
  EXPECT_EQ(registry.Sync().sync_sequence, 2u);
}

TEST(CounterRegistryTest, RetiredSlabsKeepSyncTotalsExact) {
  CounterRegistry registry;
  const MetricId frames = registry.RegisterCounter("frames");
  const MetricId depth = registry.RegisterGauge("depth");
  CounterSlab* a = registry.AcquireSlab("session/0");
  CounterSlab* b = registry.AcquireSlab("session/1");
  CounterSlab* c = registry.AcquireSlab("service");
  a->Add(frames, 3);
  b->Add(frames, 4);
  c->Add(frames, 5);
  c->SetGauge(depth, 2.5);
  registry.RetireSlab(a);
  registry.RetireSlab(b);
  EXPECT_EQ(registry.NumSlabs(), 1u);

  // A counter registered after the retirements still syncs from zero.
  const MetricId late = registry.RegisterCounter("late");
  c->Add(frames, 1);
  c->Add(late, 2);
  StatsSnapshot snap = registry.Sync();
  EXPECT_EQ(snap.counters.at("frames"), 13u);
  EXPECT_EQ(snap.counters.at("late"), 2u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("depth"), 2.5);
}

TEST(CounterRegistryTest, NullSafeHelpersAreNoOpsOnNull) {
  SlabAdd(nullptr, 0, 5);
  SlabSetGauge(nullptr, 0, 1.0);
  CounterRegistry registry;
  const MetricId id = registry.RegisterCounter("x");
  CounterSlab* slab = registry.AcquireSlab("s");
  SlabAdd(slab, id);
  SlabAdd(slab, id, 2);
  EXPECT_EQ(slab->CounterValue(id), 3u);
}

// The TSan target: one writer thread ticking its own slab while the main
// thread Syncs concurrently. Single-writer relaxed slots must be data-race
// free against the aggregating reader, and no increment may be lost once
// the writer has joined.
TEST(CounterRegistryTest, SyncUnderConcurrentIncrementIsRaceFreeAndLossless) {
  CounterRegistry registry;
  const MetricId ticks = registry.RegisterCounter("ticks");
  const MetricId level = registry.RegisterGauge("level");
  CounterSlab* slab = registry.AcquireSlab("writer");

  constexpr uint64_t kIterations = 20000;
  std::atomic<bool> start{false};
  std::thread writer([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    for (uint64_t i = 0; i < kIterations; ++i) {
      slab->Add(ticks);
      slab->SetGauge(level, static_cast<double>(i));
    }
  });

  start.store(true, std::memory_order_release);
  uint64_t last_seen = 0;
  for (int i = 0; i < 200; ++i) {
    const StatsSnapshot snap = registry.Sync();
    const uint64_t seen = snap.counters.at("ticks");
    EXPECT_GE(seen, last_seen) << "counter went backwards under sync";
    EXPECT_LE(seen, kIterations);
    last_seen = seen;
  }
  writer.join();
  EXPECT_EQ(registry.Sync().counters.at("ticks"), kIterations);
}

// --- StageTimer -------------------------------------------------------------

TEST(StageTimerTest, RecordTalliesCountTotalAndHistogram) {
  StageTimer timer;
  timer.Record(Stage::kDetect, 0.010);
  timer.Record(Stage::kDetect, 0.020);
  timer.Record(Stage::kPick, 0.001);
  EXPECT_EQ(timer.Count(Stage::kDetect), 2u);
  EXPECT_DOUBLE_EQ(timer.TotalSeconds(Stage::kDetect), 0.030);
  EXPECT_EQ(timer.Count(Stage::kPick), 1u);
  EXPECT_EQ(timer.Count(Stage::kObserve), 0u);
  EXPECT_EQ(timer.StageHistogram(Stage::kDetect).InRangeCount(), 2u);
}

TEST(StageTimerTest, ZeroDurationLandsInNonFiniteBucketNotABin) {
  // log10(0) = -inf: the histogram's non-finite bucket (satellite fix)
  // absorbs it instead of corrupting a bin index.
  StageTimer timer;
  timer.Record(Stage::kDecode, 0.0);
  EXPECT_EQ(timer.Count(Stage::kDecode), 1u);
  EXPECT_EQ(timer.StageHistogram(Stage::kDecode).NonFinite(), 1u);
  EXPECT_EQ(timer.StageHistogram(Stage::kDecode).InRangeCount(), 0u);
}

TEST(StageTimerTest, QuantilesAreOrderedAndBracketTheSamples) {
  StageTimer timer;
  for (int i = 0; i < 900; ++i) timer.Record(Stage::kDetect, 0.001);
  for (int i = 0; i < 100; ++i) timer.Record(Stage::kDetect, 1.0);
  const double p50 = timer.ApproxQuantileSeconds(Stage::kDetect, 0.5);
  const double p95 = timer.ApproxQuantileSeconds(Stage::kDetect, 0.95);
  const double p99 = timer.ApproxQuantileSeconds(Stage::kDetect, 0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // p50 sits near the 1ms mode, p99 near the 1s tail (log-bin resolution
  // is a tenth of a decade, so compare within a factor of ~2).
  EXPECT_NEAR(std::log10(p50), -3.0, 0.3);
  EXPECT_NEAR(std::log10(p99), 0.0, 0.3);
  EXPECT_EQ(timer.ApproxQuantileSeconds(Stage::kPick, 0.5), 0.0);
}

TEST(StageTimerTest, MergeMatchesDirectRecording) {
  StageTimer direct;
  StageTimer part_a;
  StageTimer part_b;
  const double samples_a[] = {0.001, 0.5, 2e-6};
  const double samples_b[] = {0.01, 0.0, 150.0};  // 0 → non-finite, 150 → overflow.
  for (double s : samples_a) {
    direct.Record(Stage::kDetect, s);
    part_a.Record(Stage::kDetect, s);
  }
  for (double s : samples_b) {
    direct.Record(Stage::kDetect, s);
    part_b.Record(Stage::kDetect, s);
  }
  part_a.Merge(part_b);
  EXPECT_EQ(part_a.Count(Stage::kDetect), direct.Count(Stage::kDetect));
  EXPECT_DOUBLE_EQ(part_a.TotalSeconds(Stage::kDetect),
                   direct.TotalSeconds(Stage::kDetect));
  const Histogram& merged = part_a.StageHistogram(Stage::kDetect);
  const Histogram& expected = direct.StageHistogram(Stage::kDetect);
  EXPECT_EQ(merged.NonFinite(), expected.NonFinite());
  EXPECT_EQ(merged.Overflow(), expected.Overflow());
  for (size_t i = 0; i < merged.NumBins(); ++i) {
    EXPECT_EQ(merged.BinCount(i), expected.BinCount(i)) << "bin " << i;
  }
}

TEST(StageTimerTest, ScopedIsNullSafeAndRecordsOnExit) {
  { StageTimer::Scoped noop(nullptr, Stage::kPick); }
  StageTimer timer;
  { StageTimer::Scoped scope(&timer, Stage::kPick); }
  EXPECT_EQ(timer.Count(Stage::kPick), 1u);
  TimerRecord(nullptr, Stage::kPick, 1.0);
  TimerRecord(&timer, Stage::kPick, 1.0);
  EXPECT_EQ(timer.Count(Stage::kPick), 2u);
}

// --- JSON export ------------------------------------------------------------

TEST(StatsJsonTest, GoldenSnapshotIsByteExact) {
  StatsSnapshot snap;
  snap.sync_sequence = 7;
  snap.counters["execution.steps"] = 42;
  snap.counters["service.frames"] = 1280;
  // The serving layer's per-tenant metric family (scope `tenant/<id>`,
  // names `tenant.<id>.*`) exports through the same snapshot; the dotted
  // tenant id segment must survive the deterministic key ordering.
  snap.counters["tenant.acme.admitted"] = 3;
  snap.counters["tenant.acme.shed"] = 1;
  snap.gauges["service.fill_rate"] = 0.75;
  snap.gauges["tenant.acme.charged_seconds"] = 12.5;
  snap.gauges["tenant.acme.live_sessions"] = 2;
  const std::string json = WriteStatsJson(snap, nullptr);
  const std::string expected =
      "{\n"
      "  \"version\": 1,\n"
      "  \"sync_sequence\": 7,\n"
      "  \"counters\": {\n"
      "    \"execution.steps\": 42,\n"
      "    \"service.frames\": 1280,\n"
      "    \"tenant.acme.admitted\": 3,\n"
      "    \"tenant.acme.shed\": 1\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"service.fill_rate\": 0.75,\n"
      "    \"tenant.acme.charged_seconds\": 12.5,\n"
      "    \"tenant.acme.live_sessions\": 2\n"
      "  },\n"
      "  \"stages\": {}\n"
      "}\n";
  EXPECT_EQ(json, expected);
}

TEST(StatsJsonTest, StagesEmitInEnumOrderWithQuantiles) {
  StatsSnapshot snap;
  StageTimer timer;
  timer.Record(Stage::kDetect, 0.01);
  const std::string json = WriteStatsJson(snap, &timer);
  // All eight stages present, in pipeline order, counts intact.
  size_t last = 0;
  for (const char* name : {"\"pick\"", "\"classify\"", "\"decode\"",
                           "\"detect\"", "\"discriminate\"", "\"observe\"",
                           "\"transport\"", "\"submit_to_grant\""}) {
    const size_t pos = json.find(name);
    ASSERT_NE(pos, std::string::npos) << name;
    EXPECT_GT(pos, last) << name << " out of order";
    last = pos;
  }
  EXPECT_NE(json.find("\"p95_seconds\""), std::string::npos);
}

TEST(StatsJsonTest, DoublesRoundTripAndEscapesAreSane) {
  EXPECT_EQ(JsonDouble(0.75), "0.75");
  EXPECT_EQ(JsonDouble(1.0), "1");
  EXPECT_EQ(JsonDouble(0.1), "0.1");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

// --- RunningStat::Merge equivalence (satellite regression suite) ------------

void ExpectStatsEqual(const RunningStat& merged, const RunningStat& bulk) {
  EXPECT_EQ(merged.Count(), bulk.Count());
  EXPECT_NEAR(merged.Mean(), bulk.Mean(), 1e-12);
  EXPECT_NEAR(merged.Variance(), bulk.Variance(), 1e-9);
  EXPECT_DOUBLE_EQ(merged.Min(), bulk.Min());
  EXPECT_DOUBLE_EQ(merged.Max(), bulk.Max());
}

TEST(RunningStatMergeTest, MergeEquivalentToBulkAdd) {
  RunningStat bulk;
  RunningStat left;
  RunningStat right;
  for (int i = 0; i < 100; ++i) {
    const double v = 0.37 * i - 20.0 + (i % 7);
    bulk.Add(v);
    (i < 41 ? left : right).Add(v);
  }
  left.Merge(right);
  ExpectStatsEqual(left, bulk);
}

TEST(RunningStatMergeTest, MergeWithEmptySides) {
  RunningStat bulk;
  RunningStat populated;
  for (int i = 0; i < 10; ++i) {
    bulk.Add(i * 1.5);
    populated.Add(i * 1.5);
  }
  RunningStat empty_right = populated;
  empty_right.Merge(RunningStat());
  ExpectStatsEqual(empty_right, bulk);

  RunningStat empty_left;
  empty_left.Merge(populated);
  ExpectStatsEqual(empty_left, bulk);

  RunningStat both;
  both.Merge(RunningStat());
  EXPECT_EQ(both.Count(), 0u);
  EXPECT_EQ(both.Mean(), 0.0);
  EXPECT_EQ(both.Variance(), 0.0);
}

TEST(RunningStatMergeTest, MergeSingleObservationSides) {
  RunningStat bulk;
  RunningStat one;
  RunningStat many;
  bulk.Add(5.0);
  one.Add(5.0);
  for (int i = 0; i < 6; ++i) {
    bulk.Add(static_cast<double>(i));
    many.Add(static_cast<double>(i));
  }
  one.Merge(many);
  ExpectStatsEqual(one, bulk);
}

// --- DetectorService::FillRate zero-guard (satellite fix) -------------------

TEST(DetectorServiceStatsTest, FillRateIsZeroBeforeAnyBatch) {
  query::DetectorServiceOptions options;
  options.device_batch = 32;
  query::DetectorService service(options);
  // Regression: with zero device batches this divided 0/0 → NaN.
  EXPECT_EQ(service.FillRate(), 0.0);
  EXPECT_TRUE(std::isfinite(service.FillRate()));
}

// --- Engine integration -----------------------------------------------------

struct EngineFixture {
  video::VideoRepository repo;
  video::Chunking chunking;
  scene::GroundTruth truth;

  EngineFixture(video::VideoRepository r, video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)), chunking(std::move(c)), truth(std::move(t)) {}

  static std::unique_ptr<EngineFixture> Make(uint64_t seed = 11) {
    common::Rng rng(seed);
    const uint64_t frames = 40000;
    auto repo = video::VideoRepository::UniformClips(4, frames / 4);
    auto chunking = video::MakeFixedCountChunks(frames, 16).value();
    scene::SceneSpec spec;
    spec.total_frames = frames;
    scene::ClassPopulationSpec events;
    events.class_id = 0;
    events.instance_count = 60;
    events.duration.mean_frames = 120.0;
    spec.classes.push_back(events);
    auto truth = std::move(scene::GenerateScene(spec, &chunking, rng)).value();
    return std::make_unique<EngineFixture>(std::move(repo), std::move(chunking),
                                           std::move(truth));
  }
};

engine::EngineConfig OracleConfig() {
  engine::EngineConfig config;
  config.discriminator = engine::EngineConfig::DiscriminatorKind::kOracle;
  config.detector = detect::DetectorOptions::Perfect(0);
  return config;
}

TEST(EngineStatsTest, StatsJsonReflectsACompletedWorkload) {
  auto fx = EngineFixture::Make();
  engine::EngineConfig config = OracleConfig();
  config.coalesce_detect = true;
  config.device_batch = 16;
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);

  std::vector<engine::QuerySpec> specs(3);
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].class_id = 0;
    specs[i].limit = 8;
    specs[i].options.batch_size = 4;
    specs[i].options.exsample.seed = 7 + i;
  }
  auto traces = engine.RunConcurrent(specs);
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();

  const std::string json = engine.StatsJson();
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"execution.steps\""), std::string::npos);
  EXPECT_NE(json.find("\"execution.frames_picked\""), std::string::npos);
  EXPECT_NE(json.find("\"service.frames\""), std::string::npos);
  EXPECT_NE(json.find("\"service.fill_rate\""), std::string::npos);

  // The registry's picked-frame counter agrees with the traces' own
  // accounting, and the stage histograms saw the sessions' detect stages.
  stats::StatsSnapshot snap = engine.counter_registry()->Sync();
  uint64_t samples = 0;
  for (const query::QueryTrace& t : traces.value()) samples += t.final.samples;
  EXPECT_EQ(snap.counters.at("execution.frames_picked"), samples);
  EXPECT_GT(engine.stage_timer().Count(Stage::kPick), 0u);
  EXPECT_GT(engine.stage_timer().Count(Stage::kDetect), 0u);
  EXPECT_GT(engine.stage_timer().Count(Stage::kSubmitToGrant), 0u);
}

TEST(EngineStatsTest, FinishedSessionsRetireTheirSlabs) {
  // A session's slab lives only while the session does: Finish folds its
  // ticks into the registry's retired totals and frees it, and the synced
  // counters read exactly what they read while every slab was live.
  auto fx = EngineFixture::Make();
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth,
                              OracleConfig());
  stats::CounterRegistry* registry = engine.counter_registry();

  constexpr size_t kSessions = 5;
  std::vector<std::unique_ptr<engine::QuerySession>> sessions;
  uint64_t steps = 0;
  uint64_t samples = 0;
  for (size_t i = 0; i < kSessions; ++i) {
    engine::QueryOptions options;
    options.batch_size = 4;
    options.exsample.seed = 40 + i;
    auto session =
        engine.CreateSession(/*class_id=*/0, /*limit=*/3 + i, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    while (session.value()->Step()) {
    }
    steps += session.value()->scheduler_stats().steps_granted;
    samples += session.value()->Trace().final.samples;
    sessions.push_back(std::move(session).value());
  }
  EXPECT_EQ(registry->NumSlabs(), kSessions);
  const StatsSnapshot live = registry->Sync();
  EXPECT_EQ(live.counters.at("execution.steps"), steps);
  EXPECT_EQ(live.counters.at("execution.frames_picked"), samples);

  for (const auto& session : sessions) session->Finish();
  EXPECT_EQ(registry->NumSlabs(), 0u);
  const StatsSnapshot retired = registry->Sync();
  EXPECT_EQ(retired.counters, live.counters);
}

TEST(EngineStatsTest, CollectionIsTraceNeutral) {
  // The observability contract: enabling stats must not change a single
  // trace bit. Same fixture, same specs, collect_stats on vs off.
  auto fx = EngineFixture::Make();
  std::vector<engine::QuerySpec> specs(3);
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].class_id = 0;
    specs[i].limit = 10;
    specs[i].options.batch_size = 4;
    specs[i].options.exsample.seed = 100 + i;
  }

  engine::EngineConfig on = OracleConfig();
  on.coalesce_detect = true;
  on.device_batch = 16;
  engine::EngineConfig off = on;
  off.collect_stats = false;

  engine::SearchEngine engine_on(&fx->repo, &fx->chunking, &fx->truth, on);
  engine::SearchEngine engine_off(&fx->repo, &fx->chunking, &fx->truth, off);
  auto traces_on = engine_on.RunConcurrent(specs);
  auto traces_off = engine_off.RunConcurrent(specs);
  ASSERT_TRUE(traces_on.ok());
  ASSERT_TRUE(traces_off.ok());
  ASSERT_EQ(traces_on.value().size(), traces_off.value().size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(query::TracesBitIdentical(traces_on.value()[i],
                                          traces_off.value()[i]))
        << "session " << i;
  }
  // And off really is off: nothing was registered or recorded.
  EXPECT_EQ(engine_off.counter_registry()->NumCounters(), 0u);
  EXPECT_EQ(engine_off.stage_timer().Count(Stage::kPick), 0u);
}

}  // namespace
}  // namespace stats
}  // namespace exsample
