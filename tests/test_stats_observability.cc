// Engine-wide observability: the stats structs every component counts in,
// walked into one snapshot by SearchEngine::SnapshotStats (each field under
// one name, no field left out), per-stage latency histograms (StageTimer),
// the versioned JSON export and its periodic dump — plus the stats-primitive
// regression fixes that rode along (RunningStat::Merge equivalence,
// DetectorService::FillRate zero-guard). The suite carries the `stats` label
// (plus `concurrency`: the field-completeness workload runs loopback shard
// runners and decode-ahead tasks, which CI re-runs under TSan).

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <vector>

#include "engine/search_engine.h"
#include "query/detector_service.h"
#include "query/trace.h"
#include "scene/generator.h"
#include "serve/serving.h"
#include "stats/running_stat.h"
#include "stats/stage_timer.h"
#include "stats/stats_json.h"

namespace exsample {
namespace stats {
namespace {

// --- StatsWriter ------------------------------------------------------------

TEST(StatsWriterTest, PrefixesNamesAndCombinesSourcesByKind) {
  StatsSnapshot snap;
  for (const uint64_t frames : {3u, 4u}) {
    StatsWriter out(&snap, "session.");
    out.Counter("frames", frames);
    out.Counter("warm", frames == 4);  // A flag counts its setters.
    out.Gauge("seconds", 0.5 * static_cast<double>(frames));
    out.Max("ahead", static_cast<double>(frames));
  }
  EXPECT_EQ(snap.counters.at("session.frames"), 7u);
  EXPECT_EQ(snap.counters.at("session.warm"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("session.seconds"), 3.5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("session.ahead"), 4.0);
  EXPECT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.gauges.size(), 2u);
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

  // The picked-frame count agrees with the traces' own accounting and with
  // the frames the service detected (no reuse: every picked frame), and the
  // stage histograms saw the sessions' detect stages.
  const stats::StatsSnapshot snap = engine.SnapshotStats();
  uint64_t samples = 0;
  for (const query::QueryTrace& t : traces.value()) samples += t.final.samples;
  EXPECT_EQ(snap.counters.at("execution.frames_picked"), samples);
  EXPECT_EQ(snap.counters.at("execution.frames_detected"), samples);
  EXPECT_EQ(snap.counters.at("service.frames"), samples);
  EXPECT_GT(engine.stage_timer().Count(Stage::kPick), 0u);
  EXPECT_GT(engine.stage_timer().Count(Stage::kDetect), 0u);
  EXPECT_GT(engine.stage_timer().Count(Stage::kSubmitToGrant), 0u);
}

TEST(EngineStatsTest, FinishedSessionsFoldIntoTheTotals) {
  // The engine reads a session live only while the session is live: Finish
  // folds its stats into the engine's totals and drops it from the walk,
  // and the snapshot reads exactly what it read while every session was
  // live — sums of seconds and maxima included.
  auto fx = EngineFixture::Make();
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth,
                              OracleConfig());

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
  EXPECT_EQ(engine.NumLiveSessions(), kSessions);
  const StatsSnapshot live = engine.SnapshotStats();
  EXPECT_EQ(live.counters.at("execution.steps"), steps);
  EXPECT_EQ(live.counters.at("execution.frames_picked"), samples);

  for (const auto& session : sessions) session->Finish();
  EXPECT_EQ(engine.NumLiveSessions(), 0u);
  const StatsSnapshot retired = engine.SnapshotStats();
  EXPECT_EQ(retired.counters, live.counters);
  EXPECT_EQ(retired.gauges, live.gauges);
  EXPECT_EQ(retired.sync_sequence, live.sync_sequence + 1);
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
  // And off really is off: no stage was timed.
  for (size_t stage = 0; stage < kNumStages; ++stage) {
    EXPECT_EQ(engine_off.stage_timer().Count(static_cast<Stage>(stage)), 0u)
        << StageName(static_cast<Stage>(stage));
  }
}

// --- Export completeness and the periodic dump --------------------------------

// Reads the JSON `WriteStatsJson` emits — objects of numbers — into a flat
// map keyed by '/'-joined paths ("counters/service.frames",
// "stages/pick/count"). Returns false on anything malformed or trailing.
bool ReadStatsJson(const std::string& text, std::map<std::string, double>* out) {
  size_t pos = 0;
  const auto skip = [&] {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  };
  const auto eat = [&](char c) {
    skip();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  };
  std::function<bool(const std::string&)> value = [&](const std::string& path) {
    skip();
    if (!eat('{')) {
      const char* begin = text.c_str() + pos;
      char* end = nullptr;
      const double number = std::strtod(begin, &end);
      if (end == begin) return false;
      pos += static_cast<size_t>(end - begin);
      (*out)[path] = number;
      return true;
    }
    if (eat('}')) return true;
    do {
      if (!eat('"')) return false;
      const size_t close = text.find('"', pos);  // Stats keys hold no escapes.
      if (close == std::string::npos) return false;
      const std::string key = text.substr(pos, close - pos);
      pos = close + 1;
      if (!eat(':') || !value(path.empty() ? key : path + "/" + key)) return false;
    } while (eat(','));
    return eat('}');
  };
  if (!value("")) return false;
  skip();
  return pos == text.size();
}

// Every key `ExportFields` names for a default `S` under `prefix`, as the
// JSON paths `ReadStatsJson` reports them.
template <typename S>
std::vector<std::string> NamedPaths(const std::string& prefix) {
  StatsSnapshot names;
  Export(S{}, prefix, &names);
  std::vector<std::string> paths;
  for (const auto& entry : names.counters) paths.push_back("counters/" + entry.first);
  for (const auto& entry : names.gauges) paths.push_back("gauges/" + entry.first);
  return paths;
}

serve::TenantQuery TenantQueryFor(const std::string& tenant, size_t i) {
  serve::TenantQuery q;
  q.tenant = tenant;
  q.arrival_seconds = 0.5 * static_cast<double>(i);
  q.spec.class_id = 0;
  q.spec.limit = 6;
  q.spec.options.batch_size = 4;
  q.spec.options.exsample.seed = 60 + i;
  return q;
}

TEST(StatsExportTest, JsonHoldsEveryNamedFieldOfEveryStruct) {
  // One workload that reaches every stats struct: two shards over the
  // loopback transport, decode with prefetch, every reuse piece, and two
  // tenants. Each struct exports under its own prefix, so a field the walk
  // misses — or a struct it never reaches — leaves a key out.
  auto fx = EngineFixture::Make();
  engine::EngineConfig config = OracleConfig();
  config.transport = engine::TransportKind::kLoopback;
  config.num_shards = 2;
  config.num_threads = 2;
  config.simulate_decode = true;
  config.prefetch_depth = 2;
  config.reuse.cache = true;
  config.reuse.sketch = true;
  config.reuse.warm_start = true;
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);
  serve::TenantServer server(&engine, {});
  for (const char* id : {"a", "b"}) {
    serve::TenantSpec spec;
    spec.id = id;
    ASSERT_TRUE(server.AddTenant(spec).ok());
  }
  std::vector<serve::TenantQuery> queries;
  for (size_t i = 0; i < 4; ++i) queries.push_back(TenantQueryFor(i % 2 ? "b" : "a", i));
  auto outcomes = server.Serve(queries);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();

  std::map<std::string, double> json;
  ASSERT_TRUE(ReadStatsJson(engine.StatsJson(), &json));
  std::vector<std::string> expected;
  const auto expect = [&](std::vector<std::string> paths) {
    expected.insert(expected.end(), paths.begin(), paths.end());
  };
  expect(NamedPaths<query::DetectorServiceStats>("service."));
  expect(NamedPaths<query::TransportStats>("transport."));
  expect(NamedPaths<reuse::DetectionCacheStats>("reuse.cache."));
  expect(NamedPaths<reuse::ScannedSketchStats>("reuse.sketch."));
  expect(NamedPaths<reuse::BeliefBankStats>("reuse.beliefs."));
  expect(NamedPaths<serve::TenantUsage>("tenant.a."));
  expect(NamedPaths<serve::TenantUsage>("tenant.b."));
  expect(NamedPaths<query::SessionSchedulerStats>("session.scheduler."));
  expect(NamedPaths<reuse::ReuseSessionStats>("session.reuse."));
  expect(NamedPaths<query::PrefetchStats>("session.prefetch."));
  expect(NamedPaths<query::ShardStats>("session.shards."));
  expect(NamedPaths<video::DecodeStats>("session.decode."));
  for (const std::string& path : expected) EXPECT_EQ(json.count(path), 1u) << path;
  // The walk reached live work, not just default structs.
  EXPECT_GT(json["counters/session.prefetch.frames"], 0.0);
  EXPECT_GT(json["counters/session.decode.frames_decoded"], 0.0);
  EXPECT_GT(json["counters/transport.requests"], 0.0);
  EXPECT_EQ(json["counters/tenant.a.completed"] + json["counters/tenant.b.completed"],
            static_cast<double>(queries.size()));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

bool FileExists(const std::string& path) { return std::ifstream(path).good(); }

TEST(StatsExportTest, BothRoundLoopsDumpTheStatsWhole) {
  // `stats_dump_every_rounds` drives the periodic dump from RunConcurrent's
  // and TenantServer::Serve's round loops alike; each dump replaces the file
  // whole (written aside, then renamed), so no temp file is left behind.
  auto fx = EngineFixture::Make();
  for (const bool serve : {false, true}) {
    SCOPED_TRACE(serve ? "TenantServer::Serve" : "RunConcurrent");
    const std::string path = ::testing::TempDir() + "stats_dump_" +
                             (serve ? "serve" : "concurrent") + ".json";
    std::remove(path.c_str());
    engine::EngineConfig config = OracleConfig();
    config.stats_dump_path = path;
    config.stats_dump_every_rounds = 1;
    engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);
    std::vector<serve::TenantQuery> queries = {TenantQueryFor("t", 0),
                                               TenantQueryFor("t", 1)};
    if (serve) {
      serve::TenantServer server(&engine, {});
      serve::TenantSpec spec;
      spec.id = "t";
      ASSERT_TRUE(server.AddTenant(spec).ok());
      ASSERT_TRUE(server.Serve(queries).ok());
    } else {
      ASSERT_TRUE(engine.RunConcurrent({queries[0].spec, queries[1].spec}).ok());
    }
    std::map<std::string, double> json;
    ASSERT_TRUE(ReadStatsJson(ReadFile(path), &json)) << ReadFile(path);
    EXPECT_GT(json["counters/execution.steps"], 0.0);
    EXPECT_GT(json["sync_sequence"], 0.0);
    if (serve) {
      EXPECT_EQ(json.count("counters/tenant.t.admitted"), 1u);
    }
    EXPECT_FALSE(FileExists(path + ".tmp"));
    std::remove(path.c_str());
  }
  // A dump that cannot be written is an error, not an abort, and leaves
  // nothing behind.
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, OracleConfig());
  const std::string unwritable = ::testing::TempDir() + "no_such_dir/stats.json";
  EXPECT_FALSE(engine.WriteStatsFile(unwritable).ok());
  EXPECT_FALSE(FileExists(unwritable + ".tmp"));
}

}  // namespace
}  // namespace stats
}  // namespace exsample
