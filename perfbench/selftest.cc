// The benchmark's own tests: seeded streams are deterministic, the
// percentile rule picks the highest percentile with ten samples beyond it and
// prints the count, every ratio states its base, and BENCHMARK.json lists the
// metrics the benchmark prints.
//
//   bash perfbench/run.sh --selftest

#include <fstream>
#include <sstream>

#include "bench.h"
#include "gtest/gtest.h"

namespace perfbench {
namespace {

TEST(Stream, AnalystIsDeterministicPerSeed) {
  const AnalystStream a = MakeAnalystStream(7);
  const AnalystStream b = MakeAnalystStream(7);
  EXPECT_EQ(StreamDigest(a), StreamDigest(b));
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].class_id, b.queries[i].class_id);
    EXPECT_EQ(a.queries[i].query_seed, b.queries[i].query_seed);
  }
  EXPECT_EQ(a.dataset_seeds, b.dataset_seeds);
  EXPECT_NE(StreamDigest(a), StreamDigest(MakeAnalystStream(8)));
}

TEST(Stream, AnalystCompositionIsFixedAndLimitsReachable) {
  const std::vector<datasets::DatasetSpec> specs = datasets::AllDatasetSpecs();
  std::vector<size_t> exsample_counts;
  for (const uint64_t seed : {1, 2, 3}) {
    const AnalystStream s = MakeAnalystStream(seed);
    size_t exsample = 0;
    for (const AnalystQuery& q : s.queries) {
      exsample += q.method == engine::Method::kExSample;
      EXPECT_GE(q.limit, 10u);
      EXPECT_LE(q.limit, 50u);
      uint64_t instances = 0;
      for (const datasets::QuerySpec& c : specs[q.dataset % specs.size()].queries) {
        if (c.class_id == q.class_id) instances = c.instance_count;
      }
      EXPECT_GE(instances, 4 * q.limit);
    }
    EXPECT_GT(exsample * 2, s.queries.size());
    exsample_counts.push_back(exsample);
  }
  EXPECT_EQ(exsample_counts[0], exsample_counts[1]);
  EXPECT_EQ(exsample_counts[1], exsample_counts[2]);
}

TEST(Stream, ServeIsDeterministicPerSeedAndSorted) {
  const ServeStream a = MakeServeStream(11);
  const ServeStream b = MakeServeStream(11);
  EXPECT_EQ(StreamDigest(a), StreamDigest(b));
  EXPECT_NE(StreamDigest(a), StreamDigest(MakeServeStream(12)));
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].arrival_seconds, b.queries[i].arrival_seconds);
    EXPECT_EQ(a.queries[i].tenant, b.queries[i].tenant);
    if (i > 0) {
      EXPECT_LE(a.queries[i - 1].arrival_seconds, a.queries[i].arrival_seconds);
    }
  }
  ASSERT_EQ(a.tenants.size(), 3u);
  EXPECT_EQ(a.tenants[2].spec.slo, serve::SloClass::kBestEffort);
}

TEST(Stream, ServeLoadStretchesTheArrivalsToTheSoloSeconds) {
  const ServeStream nominal = MakeServeStream(11);
  ServeStream fitted = nominal;
  SetServeLoad(1000.0, &fitted);
  EXPECT_DOUBLE_EQ(fitted.span_seconds, 1000.0 / kServeLoad);
  const double stretch = fitted.span_seconds / nominal.span_seconds;
  for (size_t i = 0; i < fitted.queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(fitted.queries[i].arrival_seconds,
                     nominal.queries[i].arrival_seconds * stretch);
    EXPECT_LE(fitted.queries[i].arrival_seconds, fitted.span_seconds);
  }
}

TEST(PercentileRule, PicksHighestWithTenBeyond) {
  EXPECT_FALSE(HighestSupportedQuantile(19).has_value());
  EXPECT_EQ(HighestSupportedQuantile(20), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(99), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(100), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(999), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(1000), 0.99);
  EXPECT_EQ(HighestSupportedQuantile(10000), 0.999);
}

TEST(PercentileRule, PrintsCountAndRefusesUnsupported) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  Report report;
  report.AddQuantile("query_wall_ms_p90", values, 0.9);
  EXPECT_TRUE(report.failures().empty());
  const std::string lines = report.HumanLines();
  EXPECT_NE(lines.find("n=1000"), std::string::npos) << lines;
  EXPECT_NE(lines.find("highest supported: p99"), std::string::npos) << lines;

  Report short_report;
  short_report.AddQuantile("query_wall_ms_p90", std::vector<double>(99, 1.0), 0.9);
  EXPECT_EQ(short_report.failures().size(), 1u);
}

TEST(Timing, TakesEachItemsMedianPass) {
  // Three queries over three, two and one passes; one pass of the first hit
  // a stall.
  const std::vector<std::vector<double>> by_item = {{1.0, 9.0, 1.2}, {2.0, 3.0}, {4.0}, {}};
  EXPECT_EQ(MedianAcrossPasses(by_item), (std::vector<double>{1.2, 2.5, 4.0}));
}

TEST(Ratios, EveryRatioStatesItsBase) {
  for (const MetricDef& def : MetricCatalog()) {
    const std::string name = def.name;
    const std::string unit = def.unit;
    const bool ratio = unit == "ratio" || unit.find('/') != std::string::npos ||
                       name.find("per_") != std::string::npos ||
                       name.find("_mean") != std::string::npos;
    if (ratio) {
      EXPECT_NE(def.base, nullptr) << name;
    }
  }
  Report report;
  report.AddRatio("reuse.cache_hit_ratio", 3, 4);
  const std::string lines = report.HumanLines();
  EXPECT_NE(lines.find("base: cache lookups"), std::string::npos) << lines;
  EXPECT_NE(lines.find("3 / 4"), std::string::npos) << lines;
}

TEST(Report, ResultLineHoldsExactlyOneHalfOfTheCatalog) {
  Report report;
  for (const MetricDef& def : MetricCatalog()) {
    if (def.end_to_end) report.Add(def.name, 1.5, 1);
  }
  const std::string line = report.ResultLine(true, 10, 0);
  EXPECT_TRUE(report.failures().empty());
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {", 0),
            0u)
      << line;
  for (const MetricDef& def : MetricCatalog()) {
    EXPECT_EQ(line.find(std::string("\"") + def.name + "\"") != std::string::npos,
              def.end_to_end)
        << def.name;
  }
  Report missing;
  missing.ResultLine(false, 1, 0);
  EXPECT_FALSE(missing.failures().empty());
}

TEST(Manifest, ListsEveryCatalogMetricWithItsUnit) {
  std::ifstream in(PERFBENCH_MANIFEST);
  ASSERT_TRUE(in.good()) << PERFBENCH_MANIFEST;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string manifest = buffer.str();
  for (const MetricDef& def : MetricCatalog()) {
    const std::string entry = std::string("\"name\": \"") + def.name +
                              "\", \"unit\": \"" + def.unit + "\"";
    EXPECT_NE(manifest.find(entry), std::string::npos) << entry;
  }
}

}  // namespace
}  // namespace perfbench
