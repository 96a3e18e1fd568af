// End-to-end integration tests: full query executions through the shared
// runner, reproducing the paper's headline comparisons at small scale.

#include <gtest/gtest.h>

#include <cmath>

#include "core/exsample.h"
#include "datasets/presets.h"
#include "detect/detector.h"
#include "detect/proxy.h"
#include "query/curves.h"
#include "query/runner.h"
#include "samplers/proxy_strategy.h"
#include "samplers/random_strategy.h"
#include "scene/generator.h"
#include "track/iou_discriminator.h"
#include "track/oracle_discriminator.h"

namespace exsample {
namespace {

struct Workload {
  video::VideoRepository repo;
  video::Chunking chunking;
  scene::GroundTruth truth;

  Workload(video::VideoRepository r, video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)), chunking(std::move(c)), truth(std::move(t)) {}

  // A strongly skewed scene: 95% of instances in the middle 1/16 of frames.
  static std::unique_ptr<Workload> Skewed(uint64_t frames, size_t chunks,
                                          uint64_t instances, double duration,
                                          uint64_t seed) {
    common::Rng rng(seed);
    auto chunking = video::MakeFixedCountChunks(frames, chunks).value();
    scene::SceneSpec spec;
    spec.total_frames = frames;
    scene::ClassPopulationSpec cls;
    cls.instance_count = instances;
    cls.duration.mean_frames = duration;
    cls.placement = scene::PlacementSpec::NormalCenter(1.0 / 16.0);
    spec.classes.push_back(cls);
    return std::make_unique<Workload>(
        video::VideoRepository::SingleClip(frames), std::move(chunking),
        std::move(scene::GenerateScene(spec, &chunking, rng)).value());
  }
};

// Runs one strategy to the given recall with an oracle discriminator and a
// perfect detector; returns the trace.
query::QueryTrace RunToRecall(const Workload& w, query::SearchStrategy* strategy,
                              double recall, uint64_t max_samples = 2'000'000,
                              size_t batch_size = 1) {
  detect::SimulatedDetector detector(&w.truth, detect::DetectorOptions::Perfect(0));
  track::OracleDiscriminator discrim;
  query::RunnerOptions options;
  options.true_distinct_target = static_cast<uint64_t>(
      std::ceil(recall * static_cast<double>(w.truth.NumInstances(0))));
  options.max_samples = max_samples;
  options.batch_size = batch_size;
  query::QueryRunner runner(&w.truth, &detector, &discrim, options);
  return runner.Run(strategy);
}

TEST(IntegrationTest, ExSampleBeatsRandomUnderSkew) {
  // The paper's core claim (Figs. 3, 5): with temporal skew, ExSample reaches
  // a recall level in fewer detector invocations than uniform random.
  auto w = Workload::Skewed(200000, 32, 400, 120.0, 1);
  std::vector<query::QueryTrace> random_runs, exsample_runs;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    samplers::UniformRandomStrategy random(&w->repo, 100 + seed);
    random_runs.push_back(RunToRecall(*w, &random, 0.5));
    core::ExSampleOptions options;
    options.seed = 200 + seed;
    core::ExSampleStrategy exsample(&w->chunking, options);
    exsample_runs.push_back(RunToRecall(*w, &exsample, 0.5));
  }
  const auto ratio = query::SavingsRatio(random_runs, exsample_runs, 0.5);
  ASSERT_TRUE(ratio.has_value());
  EXPECT_GT(*ratio, 1.3);
}

TEST(IntegrationTest, ExSampleCloseToRandomWithoutSkew) {
  // Fig. 3 top row: no skew -> ExSample ~ random (the paper reports ratios
  // 0.79x-1.1x). Assert we are within that band, i.e. never much worse.
  common::Rng rng(2);
  const uint64_t frames = 200000;
  auto chunking = video::MakeFixedCountChunks(frames, 32).value();
  scene::SceneSpec spec;
  spec.total_frames = frames;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 400;
  cls.duration.mean_frames = 120.0;
  spec.classes.push_back(cls);
  auto w = std::make_unique<Workload>(
      video::VideoRepository::SingleClip(frames), std::move(chunking),
      std::move(scene::GenerateScene(spec, nullptr, rng)).value());

  std::vector<query::QueryTrace> random_runs, exsample_runs;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    samplers::UniformRandomStrategy random(&w->repo, 300 + seed);
    random_runs.push_back(RunToRecall(*w, &random, 0.5));
    core::ExSampleOptions options;
    options.seed = 400 + seed;
    core::ExSampleStrategy exsample(&w->chunking, options);
    exsample_runs.push_back(RunToRecall(*w, &exsample, 0.5));
  }
  const auto ratio = query::SavingsRatio(random_runs, exsample_runs, 0.5);
  ASSERT_TRUE(ratio.has_value());
  EXPECT_GT(*ratio, 0.6);
  EXPECT_LT(*ratio, 1.7);
}

TEST(IntegrationTest, ProxyScanCostDominatesLimitQueries) {
  // Table I's argument: for limit queries, ExSample returns results before a
  // proxy approach finishes its mandatory scoring scan.
  auto w = Workload::Skewed(100000, 16, 300, 150.0, 3);
  detect::ProxyOptions proxy_opts;
  proxy_opts.target_class = 0;
  proxy_opts.noise_sigma = 0.0;  // Even a PERFECT proxy.
  detect::ProxyScorer scorer(&w->truth, proxy_opts);

  samplers::ProxyGuidedStrategy proxy(&w->repo, &scorer);
  const query::QueryTrace proxy_trace = RunToRecall(*w, &proxy, 0.1);

  core::ExSampleStrategy exsample(&w->chunking);
  const query::QueryTrace ex_trace = RunToRecall(*w, &exsample, 0.1);

  const auto proxy_time = proxy_trace.SecondsToRecall(0.1);
  const auto ex_time = ex_trace.SecondsToRecall(0.1);
  ASSERT_TRUE(proxy_time.has_value());
  ASSERT_TRUE(ex_time.has_value());
  // The proxy pays >= scan time (1000 s here) before its first result.
  EXPECT_GE(*proxy_time, 1000.0);
  EXPECT_LT(*ex_time, *proxy_time);
}

TEST(IntegrationTest, ProxyWinsOnSamplesButLosesOnTime) {
  // Sanity check that the proxy baseline is implemented *strongly*: by frame
  // count (ignoring scan time) a perfect proxy needs very few detector calls.
  auto w = Workload::Skewed(50000, 16, 100, 200.0, 4);
  detect::ProxyOptions proxy_opts;
  proxy_opts.target_class = 0;
  proxy_opts.noise_sigma = 0.0;
  detect::ProxyScorer scorer(&w->truth, proxy_opts);
  samplers::ProxyGuidedStrategy proxy(&w->repo, &scorer);
  const query::QueryTrace proxy_trace = RunToRecall(*w, &proxy, 0.1);

  samplers::UniformRandomStrategy random(&w->repo, 7);
  const query::QueryTrace random_trace = RunToRecall(*w, &random, 0.1);

  ASSERT_TRUE(proxy_trace.SamplesToRecall(0.1).has_value());
  ASSERT_TRUE(random_trace.SamplesToRecall(0.1).has_value());
  EXPECT_LT(*proxy_trace.SamplesToRecall(0.1), *random_trace.SamplesToRecall(0.1));
}

TEST(IntegrationTest, TrackerDiscriminatorEndToEnd) {
  // Full realistic pipeline: noisy detector + IoU tracker discriminator.
  // Recall accounting still works and ExSample still completes the query.
  auto w = Workload::Skewed(50000, 16, 200, 250.0, 5);
  detect::DetectorOptions det_opts;
  det_opts.target_class = 0;
  det_opts.miss_prob = 0.1;
  det_opts.localization_sigma = 0.01;
  det_opts.false_positive_rate = 0.01;
  detect::SimulatedDetector detector(&w->truth, det_opts);
  track::IouDiscriminatorOptions disc_opts;
  disc_opts.survival_prob = 0.999;
  track::IouTrackerDiscriminator discrim(&w->truth, disc_opts);

  query::RunnerOptions options;
  options.recall_class = 0;
  options.true_distinct_target = 100;  // 50% of 200.
  options.max_samples = 500000;
  query::QueryRunner runner(&w->truth, &detector, &discrim, options);
  core::ExSampleStrategy strategy(&w->chunking);
  const query::QueryTrace trace = runner.Run(&strategy);
  EXPECT_GE(trace.final.true_distinct, 100u);
  // Tracker breakage and FPs inflate reported results above true distinct.
  EXPECT_GE(trace.final.reported_results, trace.final.true_distinct);
}

TEST(IntegrationTest, BatchedExSampleStaysEffective) {
  // Sec. III-F: batching helps GPU throughput and must not wreck quality.
  auto w = Workload::Skewed(200000, 32, 400, 120.0, 6);
  core::ExSampleOptions unbatched;
  unbatched.seed = 11;
  core::ExSampleStrategy s1(&w->chunking, unbatched);
  const auto t1 = RunToRecall(*w, &s1, 0.5);

  core::ExSampleStrategy s16(&w->chunking, unbatched);
  const auto t16 = RunToRecall(*w, &s16, 0.5, 2'000'000, /*batch_size=*/16);

  ASSERT_TRUE(t1.SamplesToRecall(0.5).has_value());
  ASSERT_TRUE(t16.SamplesToRecall(0.5).has_value());
  // Allow batched to use somewhat more samples, but not catastrophically.
  EXPECT_LT(static_cast<double>(*t16.SamplesToRecall(0.5)),
            2.0 * static_cast<double>(*t1.SamplesToRecall(0.5)));
}

TEST(IntegrationTest, DatasetPresetEndToEnd) {
  // Build the BDD MOT emulation at small scale and run one query both ways.
  auto built = datasets::BuiltDataset::Build(datasets::BddMotSpec(), 9, 0.25);
  ASSERT_TRUE(built.ok());
  const datasets::BuiltDataset& ds = built.value();
  const datasets::QuerySpec* trailer = ds.spec().FindQuery("trailer");
  ASSERT_NE(trailer, nullptr);

  auto run = [&](query::SearchStrategy* strategy) {
    detect::SimulatedDetector detector(
        &ds.truth(), detect::DetectorOptions::Perfect(trailer->class_id));
    track::OracleDiscriminator discrim;
    query::RunnerOptions options;
    options.recall_class = trailer->class_id;
    options.true_distinct_target =
        static_cast<uint64_t>(0.5 * trailer->instance_count);
    options.max_samples = ds.repo().TotalFrames();
    query::QueryRunner runner(&ds.truth(), &detector, &discrim, options);
    return runner.Run(strategy);
  };

  samplers::UniformRandomStrategy random(&ds.repo(), 21);
  core::ExSampleStrategy exsample(&ds.chunking());
  const auto random_trace = run(&random);
  const auto ex_trace = run(&exsample);
  // trailer is rare (60 instances) and skewed (S=18): ExSample should not
  // need more samples than random within a generous factor, and both reach
  // the target.
  ASSERT_TRUE(random_trace.SamplesToRecall(0.5).has_value());
  ASSERT_TRUE(ex_trace.SamplesToRecall(0.5).has_value());
  EXPECT_LT(static_cast<double>(*ex_trace.SamplesToRecall(0.5)),
            1.5 * static_cast<double>(*random_trace.SamplesToRecall(0.5)));
}

}  // namespace
}  // namespace exsample
