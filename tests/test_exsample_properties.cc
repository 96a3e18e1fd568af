// Property-style sweeps of the headline behavioural claims, parameterized
// over workload shapes (the paper's "in the worst case, ExSample does not
// perform worse than random sampling, something that is not always true of
// alternative approaches").

#include <gtest/gtest.h>

#include <cmath>

#include "core/exsample.h"
#include "opt/optimal_weights.h"
#include "opt/simplex.h"
#include "query/curves.h"
#include "query/runner.h"
#include "samplers/random_strategy.h"
#include "scene/generator.h"
#include "track/oracle_discriminator.h"

namespace exsample {
namespace {

struct WorkloadShape {
  double skew_fraction;  // 1.0 = uniform.
  double duration;
  const char* label;
};

class ExSampleVsRandomProperty : public ::testing::TestWithParam<WorkloadShape> {};

TEST_P(ExSampleVsRandomProperty, NeverMuchWorseThanRandom) {
  const WorkloadShape shape = GetParam();
  common::Rng rng(11);
  const uint64_t frames = 500000;
  const uint64_t instances = 300;
  auto chunking = video::MakeFixedCountChunks(frames, 32).value();
  scene::SceneSpec spec;
  spec.total_frames = frames;
  scene::ClassPopulationSpec cls;
  cls.instance_count = instances;
  cls.duration.mean_frames = shape.duration;
  if (shape.skew_fraction < 1.0) {
    cls.placement = scene::PlacementSpec::NormalCenter(shape.skew_fraction);
  }
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, &chunking, rng)).value();
  video::VideoRepository repo = video::VideoRepository::SingleClip(frames);

  auto run = [&](query::SearchStrategy* strategy) {
    detect::SimulatedDetector detector(&truth, detect::DetectorOptions::Perfect(0));
    track::OracleDiscriminator discrim;
    query::RunnerOptions opts;
    opts.true_distinct_target = instances / 2;
    opts.max_samples = frames;
    query::QueryRunner runner(&truth, &detector, &discrim, opts);
    return runner.Run(strategy);
  };

  std::vector<query::QueryTrace> random_runs, ex_runs;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    samplers::UniformRandomStrategy random(&repo, 100 + seed);
    random_runs.push_back(run(&random));
    core::ExSampleOptions options;
    options.seed = 200 + seed;
    core::ExSampleStrategy strategy(&chunking, options);
    ex_runs.push_back(run(&strategy));
  }
  const auto ratio = query::SavingsRatio(random_runs, ex_runs, 0.5);
  ASSERT_TRUE(ratio.has_value()) << shape.label;
  // The paper's floor across its entire evaluation is 0.75x.
  EXPECT_GT(*ratio, 0.65) << shape.label;
  if (shape.skew_fraction <= 1.0 / 16) {
    // Strong skew must yield real savings.
    EXPECT_GT(*ratio, 1.5) << shape.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExSampleVsRandomProperty,
    ::testing::Values(WorkloadShape{1.0, 200.0, "uniform_mid"},
                      WorkloadShape{1.0, 30.0, "uniform_short"},
                      WorkloadShape{1.0, 2000.0, "uniform_long"},
                      WorkloadShape{0.25, 200.0, "mild_skew"},
                      WorkloadShape{1.0 / 16, 200.0, "strong_skew"},
                      WorkloadShape{1.0 / 64, 60.0, "extreme_skew_short"},
                      WorkloadShape{1.0 / 64, 1000.0, "extreme_skew_long"}),
    [](const ::testing::TestParamInfo<WorkloadShape>& info) {
      return info.param.label;
    });

TEST(OptimalWeightsBruteForceTest, MatchesGridSearchOnTwoChunks) {
  // With two chunks the simplex is a segment: brute-force w in [0,1] and
  // compare against the projected-gradient solver. Checks the solver's
  // global-optimality claim on a nontrivial instance mix.
  common::Rng rng(17);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({rng.Bernoulli(0.7) ? rng.Uniform(0.001, 0.05) : 0.0,
                    rng.Bernoulli(0.3) ? rng.Uniform(0.001, 0.05) : 0.0});
  }
  opt::ChunkProbabilityMatrix matrix(rows, 2);
  for (double n : {5.0, 50.0, 500.0}) {
    double best_value = -1.0;
    for (int step = 0; step <= 2000; ++step) {
      const double w0 = step / 2000.0;
      best_value = std::max(
          best_value, opt::ExpectedDiscoveries(matrix, {w0, 1.0 - w0}, n));
    }
    const auto solved = opt::OptimalWeights(matrix, n);
    EXPECT_NEAR(solved.expected_discoveries, best_value, 1e-3 * best_value + 1e-6)
        << "n=" << n;
    EXPECT_GE(solved.expected_discoveries, best_value - 1e-3 * best_value - 1e-6);
  }
}

TEST(OptimalWeightsBruteForceTest, MatchesGridSearchOnThreeChunks) {
  common::Rng rng(19);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 20; ++i) {
    std::vector<double> row(3, 0.0);
    row[rng.NextBounded(3)] = rng.Uniform(0.005, 0.08);
    rows.push_back(row);
  }
  opt::ChunkProbabilityMatrix matrix(rows, 3);
  const double n = 100.0;
  double best_value = -1.0;
  for (int i = 0; i <= 100; ++i) {
    for (int j = 0; j <= 100 - i; ++j) {
      const double w0 = i / 100.0, w1 = j / 100.0;
      best_value = std::max(
          best_value, opt::ExpectedDiscoveries(matrix, {w0, w1, 1.0 - w0 - w1}, n));
    }
  }
  const auto solved = opt::OptimalWeights(matrix, n);
  EXPECT_GE(solved.expected_discoveries, best_value * 0.999);
}

}  // namespace
}  // namespace exsample
