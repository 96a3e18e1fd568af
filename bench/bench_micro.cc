// Microbenchmarks (google-benchmark): the per-operation costs that determine
// how much CPU overhead ExSample adds on top of the detector.
//
// The paper's premise is that the detector dominates (50 ms/frame at 20 fps);
// these benchmarks verify the sampling machinery is orders of magnitude
// cheaper — a Thompson step over 128 chunks should cost microseconds.

#include <benchmark/benchmark.h>

#include <cmath>
#include <utility>
#include <vector>

#include "exsample/exsample.h"

namespace exsample {
namespace {

void BM_RngNextU64(benchmark::State& state) {
  common::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_GammaSample(benchmark::State& state) {
  common::Rng rng(2);
  const double shape = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Gamma(shape, 1.0));
  }
}
BENCHMARK(BM_GammaSample)->Arg(1)->Arg(10)->Arg(100);  // shape .1, 1, 10.

void BM_GammaQuantile(benchmark::State& state) {
  const stats::GammaBelief belief(5.1, 101.0);
  double q = 0.001;
  for (auto _ : state) {
    q += 0.0001;
    if (q >= 0.999) q = 0.001;
    benchmark::DoNotOptimize(belief.Quantile(q));
  }
}
BENCHMARK(BM_GammaQuantile);

void BM_ThompsonPick(benchmark::State& state) {
  const size_t chunks = static_cast<size_t>(state.range(0));
  core::ChunkStatsTable stats(chunks);
  common::Rng rng(3);
  for (size_t j = 0; j < chunks; ++j) {
    for (int i = 0; i < 10; ++i) {
      stats.Update(j, rng.Bernoulli(0.1) ? 1 : 0, 0);
    }
  }
  core::ThompsonPolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.PickChunk(stats, rng));
  }
  state.SetItemsProcessed(state.iterations() * chunks);
}
BENCHMARK(BM_ThompsonPick)->Arg(16)->Arg(128)->Arg(1024);

void BM_BayesUcbPick(benchmark::State& state) {
  const size_t chunks = static_cast<size_t>(state.range(0));
  core::ChunkStatsTable stats(chunks);
  common::Rng rng(4);
  for (size_t j = 0; j < chunks; ++j) stats.Update(j, 1, 0);
  core::BayesUcbPolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.PickChunk(stats, rng));
  }
}
BENCHMARK(BM_BayesUcbPick)->Arg(128);

// The largest of m iid Gamma(shape, 1) draws by inversion, as Thompson draws
// a belief group above its direct-draw limit: one uniform, lgamma and the
// tail inverse. Compare with m direct `BM_GammaSample`s.
void BM_GammaGroupMax(benchmark::State& state) {
  common::Rng rng(14);
  const double shape = static_cast<double>(state.range(0)) / 10.0;
  const double m = static_cast<double>(state.range(1));
  for (auto _ : state) {
    const double t = -std::expm1(std::log(rng.NextDouble()) / m);
    benchmark::DoNotOptimize(
        stats::InverseRegularizedGammaQ(shape, t, std::lgamma(shape)));
  }
}
BENCHMARK(BM_GammaGroupMax)
    ->Args({1, 17})
    ->Args({11, 17})
    ->Args({51, 17})
    ->Args({1, 900})
    ->Args({11, 900});

// An analyst-like table: 1,600 chunks (a BDD dataset) in 10 belief states,
// with 900 chunks still unsampled — the mix a pick sees mid-query.
core::ChunkStatsTable AnalystLikeTable() {
  struct Mix {
    size_t chunks;
    uint64_t n;
    uint64_t n1;
  };
  const Mix mix[] = {{900, 0, 0}, {520, 1, 0}, {100, 2, 0}, {30, 3, 0}, {20, 1, 1},
                     {12, 2, 1},  {8, 4, 0},   {5, 3, 2},   {3, 5, 1},  {2, 6, 3}};
  size_t total = 0;
  for (const Mix& m : mix) total += m.chunks;
  core::ChunkStatsTable stats(total);
  size_t chunk = 0;
  for (const Mix& m : mix) {
    for (size_t c = 0; c < m.chunks; ++c, ++chunk) {
      for (uint64_t i = 0; i < m.n; ++i) stats.Update(chunk, i < m.n1 ? 1 : 0, 0);
    }
  }
  return stats;
}

void BM_ThompsonPickAnalyst(benchmark::State& state) {
  const core::ChunkStatsTable stats = AnalystLikeTable();
  core::ThompsonPolicy policy;
  common::Rng rng(15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.PickChunk(stats, rng));
  }
}
BENCHMARK(BM_ThompsonPickAnalyst);

void BM_BayesUcbPickAnalyst(benchmark::State& state) {
  const core::ChunkStatsTable stats = AnalystLikeTable();
  core::BayesUcbPolicy policy;
  common::Rng rng(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.PickChunk(stats, rng));
  }
}
BENCHMARK(BM_BayesUcbPickAnalyst);

// `ChunkStatsTable::Update` with its belief-group index: replays the updates
// of 1,600 Thompson picks on the analyst-like table (one hit in ten), so
// chunks move between groups the way they do in a query.
void BM_ChunkStatsUpdate(benchmark::State& state) {
  std::vector<std::pair<size_t, size_t>> updates;
  {
    core::ChunkStatsTable sim = AnalystLikeTable();
    core::ThompsonPolicy policy;
    common::Rng rng(17);
    for (int i = 0; i < 1600; ++i) {
      const size_t chunk = policy.PickChunk(sim, rng);
      const size_t hit = rng.Bernoulli(0.1) ? 1 : 0;
      sim.Update(chunk, hit, 0);
      updates.emplace_back(chunk, hit);
    }
  }
  core::ChunkStatsTable stats(0);
  for (auto _ : state) {
    state.PauseTiming();
    stats = AnalystLikeTable();
    state.ResumeTiming();
    for (const auto& [chunk, hit] : updates) stats.Update(chunk, hit, 0);
    benchmark::DoNotOptimize(stats.TotalSamples());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(updates.size()));
}
BENCHMARK(BM_ChunkStatsUpdate);

void BM_PermutationLookup(benchmark::State& state) {
  common::RandomPermutation perm(1'000'003, 5);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm(i));
    if (++i >= 1'000'003) i = 0;
  }
}
BENCHMARK(BM_PermutationLookup);

void BM_StratifiedSamplerNext(benchmark::State& state) {
  core::StratifiedFrameSampler sampler(0, 1'000'000'000, 7);
  common::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Next(rng));
  }
}
BENCHMARK(BM_StratifiedSamplerNext);

void BM_IntervalIndexQuery(benchmark::State& state) {
  common::Rng rng(7);
  scene::SceneSpec spec;
  spec.total_frames = 16'000'000;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 2000;
  cls.duration.mean_frames = 700.0;
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, nullptr, rng)).value();
  uint64_t frame = 0;
  uint64_t count = 0;
  for (auto _ : state) {
    frame = (frame + 7919 * 1013) % spec.total_frames;
    truth.ForEachVisible(frame, [&count](const scene::Trajectory&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_IntervalIndexQuery);

void BM_DetectorDetect(benchmark::State& state) {
  common::Rng rng(8);
  scene::SceneSpec spec;
  spec.total_frames = 1'000'000;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 1000;
  cls.duration.mean_frames = 500.0;
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, nullptr, rng)).value();
  detect::SimulatedDetector detector(&truth, detect::DetectorOptions{});
  uint64_t frame = 0;
  for (auto _ : state) {
    frame = (frame + 104729) % spec.total_frames;
    benchmark::DoNotOptimize(detector.Detect(frame));
  }
}
BENCHMARK(BM_DetectorDetect);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  // Fixed cost of fanning a batch across the pool (empty tasks): the
  // overhead DetectBatch pays before any detection work starts.
  common::ThreadPool pool(static_cast<size_t>(state.range(0)));
  const size_t batch = 32;
  for (auto _ : state) {
    pool.ParallelFor(batch, [](size_t i) { benchmark::DoNotOptimize(i); });
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_DetectBatch(benchmark::State& state) {
  // Batch entry point vs. a Detect loop (same simulated detector): measures
  // the per-batch overhead of the batch-first pipeline, and with threads > 1
  // the parallel fan-out of a latency-free (CPU-bound) detector.
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  common::Rng rng(12);
  scene::SceneSpec spec;
  spec.total_frames = 1'000'000;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 1000;
  cls.duration.mean_frames = 500.0;
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, nullptr, rng)).value();
  detect::SimulatedDetector detector(&truth, detect::DetectorOptions{});
  common::ThreadPool pool(threads);
  std::vector<video::FrameId> frames(batch);
  uint64_t frame = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      frame = (frame + 104729) % spec.total_frames;
      frames[i] = frame;
    }
    benchmark::DoNotOptimize(detector.DetectBatch(frames, &pool));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DetectBatch)
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({32, 1})
    ->Args({8, 4})
    ->Args({32, 4})
    ->UseRealTime();

void BM_ThrottledDetectBatch(benchmark::State& state) {
  // The latency-bound regime (GPU/remote inference, 1 ms per call): the
  // reason the pipeline is batch-first. Frames/sec = items_per_second.
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  common::Rng rng(13);
  scene::SceneSpec spec;
  spec.total_frames = 100'000;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 100;
  cls.duration.mean_frames = 500.0;
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, nullptr, rng)).value();
  detect::SimulatedDetector base(&truth, detect::DetectorOptions{});
  detect::ThrottledDetector detector(&base, 1e-3);
  common::ThreadPool pool(threads);
  std::vector<video::FrameId> frames(batch);
  uint64_t frame = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      frame = (frame + 104729) % spec.total_frames;
      frames[i] = frame;
    }
    benchmark::DoNotOptimize(detector.DetectBatch(frames, &pool));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ThrottledDetectBatch)
    ->Args({1, 1})
    ->Args({8, 4})
    ->Args({16, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DiscriminatorObserve(benchmark::State& state) {
  common::Rng rng(9);
  scene::SceneSpec spec;
  spec.total_frames = 1'000'000;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 1000;
  cls.duration.mean_frames = 500.0;
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, nullptr, rng)).value();
  detect::SimulatedDetector detector(&truth, detect::DetectorOptions{});
  track::IouTrackerDiscriminator discrim(&truth, {});
  uint64_t frame = 0;
  for (auto _ : state) {
    frame = (frame + 104729) % spec.total_frames;
    benchmark::DoNotOptimize(discrim.Observe(frame, detector.Detect(frame)));
  }
}
BENCHMARK(BM_DiscriminatorObserve);

void BM_SimplexProjection(benchmark::State& state) {
  common::Rng rng(10);
  std::vector<double> v(static_cast<size_t>(state.range(0)));
  for (double& x : v) x = rng.Normal(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::ProjectToSimplex(v));
  }
}
BENCHMARK(BM_SimplexProjection)->Arg(128)->Arg(1024);

void BM_BernoulliModelRun(benchmark::State& state) {
  common::Rng rng(11);
  const auto probs = sim::LogNormalProbabilities(1000, 3e-3, 8e-3, 0.15, rng);
  sim::BernoulliOccupancyModel model(probs);
  const std::vector<uint64_t> points{100, 10000, 180000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.RunAtPoints(points, rng));
  }
}
BENCHMARK(BM_BernoulliModelRun);

}  // namespace
}  // namespace exsample

BENCHMARK_MAIN();
