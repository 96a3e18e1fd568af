// Shard scaling: detect-stage throughput vs shard count.
//
// A sharded repository gives every shard its own detector context and worker
// pool — the in-process stand-in for "one query spans machines". Batches go
// through a `DetectorService` over a `LoopbackTransport`, whose runner thread
// per shard drives that shard's pool. Under a latency-bound detector (GPU
// inference or a remote model server), the runners overlap the shards'
// device batches, so the detect stage's frames/sec should scale with shard
// count while calls stay latency-bound.
//
// Companion to bench_ablation_batching's detect-stage table: that bench
// scales threads within one detector; this one scales detector contexts.
// Equivalence (shard count never changes a trace) is proven by
// tests/test_shard_equivalence.cc; this reports what sharding buys in
// wall-clock.

#include <chrono>

#include "bench_common.h"

namespace exsample {
namespace bench {
namespace {

void ShardScalingSweep(const BenchConfig& config) {
  // Every Detect call costs ~2 ms of wall-clock regardless of CPU, the
  // regime where dispatch parallelism is visible.
  const double kLatencySeconds = 0.002;
  const size_t kThreadsPerShard = 2;
  const size_t kBatch = 64;
  const uint64_t kFramesToProcess = config.full ? 2048 : 512;
  const uint64_t kFrames = 96'000;

  auto workload = Workload::Simulated(kFrames, 8, 50, 300.0, 1.0, config.seed);
  // Re-home the workload's frames in a 16-clip repository so clip-aligned
  // sharding has boundaries to cut at (frame ids are unchanged).
  const video::VideoRepository repo = video::VideoRepository::UniformClips(16, kFrames / 16);

  std::printf("=== Shard scaling: detect-stage frames/sec vs shard count ===\n");
  std::printf("latency-bound detector (%.1f ms/call); %zu threads per shard;\n"
              "batch %zu; %llu frames per cell.\n\n",
              kLatencySeconds * 1e3, kThreadsPerShard, kBatch,
              static_cast<unsigned long long>(kFramesToProcess));

  common::TextTable table;
  table.SetHeader({"shards", "threads total", "frames/sec", "speedup vs 1 shard"});
  double baseline_fps = 0.0;
  for (const size_t shards : {1, 2, 4, 8}) {
    auto sharded = video::ShardedRepository::ShardByClips(repo, shards).value();

    // One detector context per shard: simulated detections wrapped in the
    // latency decorator, plus a private pool per shard that the shard's
    // loopback runner drives.
    std::vector<std::unique_ptr<detect::SimulatedDetector>> bases;
    std::vector<std::unique_ptr<detect::ThrottledDetector>> throttled;
    std::vector<std::unique_ptr<common::ThreadPool>> pools;
    std::vector<common::ThreadPool*> pool_ptrs;
    std::vector<query::ShardContext> contexts(shards);
    for (uint32_t s = 0; s < shards; ++s) {
      bases.push_back(std::make_unique<detect::SimulatedDetector>(
          &workload->truth, detect::DetectorOptions::Perfect(0)));
      throttled.push_back(
          std::make_unique<detect::ThrottledDetector>(bases.back().get(), kLatencySeconds));
      pools.push_back(std::make_unique<common::ThreadPool>(kThreadsPerShard));
      pool_ptrs.push_back(pools.back().get());
      contexts[s].detector = throttled.back().get();
    }
    query::ShardDispatcher dispatcher(&sharded, std::move(contexts));
    query::LoopbackTransport transport(shards, pool_ptrs);
    query::DetectorServiceOptions service_options;
    service_options.device_batch = kBatch;
    service_options.transport = &transport;
    query::DetectorService service(service_options, shards);

    // Strided frame walk spreading every batch across all shards, as a
    // strategy's global picks do.
    std::vector<video::FrameId> frames;
    std::vector<uint32_t> owners;
    uint64_t processed = 0;
    video::FrameId frame = 0;
    const auto start = std::chrono::steady_clock::now();
    while (processed < kFramesToProcess) {
      frames.clear();
      owners.clear();
      for (size_t b = 0; b < kBatch; ++b) {
        frame = (frame + 104729) % kFrames;
        frames.push_back(frame);
        owners.push_back(dispatcher.ShardOfFrame(frame));
      }
      query::DetectorService::DetectRequest request;
      request.session_id = 1;
      request.frames = common::Span<const video::FrameId>(frames.data(), frames.size());
      request.shards = common::Span<const uint32_t>(owners.data(), owners.size());
      request.dispatcher = &dispatcher;
      const query::DetectorService::Ticket ticket = service.Submit(request);
      service.Flush();
      (void)service.Take(ticket);
      processed += frames.size();
    }
    service.UnregisterSession(1);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const double fps = static_cast<double>(processed) / seconds;
    if (shards == 1) baseline_fps = fps;

    char fps_buf[32], speedup_buf[32];
    std::snprintf(fps_buf, sizeof(fps_buf), "%.0f", fps);
    std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx",
                  baseline_fps > 0.0 ? fps / baseline_fps : 0.0);
    table.AddRow({std::to_string(shards), std::to_string(shards * kThreadsPerShard),
                  fps_buf, speedup_buf});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nexpected shape: ~linear in shard count while calls stay\n"
              "latency-bound (each shard adds its own pool), flattening once\n"
              "the batch no longer fills every shard's workers.\n");
}

int Main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::Parse(argc, argv);
  ShardScalingSweep(config);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace exsample

int main(int argc, char** argv) { return exsample::bench::Main(argc, argv); }
