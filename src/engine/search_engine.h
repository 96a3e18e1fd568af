#ifndef EXSAMPLE_ENGINE_SEARCH_ENGINE_H_
#define EXSAMPLE_ENGINE_SEARCH_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/adaptive_exsample.h"
#include "core/exsample.h"
#include "detect/detector.h"
#include "detect/proxy.h"
#include "engine/query_session.h"
#include "query/detector_service.h"
#include "query/runner.h"
#include "query/socket_transport.h"
#include "query/scheduler.h"
#include "query/strategy.h"
#include "query/trace.h"
#include "reuse/reuse.h"
#include "samplers/hybrid_strategy.h"
#include "samplers/proxy_strategy.h"
#include "samplers/random_strategy.h"
#include "scene/ground_truth.h"
#include "stats/counter_registry.h"
#include "stats/stage_timer.h"
#include "track/iou_discriminator.h"
#include "track/oracle_discriminator.h"
#include "video/chunking.h"
#include "video/repository.h"
#include "video/sharded_repository.h"

namespace exsample {
namespace engine {

/// \brief Which frame-selection method a query uses.
enum class Method {
  kExSample,          ///< The paper's algorithm (default).
  kExSampleAdaptive,  ///< Sec. VII extension: automated chunk splitting.
  kRandom,            ///< Uniform random without replacement.
  kRandomPlus,        ///< Globally stratified random+ (Sec. III-F).
  kSequential,        ///< 1-in-k sequential scan (Sec. II-B naive baseline).
  kProxyGuided,       ///< BlazeIt-style: full scoring scan, then by score.
  kHybrid,            ///< Sec. VII extension: scan-free ExSample+proxy fusion.
};

/// \brief Returns the lowercase name of a method.
const char* MethodName(Method method);

/// \brief Which transport executes the engine's detect service's device
/// batches (`EngineConfig::transport`).
enum class TransportKind {
  /// In process, through the service's own `query::LocalTransport`: no
  /// serialization, shards one after another. The default.
  kLocal,
  /// Wire-serialized execution on per-shard runner threads
  /// (`query::LoopbackTransport`): every device batch crosses the versioned
  /// wire format, completions arrive in any order, and the fault-injection
  /// knobs (`EngineConfig::loopback`) exercise the retry/requeue story. The
  /// way an in-process engine detects its shards in parallel. Traces are
  /// bit-identical to `kLocal` — the `dist` suite enforces it.
  kLoopback,
  /// Real TCP sockets to `exsample_shardd` shard servers
  /// (`query::SocketTransport`): sessions deploy over the
  /// `RegisterSessionMsg` control plane, failures are inferred from
  /// connection drops and per-request deadlines, and registrations replay
  /// on reconnect. Needs `EngineConfig::socket.hosts` (one per shard).
  /// Traces stay bit-identical to `kLocal`.
  kSocket,
};

/// \brief Lowercase name of a transport kind ("local", "loopback", "socket").
const char* TransportKindName(TransportKind kind);

/// \brief Parses a transport name as `TransportKindName` prints it.
std::optional<TransportKind> ParseTransportKind(const std::string& name);

/// \brief CPU placement of an engine's threads (see common/affinity.h).
///
/// Empty lists (the default) leave every thread wherever the OS scheduler
/// puts it. Non-empty lists pin best-effort: thread `i` of a group goes to
/// `cpus[i % cpus.size()]`, a failed pin is silently ignored (correctness
/// never depends on placement, only tail latency does), and non-Linux
/// builds no-op. `exsample_cli --affinity=SPEC` is the user-facing knob;
/// it validates the set against the hardware and warns on oversubscription
/// instead of failing.
struct PlacementConfig {
  /// Detect-pool workers — engine-wide and per-shard pools alike.
  std::vector<int> worker_cpus;
  /// I/O (decode-prefetch) pool workers, engine-wide and per-shard.
  std::vector<int> io_cpus;
  /// Loopback shard-runner threads (runner of shard s -> cpus[s % size]).
  std::vector<int> runner_cpus;

  bool Any() const {
    return !worker_cpus.empty() || !io_cpus.empty() || !runner_cpus.empty();
  }
};

/// \brief Per-engine configuration: how frames are detected and how distinct
/// identity is decided. One config serves many queries.
struct EngineConfig {
  /// Detector noise/cost model. `target_class` is overridden per query.
  detect::DetectorOptions detector;

  /// Which discriminator decides distinctness.
  enum class DiscriminatorKind {
    kIouTracker,  ///< Realistic tracker-based matching (default).
    kOracle,      ///< Ground-truth identity (evaluation/simulation mode).
  };
  DiscriminatorKind discriminator = DiscriminatorKind::kIouTracker;
  track::IouDiscriminatorOptions tracker;

  /// Proxy model config (only used by kProxyGuided / kHybrid queries).
  detect::ProxyOptions proxy;

  /// Threads in the engine-wide pool the detect service's device batches
  /// fan out over (and the proxy scorers' scans). 0 = one per hardware
  /// thread; 1 (the default) runs everything on the caller, with no
  /// synchronization. Thread count never changes a trace — only wall-clock
  /// time.
  size_t num_threads = 1;

  /// Simulate decode cost: when true, every session charges I/O+decode
  /// seconds through its own `SimulatedVideoStore` priced by `decode_cost`
  /// (decode position state is per query, like detector noise and tracker
  /// memory). Sharded engines give each shard its own store — each shard
  /// decodes independently, so sequential-read locality is priced per shard
  /// (the documented carve-out to shard-count trace-invariance). False (the
  /// default) charges no decode cost, as before.
  bool simulate_decode = false;
  video::DecodeCostModel decode_cost;

  /// Decode-ahead window of every session's pipelined decode stage
  /// (`RunnerOptions::prefetch_depth`). 0 (the default) decodes synchronously
  /// at submit time; depth d overlaps the decode of the next d frames with
  /// detection (per `device_batch` slice), on the I/O pool. Never changes a
  /// trace — only
  /// wall-clock (the `decode`-labeled suite proves bit-identity).
  size_t prefetch_depth = 0;
  /// Threads in the engine-wide I/O pool all sessions' prefetchers share
  /// (decode work runs there, detect fan-out stays on `num_threads`). 0 (the
  /// default) shares the engine-wide detect pool instead.
  size_t io_threads = 0;
  /// Threads in each shard's private I/O pool ("the disk next to that shard's
  /// video"); decode work for a shard's frames then runs beside its detector.
  /// 0 (the default) shares the engine-wide I/O pool across shards.
  size_t io_threads_per_shard = 0;

  /// Read nowhere: every engine shares one detect service across its
  /// sessions. Kept only because the repository benchmark (`perfbench/`)
  /// still assigns it; it goes together with the remaining assignments.
  bool coalesce_detect = false;
  /// Target frames per device batch of the engine's detect service ("one
  /// GPU inference call's worth"): every session submits its picked batches
  /// to the service, whose flush merges them per shard into batches of up to
  /// this many frames — so concurrent queries fill the detector together.
  /// Decode overlaps detection, and fill rate is measured, at this size.
  size_t device_batch = 32;
  /// Which transport executes the service's device batches: in process
  /// (`kLocal`, the default), wire-serialized onto per-shard runner threads
  /// (`kLoopback`, the RPC stand-in and the in-process way to detect shards
  /// in parallel), or over TCP (`kSocket`). Traces are identical either way.
  TransportKind transport = TransportKind::kLocal;
  /// When > 0 (seconds, wall clock), the service flushes latency-aware
  /// (`query::FlushPolicy::kLatencyAware`): a shard's queue ships the moment
  /// a full wire batch accumulates or its oldest ticket has waited this
  /// long, instead of only at round barriers. Bounds ticket latency at the
  /// cost of device-batch fill; never changes a trace. 0 (the default)
  /// keeps barrier-only flushing.
  double flush_deadline_seconds = 0.0;
  /// Transient-failure retry budget per wire batch before the runner is
  /// marked down and the batch requeues onto a surviving shard.
  size_t transport_max_retries = 2;
  /// Fault/latency injection of the loopback transport (benchmarks and the
  /// `dist` suite; harmless defaults inject nothing). The engine fills in
  /// `expected_fingerprint` from its repository when left 0.
  query::LoopbackTransportOptions loopback;
  /// Socket transport endpoints and deadlines (`transport == kSocket` only).
  /// `socket.hosts` must name one `exsample_shardd` endpoint per shard.
  query::SocketTransportOptions socket;

  /// Which `query::SessionScheduler` orders (and weights) the sessions'
  /// `Step` calls in `RunConcurrent`: fair round-robin (the default,
  /// bit-compatible with the old hard-coded loop), Thompson-style
  /// marginal-result-rate priority, or deadline/budget-aware. Scheduling
  /// only reorders step grants — per-session traces never change.
  query::SchedulerKind scheduler = query::SchedulerKind::kFair;
  /// Seed of the priority scheduler's Thompson draws (fixed seed, fixed
  /// grant order).
  uint64_t scheduler_seed = 17;
  /// Starvation bound of the non-fair schedulers: every live session is
  /// granted at least one step per this many rounds
  /// (`SessionSchedulerOptions::starvation_rounds`).
  uint64_t scheduler_starvation_rounds = 4;

  /// Cross-query result reuse (`reuse::ReuseManager`): an engine-owned exact
  /// detection cache, scanned-space sketch, and belief bank shared by every
  /// session — consecutive queries and `RunConcurrent` workloads alike.
  /// Components are keyed by (repository fingerprint, detector-config hash,
  /// class), so reuse never crosses datasets, detector configs, or classes.
  /// Cache hits and sketch skips serve detections bit-identical to a real
  /// detect call at zero charged detector seconds; warm start is a pure
  /// prior substitution. All off (the default) leaves every query
  /// bit-identical to the pre-reuse engine.
  reuse::ReuseOptions reuse;

  /// Engine-wide observability: when true (the default) every session and
  /// the shared detect service tick named counters into the engine's
  /// `stats::CounterRegistry` (lock-free per-writer slabs) and record
  /// per-stage latency histograms into `stats::StageTimer`s, all exported by
  /// `SearchEngine::StatsJson()`. Collection never changes a trace
  /// (`bench_observability` exit-enforces bit-identity and <= 3% overhead);
  /// false turns every collection site into a single null test.
  bool collect_stats = true;
  /// When non-empty (and `collect_stats`), `RunConcurrent` rewrites this
  /// file with a fresh `StatsJson()` snapshot every
  /// `stats_dump_every_rounds` scheduler rounds — the periodic dump a
  /// monitoring scraper tails. 0 rounds disables the periodic dump (the
  /// caller can still call `StatsJson()` whenever it wants).
  std::string stats_dump_path;
  uint64_t stats_dump_every_rounds = 0;

  /// Shard the repository into this many contiguous, clip-aligned shards,
  /// each serving its frames with its own detector context (the in-process
  /// stand-in for "one query spans machines"). Picked batches are routed per
  /// shard and the per-shard partial traces merge into a global trace
  /// identical to the single-repository run — shard count never changes a
  /// trace (proven by the shard equivalence suite). 1 (the default) executes
  /// unsharded. Ignored when the engine is constructed over an explicit
  /// `ShardedRepository`, whose own shard count wins.
  size_t num_shards = 1;
  /// Threads in each shard's private detect pool ("one GPU's worth" per
  /// shard); a shard's device batches fan out over it. Shards detect
  /// concurrently only over `kLoopback`, whose runner thread per shard
  /// drives that shard's pool. 0 (the default) shares the engine-wide pool
  /// across shards.
  size_t threads_per_shard = 0;

  /// CPU placement of the engine's worker / I/O / shard-runner threads.
  /// Defaults to no pinning. Placement never changes a trace — it moves
  /// threads, not work.
  PlacementConfig placement;
};

/// \brief Per-query method configuration.
struct QueryOptions {
  Method method = Method::kExSample;
  core::ExSampleOptions exsample;
  core::AdaptiveExSampleOptions adaptive;
  samplers::HybridOptions hybrid;
  samplers::ProxyGuidedOptions proxy_guided;
  uint64_t sequential_stride = 30;
  /// Safety cap on detector invocations (default: the whole repository).
  uint64_t max_samples = 0;
  /// Frames per pipeline iteration (Sec. III-F batched execution). 1 is
  /// Algorithm 1 verbatim; larger values amortize per-batch costs and let the
  /// detect stage fan out across the engine's thread pool.
  size_t batch_size = 1;
};

/// \brief One query of a concurrent workload (`SearchEngine::RunConcurrent`).
struct QuerySpec {
  /// Class to search for.
  int32_t class_id = 0;
  /// Stop after this many reported results.
  uint64_t limit = 20;
  /// Per-query method configuration.
  QueryOptions options;
  /// Budget in simulated seconds this query would like to finish within; 0
  /// means none. Read only by the deadline scheduler, which steps the
  /// session closest to blowing its budget first — it never truncates a
  /// query, so traces are unaffected.
  double deadline_seconds = 0.0;
};

/// \brief High-level facade: distinct-object search over one repository.
///
/// Owns nothing heavyweight — it borrows the repository, chunking, and
/// ground truth and assembles a fresh detector / discriminator / strategy /
/// runner per query, so consecutive queries are independent (as Algorithm 1
/// assumes: discriminator state is per-query).
///
/// This is the API a downstream user calls; the lower layers stay available
/// for custom compositions.
class SearchEngine {
 public:
  SearchEngine(const video::VideoRepository* repo, const video::Chunking* chunking,
               const scene::GroundTruth* truth, EngineConfig config = {});

  /// \brief Shard-aware construction: queries run over `sharded`'s global
  /// frame view, with every picked batch dispatched to the owning shards'
  /// detector contexts. `chunking` and `truth` address the global frame
  /// space. `config.num_shards` is ignored (the repository's shard count
  /// wins).
  SearchEngine(const video::ShardedRepository* sharded, const video::Chunking* chunking,
               const scene::GroundTruth* truth, EngineConfig config = {});

  /// \brief "Find `limit` distinct objects of `class_id`": runs until the
  /// discriminator has returned `limit` results (or the repository is
  /// exhausted) and returns the discovery trace — or, when the detect
  /// transport fails permanently mid-query, that failure.
  common::Result<query::QueryTrace> FindDistinct(int32_t class_id, uint64_t limit,
                                                 const QueryOptions& options = {});

  /// \brief Evaluation mode: runs until `recall` of the class's ground-truth
  /// instances have been covered. A production system cannot call this (it
  /// needs N), but every benchmark does.
  common::Result<query::QueryTrace> RunToRecall(int32_t class_id, double recall,
                                                const QueryOptions& options = {});

  /// \brief Opens an incremental session for "find `limit` distinct objects
  /// of `class_id`". The session shares this engine's repository, chunking,
  /// proxy-scorer cache, and thread pool; stepping it interleaves with other
  /// sessions, which is how concurrent user queries are served.
  common::Result<std::unique_ptr<QuerySession>> CreateSession(
      int32_t class_id, uint64_t limit, const QueryOptions& options = {});

  /// \brief Executes many queries over the shared engine state. Each round,
  /// the configured `SessionScheduler` plans which sessions step (fair
  /// round-robin by default; priority/deadline variants reorder and weight
  /// the grants); the scheduled sessions submit their batches to the shared
  /// `DetectorService`, which flushes them as full cross-session device
  /// batches. Returns one trace per spec, in
  /// order. Results are identical to running the specs one at a time — per-
  /// query state is isolated in the sessions, scheduling only reorders step
  /// grants, and coalescing only re-packs device batches — but the shared
  /// thread pool, scorer cache, and detector batches are paid for once.
  common::Result<std::vector<query::QueryTrace>> RunConcurrent(
      const std::vector<QuerySpec>& specs);

  /// Called by the observing `RunConcurrent` overload after every completed
  /// step of a session, in execution order, with the session's spec index.
  /// The session reference is valid for the duration of the call only.
  using SessionObserver = std::function<void(size_t index, const QuerySession&)>;

  /// \brief `RunConcurrent` with a per-step observer — the hook benchmarks
  /// and monitors use to watch the workload's progress (e.g. the global cost
  /// clock at which each session reported its first result) while the real
  /// driver, not a reimplementation of it, executes the schedule.
  common::Result<std::vector<query::QueryTrace>> RunConcurrent(
      const std::vector<QuerySpec>& specs, const SessionObserver& observer);

  /// \brief Builds the strategy object a query with `options` would use
  /// (exposed for tests and custom runners).
  common::Result<std::unique_ptr<query::SearchStrategy>> MakeStrategy(
      int32_t class_id, const QueryOptions& options);

  /// \brief The engine's configuration (as resolved at construction). The
  /// serving layer reads this to mirror the scheduler kind/seed and stats
  /// switches into its per-tenant inner schedulers.
  const EngineConfig& config() const { return config_; }

  /// \brief The engine-wide pool, created lazily on first use. Null when
  /// `config.num_threads == 1` (strictly sequential); 0 yields a
  /// hardware-sized pool.
  common::ThreadPool* thread_pool();

  /// \brief The engine-wide I/O pool the sessions' decode prefetchers share,
  /// created lazily. Null when `config.io_threads == 0` (decode work then
  /// shares the detect pool).
  common::ThreadPool* io_pool();

  /// \brief The sharded repository queries are dispatched over, or null for a
  /// single-repository engine.
  const video::ShardedRepository* sharded_repository() const { return sharded_; }

  /// \brief The detect service every session's steps go through, created
  /// lazily on first use; never null. Exposes coalescing stats (device-batch
  /// fill rate, shared batches) and the sticky `transport_status()`.
  query::DetectorService* detector_service();

  /// \brief The transport the detect service executes over, or null for the
  /// in-process path (`config.transport == kLocal`, where the service owns
  /// its `LocalTransport`). Exposes wire stats (batches, bytes, injected
  /// failures) for observability.
  const query::ShardTransport* shard_transport() const { return transport_.get(); }

  /// \brief The engine-owned cross-query reuse state, created lazily on
  /// first use. Null when no reuse piece is enabled (`config.reuse`).
  /// Exposes cache/sketch/bank statistics for observability.
  reuse::ReuseManager* reuse_manager();

  /// \brief The engine-wide counter registry every session's and the
  /// service's slabs hang off. Always present; slabs are only acquired (and
  /// hot paths only tick) when `config.collect_stats` is on.
  stats::CounterRegistry* counter_registry() { return &registry_; }

  /// \brief The engine-wide stage-latency aggregate: per-session pipeline
  /// timers merge in when their sessions finish; the shared service's
  /// submit→grant and transport histograms record into it directly.
  const stats::StageTimer& stage_timer() const { return stage_timer_; }

  /// \brief One versioned JSON snapshot of everything the engine observes:
  /// the synced counter registry, the per-component stats structs published
  /// under uniform names (service.*, transport.*, reuse.*), and the
  /// per-stage latency histograms. Deterministic key order; see
  /// `stats::WriteStatsJson` for the shape. Call from the coordinator
  /// thread (between steps / after runs) — the same single-driver contract
  /// every other engine method has.
  std::string StatsJson();

 private:
  /// The pool a shard's detect stage fans out over: the shard's private pool
  /// when `config.threads_per_shard > 0` (created lazily, shared by all
  /// sessions), else the engine-wide pool.
  common::ThreadPool* shard_pool(uint32_t shard);
  /// The pool a shard's decode prefetch runs on: the shard's private I/O pool
  /// when `config.io_threads_per_shard > 0` (created lazily, shared by all
  /// sessions), else null (the prefetcher falls back to the engine I/O pool).
  common::ThreadPool* shard_io_pool(uint32_t shard);
  common::Result<std::unique_ptr<QuerySession>> MakeSession(
      int32_t class_id, const query::RunnerOptions& runner_options,
      const QueryOptions& options);
  common::Result<query::QueryTrace> Run(int32_t class_id,
                                        const query::RunnerOptions& runner_options,
                                        const QueryOptions& options);

  const video::VideoRepository* repo_;
  const video::Chunking* chunking_;
  const scene::GroundTruth* truth_;
  EngineConfig config_;
  // Sharded execution: non-null when this engine dispatches per shard. Either
  // borrowed (shard-aware constructor) or owned (`config.num_shards > 1` on
  // the plain constructor, split clip-aligned from the caller's repository).
  const video::ShardedRepository* sharded_ = nullptr;
  std::unique_ptr<video::ShardedRepository> owned_sharded_;
  // Proxy scorers are pure functions of (truth, class, options); cached per
  // class so hybrid/proxy queries do not rebuild them.
  std::map<int32_t, std::unique_ptr<detect::ProxyScorer>> scorers_;
  // Engine-wide worker pool shared by all sessions' detect stages.
  std::unique_ptr<common::ThreadPool> pool_;
  // Engine-wide I/O pool shared by all sessions' decode prefetchers.
  std::unique_ptr<common::ThreadPool> io_pool_;
  // Wire transport behind the detect service (kLoopback, kSocket), created
  // with the service. Declared before the service so the service —
  // whose flush loop leaves the transport empty — is destroyed first, and
  // the runner threads are joined after no coordinator can reach them.
  std::unique_ptr<query::ShardTransport> transport_;
  // The detect service every session submits to, lazy.
  std::unique_ptr<query::DetectorService> detector_service_;
  // Session identities for the service's shared-batch attribution.
  uint64_t next_session_id_ = 1;
  // Engine-owned cross-query reuse state (config.reuse), lazy.
  std::unique_ptr<reuse::ReuseManager> reuse_manager_;
  // Engine-wide observability: the counter registry (owns every slab) and
  // the cross-session stage-latency aggregate. The registry outlives every
  // session, so slab pointers handed to components stay valid for the
  // engine's lifetime.
  stats::CounterRegistry registry_;
  stats::StageTimer stage_timer_;
  // Per-shard private pools (config.threads_per_shard > 0), lazily created.
  std::vector<std::unique_ptr<common::ThreadPool>> shard_pools_;
  // Per-shard private I/O pools (config.io_threads_per_shard > 0), lazy.
  std::vector<std::unique_ptr<common::ThreadPool>> shard_io_pools_;
};

}  // namespace engine
}  // namespace exsample

#endif  // EXSAMPLE_ENGINE_SEARCH_ENGINE_H_
