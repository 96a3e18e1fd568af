#include "engine/search_engine.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "engine/wave_driver.h"
#include "stats/stats_json.h"

namespace exsample {
namespace engine {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kExSample:
      return "exsample";
    case Method::kExSampleAdaptive:
      return "exsample-adaptive";
    case Method::kRandom:
      return "random";
    case Method::kRandomPlus:
      return "random+";
    case Method::kSequential:
      return "sequential";
    case Method::kProxyGuided:
      return "proxy";
    case Method::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kLocal:
      return "local";
    case TransportKind::kLoopback:
      return "loopback";
    case TransportKind::kSocket:
      return "socket";
  }
  return "unknown";
}

std::optional<TransportKind> ParseTransportKind(const std::string& name) {
  if (name == "local") return TransportKind::kLocal;
  if (name == "loopback") return TransportKind::kLoopback;
  if (name == "socket") return TransportKind::kSocket;
  return std::nullopt;
}

SearchEngine::SearchEngine(const video::VideoRepository* repo,
                           const video::Chunking* chunking,
                           const scene::GroundTruth* truth, EngineConfig config)
    : repo_(repo), chunking_(chunking), truth_(truth), config_(config) {
  if (config_.num_shards > 1) {
    // Shard the caller's repository clip-aligned; clips never split, so the
    // global frame view (and therefore every trace) is unchanged.
    auto sharded = video::ShardedRepository::ShardByClips(*repo, config_.num_shards);
    common::CheckOk(sharded.status(), "engine repository sharding failed");
    owned_sharded_ =
        std::make_unique<video::ShardedRepository>(std::move(sharded).value());
    sharded_ = owned_sharded_.get();
  }
}

SearchEngine::SearchEngine(const video::ShardedRepository* sharded,
                           const video::Chunking* chunking,
                           const scene::GroundTruth* truth, EngineConfig config)
    : repo_(&sharded->Global()),
      chunking_(chunking),
      truth_(truth),
      config_(config),
      sharded_(sharded) {}

common::Result<std::unique_ptr<query::SearchStrategy>> SearchEngine::MakeStrategy(
    int32_t class_id, const QueryOptions& options) {
  switch (options.method) {
    case Method::kExSample:
      return std::unique_ptr<query::SearchStrategy>(
          std::make_unique<core::ExSampleStrategy>(chunking_, options.exsample));
    case Method::kExSampleAdaptive:
      return std::unique_ptr<query::SearchStrategy>(
          std::make_unique<core::AdaptiveExSampleStrategy>(repo_->TotalFrames(),
                                                           options.adaptive));
    case Method::kRandom:
      return std::unique_ptr<query::SearchStrategy>(
          std::make_unique<samplers::UniformRandomStrategy>(
              repo_, options.exsample.seed));
    case Method::kRandomPlus:
      return std::unique_ptr<query::SearchStrategy>(
          std::make_unique<samplers::RandomPlusStrategy>(repo_,
                                                         options.exsample.seed));
    case Method::kSequential:
      if (options.sequential_stride == 0) {
        return common::Status::InvalidArgument("sequential stride must be >= 1");
      }
      return std::unique_ptr<query::SearchStrategy>(
          std::make_unique<samplers::SequentialStrategy>(
              repo_, options.sequential_stride));
    case Method::kProxyGuided:
    case Method::kHybrid: {
      auto& scorer = scorers_[class_id];
      if (scorer == nullptr) {
        detect::ProxyOptions popts = config_.proxy;
        popts.target_class = class_id;
        scorer = std::make_unique<detect::ProxyScorer>(truth_, popts);
      }
      if (options.method == Method::kProxyGuided) {
        return std::unique_ptr<query::SearchStrategy>(
            std::make_unique<samplers::ProxyGuidedStrategy>(
                repo_, scorer.get(), options.proxy_guided, thread_pool()));
      }
      return std::unique_ptr<query::SearchStrategy>(
          std::make_unique<samplers::HybridProxyExSampleStrategy>(
              chunking_, scorer.get(), options.hybrid));
    }
  }
  return common::Status::InvalidArgument("unknown search method");
}

common::ThreadPool* SearchEngine::thread_pool() {
  if (config_.num_threads == 1) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<common::ThreadPool>(common::ThreadPool::Options{
        config_.num_threads, config_.placement.worker_cpus});
  }
  return pool_.get();
}

common::ThreadPool* SearchEngine::io_pool() {
  if (config_.io_threads == 0) return nullptr;
  if (io_pool_ == nullptr) {
    io_pool_ = std::make_unique<common::ThreadPool>(common::ThreadPool::Options{
        config_.io_threads, config_.placement.io_cpus});
  }
  return io_pool_.get();
}

common::ThreadPool* SearchEngine::shard_pool(uint32_t shard) {
  if (config_.threads_per_shard == 0) return thread_pool();
  if (shard_pools_.empty()) {
    shard_pools_.resize(sharded_->NumShards());
  }
  if (shard_pools_[shard] == nullptr) {
    shard_pools_[shard] =
        std::make_unique<common::ThreadPool>(common::ThreadPool::Options{
            config_.threads_per_shard, config_.placement.worker_cpus});
  }
  return shard_pools_[shard].get();
}

query::DetectorService* SearchEngine::detector_service() {
  if (detector_service_ == nullptr) {
    query::DetectorServiceOptions options;
    options.device_batch = std::max<size_t>(1, config_.device_batch);
    options.max_retries = config_.transport_max_retries;
    if (config_.flush_deadline_seconds > 0.0) {
      options.flush_policy = query::FlushPolicy::kLatencyAware;
      options.flush_deadline_seconds = config_.flush_deadline_seconds;
    }
    const size_t num_shards = sharded_ != nullptr ? sharded_->NumShards() : 1;
    std::vector<common::ThreadPool*> pools;
    if (sharded_ != nullptr && config_.threads_per_shard > 0) {
      pools.reserve(num_shards);
      for (uint32_t s = 0; s < num_shards; ++s) pools.push_back(shard_pool(s));
    }
    if (config_.transport == TransportKind::kLoopback) {
      // The RPC stand-in: per-shard runner threads fed wire bytes. Each
      // runner drives its shard's private pool (or detects inline); requests
      // are stamped with the repository fingerprint so a mis-deployed runner
      // rejects them.
      options.repo_fingerprint = repo_->Fingerprint();
      query::LoopbackTransportOptions loopback = config_.loopback;
      if (loopback.expected_fingerprint == 0) {
        loopback.expected_fingerprint = options.repo_fingerprint;
      }
      if (loopback.runner_cpus.empty()) {
        loopback.runner_cpus = config_.placement.runner_cpus;
      }
      transport_ = std::make_unique<query::LoopbackTransport>(num_shards, pools,
                                                              loopback);
      options.transport = transport_.get();
    } else if (config_.transport == TransportKind::kSocket) {
      // The real thing: TCP connections to one `exsample_shardd` per shard.
      // Sessions deploy over the RegisterSessionMsg control plane, and the
      // fingerprint pins which repository the fleet must serve.
      options.repo_fingerprint = repo_->Fingerprint();
      common::Check(config_.socket.hosts.size() == num_shards,
                    "socket transport needs one shard host per shard");
      transport_ =
          std::make_unique<query::SocketTransport>(num_shards, config_.socket);
      options.transport = transport_.get();
    }
    // kLocal leaves `options.transport` null: the service then owns a
    // `LocalTransport` over these pools.
    detector_service_ = std::make_unique<query::DetectorService>(
        options, num_shards, std::move(pools), thread_pool());
    if (config_.collect_stats) {
      // The service's hot-path ticks and its submit→grant / transport
      // latency records all run on the coordinator thread that drives
      // Submit/Poll/Flush/Take — the same single-writer thread the engine
      // timer already belongs to.
      detector_service_->BindStats(query::ServiceStatsBinding::Bind(
          &registry_, registry_.AcquireSlab("service"), &stage_timer_));
    }
  }
  return detector_service_.get();
}

reuse::ReuseManager* SearchEngine::reuse_manager() {
  if (!config_.reuse.AnyEnabled()) return nullptr;
  if (reuse_manager_ == nullptr) {
    reuse_manager_ = std::make_unique<reuse::ReuseManager>(config_.reuse);
  }
  return reuse_manager_.get();
}

common::ThreadPool* SearchEngine::shard_io_pool(uint32_t shard) {
  if (config_.io_threads_per_shard == 0) return nullptr;
  if (shard_io_pools_.empty()) {
    shard_io_pools_.resize(sharded_->NumShards());
  }
  if (shard_io_pools_[shard] == nullptr) {
    shard_io_pools_[shard] =
        std::make_unique<common::ThreadPool>(common::ThreadPool::Options{
            config_.io_threads_per_shard, config_.placement.io_cpus});
  }
  return shard_io_pools_[shard].get();
}

common::Result<std::unique_ptr<QuerySession>> SearchEngine::MakeSession(
    int32_t class_id, const query::RunnerOptions& runner_options,
    const QueryOptions& options) {
  detect::DetectorOptions det_opts = config_.detector;
  det_opts.target_class = class_id;

  // Cross-query reuse: every component is addressed by the (dataset,
  // detector config, class) triple, so a cache populated for one query can
  // only ever answer queries whose real detect calls would return the same
  // bytes (detection is a pure per-frame function of exactly that triple).
  reuse::ReuseManager* reuse = reuse_manager();
  reuse::ReuseKey reuse_key;
  if (reuse != nullptr) {
    reuse_key.repo_fingerprint = repo_->Fingerprint();
    reuse_key.detector_config = detect::DetectorOptionsHash(det_opts);
    reuse_key.class_id = class_id;
  }

  // Warm start: seed the strategy's per-chunk priors from the bank's
  // persisted posteriors *before* the strategy is built. A pure prior
  // substitution — nothing else about the strategy changes, and an empty
  // bank (or a non-belief method) leaves `options` untouched.
  QueryOptions effective = options;
  bool warm_started = false;
  if (reuse != nullptr && reuse->options().warm_start) {
    const uint64_t signature = reuse::ChunkingSignature(*chunking_);
    const double weight = reuse->options().warm_start_weight;
    if (options.method == Method::kExSample) {
      std::vector<core::BeliefParams> priors = reuse->beliefs().WarmPriors(
          reuse_key, signature, options.exsample.belief, weight);
      if (!priors.empty()) {
        effective.exsample.chunk_priors = std::move(priors);
        warm_started = true;
      }
    } else if (options.method == Method::kHybrid) {
      std::vector<core::BeliefParams> priors = reuse->beliefs().WarmPriors(
          reuse_key, signature, options.hybrid.belief, weight);
      if (!priors.empty()) {
        effective.hybrid.chunk_priors = std::move(priors);
        warm_started = true;
      }
    }
  }

  auto strategy = MakeStrategy(class_id, effective);
  if (!strategy.ok()) return strategy.status();

  // Per-query state (Algorithm 1 assumes independent queries): fresh
  // detector noise stream, fresh discriminator memory, fresh strategy.
  std::unique_ptr<QuerySession> session(new QuerySession());
  session->strategy_ = std::move(strategy).value();
  session->reuse_stats_.warm_started = warm_started;
  if (reuse != nullptr && reuse->options().warm_start) {
    // Finish() deposits this query's posterior counts back into the bank
    // (a no-op for strategies without chunk beliefs).
    session->belief_bank_ = &reuse->beliefs();
    session->belief_key_ = reuse_key;
    session->chunking_signature_ = reuse::ChunkingSignature(*chunking_);
  }

  if (sharded_ != nullptr) {
    // One detector context per shard. Each shard's detector carries the same
    // options (and seed) as the unsharded detector would, and detection is a
    // pure per-frame function of (truth, options, frame) — so shard routing
    // returns exactly the detections a single detector would have.
    std::vector<query::ShardContext> contexts(sharded_->NumShards());
    session->shard_detectors_.reserve(sharded_->NumShards());
    for (uint32_t s = 0; s < sharded_->NumShards(); ++s) {
      if (sharded_->Shard(s).TotalFrames() == 0) continue;
      auto detector = std::make_unique<detect::SimulatedDetector>(truth_, det_opts);
      contexts[s].detector = detector.get();
      if (config_.simulate_decode) {
        // Per-shard decode: each shard owns its position state (and,
        // optionally, its private I/O pool), so a shard's sequential-read
        // locality is priced next to its video — the documented carve-out to
        // shard-count trace-invariance.
        auto store = std::make_unique<video::SimulatedVideoStore>(
            &sharded_->Global(), config_.decode_cost);
        contexts[s].store = store.get();
        contexts[s].io_pool = shard_io_pool(s);
        session->shard_stores_.push_back(std::move(store));
      }
      session->shard_detectors_.push_back(std::move(detector));
    }
    session->shard_dispatcher_ =
        std::make_unique<query::ShardDispatcher>(sharded_, std::move(contexts));
  } else {
    session->detector_ = std::make_unique<detect::SimulatedDetector>(truth_, det_opts);
    if (config_.simulate_decode) {
      session->store_ =
          std::make_unique<video::SimulatedVideoStore>(repo_, config_.decode_cost);
    }
  }

  if (config_.discriminator == EngineConfig::DiscriminatorKind::kOracle) {
    session->discriminator_ = std::make_unique<track::OracleDiscriminator>();
  } else {
    session->discriminator_ =
        std::make_unique<track::IouTrackerDiscriminator>(truth_, config_.tracker);
  }

  query::RunnerOptions session_options = runner_options;
  size_t batch_size = std::max<size_t>(1, options.batch_size);
  if (options.method == Method::kExSample) {
    // Honor the strategy-level Sec. III-F knob by mapping it onto the
    // runner's pipeline batch: B frames drawn per belief refresh either way
    // (proven equivalent in test_batch_pipeline), so configs predating the
    // batch-first runner keep their batched semantics.
    batch_size = std::max(batch_size, options.exsample.batch_size);
  }
  session_options.batch_size = batch_size;
  session_options.thread_pool = thread_pool();
  session_options.shard_dispatcher = session->shard_dispatcher_.get();
  session_options.video_store = session->store_.get();
  // Pipelined decode: all sessions share the engine's I/O pool(s), so
  // concurrent queries' prefetchers draw from one set of decode workers just
  // as their detect stages share the detect pool.
  session_options.prefetch_depth = config_.prefetch_depth;
  session_options.decode_pool = io_pool();
  // Every session submits to the engine's one shared service (solo steps
  // flush it inline — bit-identical to coalesced runs, which is the
  // contract the sched suite checks).
  session_options.detector_service = detector_service();
  session_options.service_session_id = next_session_id_++;
  // The configuration the session's RegisterSessionMsg ships: a remote shard
  // materializes an equivalent detector from exactly these options.
  session_options.detector_options = det_opts;
  session_options.session_stats = &session->scheduler_stats_;
  // Observability: the session ticks its own registry slab and its own
  // stage timer from the stepping thread (single-writer both ways);
  // Finish() retires the slab and merges the timer into the engine
  // aggregate. All-null when collect_stats is off — the runner's hot path
  // then pays one branch.
  if (config_.collect_stats) {
    session_options.stats = query::ExecutionStatsBinding::Bind(
        &registry_,
        registry_.AcquireSlab(
            "session/" + std::to_string(session_options.service_session_id)),
        &session->stage_timer_);
    session->engine_stage_timer_ = &stage_timer_;
  }
  // Detect-stage reuse (cache/sketch): the session binds to the engine's
  // shared manager under its key; the runner consults it per picked batch.
  // Warm start alone leaves this null — the detect stage is then untouched.
  if (reuse != nullptr && (reuse->options().cache || reuse->options().sketch)) {
    session->reuse_ = std::make_unique<reuse::SessionReuse>(
        reuse, reuse_key, repo_->TotalFrames(), &session->reuse_stats_);
    session_options.reuse = session->reuse_.get();
  }
  session->execution_ = std::make_unique<query::QueryExecution>(
      truth_, session->detector_.get(), session->discriminator_.get(),
      session->strategy_.get(), session_options);
  return session;
}

std::string SearchEngine::StatsJson() {
  // Push half: sum every slab (sessions, service) into the named snapshot.
  stats::StatsSnapshot snapshot = registry_.Sync();

  // Pull half: engine-lifetime components keep their own authoritative
  // stats structs (all either coordinator-written or mutex-guarded); they
  // are published into the snapshot here, at export time, under the same
  // dotted naming scheme as the slab metrics.
  if (detector_service_ != nullptr) {
    const query::DetectorServiceStats& s = detector_service_->stats();
    snapshot.counters["service.requests"] = s.requests;
    snapshot.counters["service.fill_flushes"] = s.fill_flushes;
    snapshot.counters["service.deadline_flushes"] = s.deadline_flushes;
    snapshot.counters["service.wire_retries"] = s.wire_retries;
    snapshot.counters["service.wire_requeues"] = s.wire_requeues;
    snapshot.counters["service.wire_reroutes"] = s.wire_reroutes;
    snapshot.counters["service.shards_down"] = s.shards_down;
    snapshot.gauges["service.wire_charged_seconds"] = s.wire_charged_seconds;
    snapshot.gauges["service.fill_rate"] = detector_service_->FillRate();
    snapshot.gauges["service.pending_frames"] =
        static_cast<double>(detector_service_->PendingFrames());
  }
  if (transport_ != nullptr) {
    // Snapshot by value: the transport keeps counting after this export.
    const query::TransportStats t = transport_->Stats();
    snapshot.counters["transport.requests"] = t.requests;
    snapshot.counters["transport.responses"] = t.responses;
    snapshot.counters["transport.bytes_sent"] = t.bytes_sent;
    snapshot.counters["transport.bytes_received"] = t.bytes_received;
    snapshot.counters["transport.failures_injected"] = t.failures_injected;
    snapshot.counters["transport.control_messages"] = t.control_messages;
    snapshot.counters["transport.connects"] = t.connects;
    snapshot.counters["transport.reconnects"] = t.reconnects;
    snapshot.counters["transport.inferred_failures"] = t.inferred_failures;
    snapshot.counters["transport.late_responses_dropped"] =
        t.late_responses_dropped;
  }
  if (reuse_manager_ != nullptr) {
    const reuse::DetectionCacheStats c = reuse_manager_->cache().Stats();
    snapshot.counters["reuse.cache.hits"] = c.hits;
    snapshot.counters["reuse.cache.misses"] = c.misses;
    snapshot.counters["reuse.cache.insertions"] = c.insertions;
    snapshot.counters["reuse.cache.evicted_empty"] = c.evicted_empty;
    snapshot.counters["reuse.cache.evicted_nonempty"] = c.evicted_nonempty;
    snapshot.gauges["reuse.cache.entries"] = static_cast<double>(c.entries);
    snapshot.gauges["reuse.cache.nonempty_entries"] =
        static_cast<double>(c.nonempty_entries);
    const reuse::ScannedSketchStats k = reuse_manager_->sketch().Stats();
    snapshot.counters["reuse.sketch.recorded_empty"] = k.recorded_empty;
    snapshot.counters["reuse.sketch.recorded_nonempty"] = k.recorded_nonempty;
    snapshot.counters["reuse.sketch.known_empty"] = k.known_empty;
    snapshot.counters["reuse.sketch.guard_rejects"] = k.guard_rejects;
    const reuse::BeliefBankStats b = reuse_manager_->beliefs().Stats();
    snapshot.counters["reuse.beliefs.posteriors_recorded"] =
        b.posteriors_recorded;
    snapshot.counters["reuse.beliefs.warm_starts"] = b.warm_starts;
  }

  return stats::WriteStatsJson(snapshot, &stage_timer_);
}

common::Result<query::QueryTrace> SearchEngine::Run(
    int32_t class_id, const query::RunnerOptions& runner_options,
    const QueryOptions& options) {
  auto session = MakeSession(class_id, runner_options, options);
  if (!session.ok()) return session.status();
  query::QueryTrace trace = session.value()->Finish();
  // A dead fleet ends the query early: its truncated trace is no answer.
  if (!session.value()->status().ok()) return session.value()->status();
  return trace;
}

common::Result<std::unique_ptr<QuerySession>> SearchEngine::CreateSession(
    int32_t class_id, uint64_t limit, const QueryOptions& options) {
  if (limit == 0) {
    return common::Status::InvalidArgument("result limit must be >= 1");
  }
  query::RunnerOptions runner_options;
  runner_options.result_limit = limit;
  runner_options.recall_class = class_id;
  runner_options.max_samples =
      options.max_samples > 0 ? options.max_samples : repo_->TotalFrames();
  return MakeSession(class_id, runner_options, options);
}

common::Result<std::vector<query::QueryTrace>> SearchEngine::RunConcurrent(
    const std::vector<QuerySpec>& specs) {
  return RunConcurrent(specs, SessionObserver());
}

common::Result<std::vector<query::QueryTrace>> SearchEngine::RunConcurrent(
    const std::vector<QuerySpec>& specs, const SessionObserver& observer) {
  // Validate every spec's cheap invariants before building any session:
  // session construction can be expensive (a proxy spec pays its full
  // scoring scan up front), and a bad later spec must not discard that work.
  for (const QuerySpec& spec : specs) {
    if (spec.limit == 0) {
      return common::Status::InvalidArgument("result limit must be >= 1");
    }
    if (spec.options.method == Method::kSequential &&
        spec.options.sequential_stride == 0) {
      return common::Status::InvalidArgument("sequential stride must be >= 1");
    }
  }

  std::vector<std::unique_ptr<QuerySession>> sessions;
  sessions.reserve(specs.size());
  for (const QuerySpec& spec : specs) {
    auto session = CreateSession(spec.class_id, spec.limit, spec.options);
    if (!session.ok()) return session.status();
    sessions.push_back(std::move(session).value());
  }

  // The scheduled round loop. Each round the scheduler plans a sequence of
  // step grants from coordinator-side tallies (it can weight sessions, not
  // change what they compute); the grants are executed in *waves*: every
  // session in a wave begins its step (submitting its detect work to the
  // shared service), the service flushes the merged
  // queues as full cross-session device batches, and the wave's sessions
  // finish their steps in submission order. A session scheduled twice in a
  // round closes the current wave first — a wave holds at most one pending
  // step per session. Per-query state lives in the sessions, so neither the
  // grant order nor the coalescing can change any individual trace.
  query::SessionSchedulerOptions scheduler_options;
  scheduler_options.seed = config_.scheduler_seed;
  scheduler_options.starvation_rounds =
      std::max<uint64_t>(1, config_.scheduler_starvation_rounds);
  const std::unique_ptr<query::SessionScheduler> scheduler =
      query::MakeSessionScheduler(config_.scheduler, scheduler_options);
  query::DetectorService* service = detector_service();

  std::vector<query::SessionSchedulerInfo> infos(sessions.size());
  std::vector<size_t> order;
  // Periodic observability dump: every `stats_dump_every_rounds` scheduler
  // rounds the engine rewrites `stats_dump_path` with a fresh StatsJson()
  // snapshot, from this coordinator thread (so the pull-published component
  // stats are read race-free). Collection itself never touches the
  // simulated clock, so dumping cannot perturb any trace.
  uint64_t rounds_completed = 0;
  const auto maybe_dump_stats = [&]() {
    if (config_.stats_dump_every_rounds == 0 || config_.stats_dump_path.empty())
      return;
    ++rounds_completed;
    if (rounds_completed % config_.stats_dump_every_rounds != 0) return;
    std::ofstream out(config_.stats_dump_path, std::ios::trunc);
    if (out) out << StatsJson();
  };
  // The wave execution (begin → flush → finish in submission order, sticky
  // transport failure) lives in the shared `SessionWaveDriver` — the same
  // machinery the serving layer drives admitted tenant sessions through.
  SessionWaveDriver driver(service, [&](size_t idx) {
    sessions[idx]->FinishStep();
    if (observer) observer(idx, *sessions[idx]);
  });

  while (driver.status().ok()) {
    size_t live = 0;
    for (size_t i = 0; i < sessions.size(); ++i) {
      const query::DiscoveryPoint& final = sessions[i]->Trace().final;
      infos[i].steps = sessions[i]->scheduler_stats().steps_granted;
      infos[i].samples = final.samples;
      infos[i].reported_results = final.reported_results;
      infos[i].result_limit = specs[i].limit;
      infos[i].seconds = final.seconds;
      infos[i].deadline_seconds = specs[i].deadline_seconds;
      infos[i].done = sessions[i]->Done();
      if (!infos[i].done) ++live;
    }
    if (live == 0) break;

    order.clear();
    scheduler->PlanRound(common::Span<const query::SessionSchedulerInfo>(
                             infos.data(), infos.size()),
                         &order);
    if (order.empty()) break;  // A scheduler that refuses to plan live work.
    bool failed = false;
    for (const size_t idx : order) {
      common::Check(idx < sessions.size(), "scheduler planned an unknown session");
      common::Check(!infos[idx].done, "scheduler planned a finished session");
      if (!driver.Grant(idx, sessions[idx].get())) {
        failed = true;
        break;
      }
    }
    if (failed || !driver.FlushWave()) break;
    maybe_dump_stats();
    // A round with no progress still terminates the loop eventually: its
    // first grant to a then-live session either progressed or marked that
    // session done, so no-progress rounds strictly shrink the live set and
    // the next round replans against refreshed tallies.
  }

  if (!driver.status().ok()) {
    // Release every half-begun step (decode tasks hold spans into the
    // abandoned batches) and whatever the service still queues, then hand
    // the failure to the caller instead of partial traces.
    driver.AbortPending(sessions);
    return driver.status();
  }

  std::vector<query::QueryTrace> traces;
  traces.reserve(sessions.size());
  for (auto& session : sessions) {
    traces.push_back(session->Finish());
  }
  return traces;
}

common::Result<query::QueryTrace> SearchEngine::FindDistinct(
    int32_t class_id, uint64_t limit, const QueryOptions& options) {
  if (limit == 0) {
    return common::Status::InvalidArgument("result limit must be >= 1");
  }
  query::RunnerOptions runner_options;
  runner_options.result_limit = limit;
  runner_options.recall_class = class_id;
  runner_options.max_samples =
      options.max_samples > 0 ? options.max_samples : repo_->TotalFrames();
  return Run(class_id, runner_options, options);
}

common::Result<query::QueryTrace> SearchEngine::RunToRecall(
    int32_t class_id, double recall, const QueryOptions& options) {
  if (!(recall > 0.0 && recall <= 1.0)) {
    return common::Status::InvalidArgument("recall must be in (0, 1]");
  }
  const uint64_t total = truth_->NumInstances(class_id);
  if (total == 0) {
    return common::Status::NotFound("no ground-truth instances of this class");
  }
  query::RunnerOptions runner_options;
  runner_options.recall_class = class_id;
  runner_options.true_distinct_target = static_cast<uint64_t>(
      std::ceil(recall * static_cast<double>(total)));
  runner_options.max_samples =
      options.max_samples > 0 ? options.max_samples : repo_->TotalFrames();
  return Run(class_id, runner_options, options);
}

}  // namespace engine
}  // namespace exsample
