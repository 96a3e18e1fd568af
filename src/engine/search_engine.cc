#include "engine/search_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "engine/wave_driver.h"
#include "serve/tenant.h"

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

SearchEngine::~SearchEngine() {
  // A session may outlive its engine to be destroyed: cut its way back.
  for (QuerySession* session : live_sessions_) session->engine_ = nullptr;
}

QuerySession::~QuerySession() { RetireStats(); }

void QuerySession::RetireStats() {
  if (engine_ == nullptr) return;
  engine_->RetireSession(this);
  engine_ = nullptr;
}

void QuerySession::ExportStats(stats::StatsSnapshot* snapshot) const {
  uint64_t frames_detected = 0;
  for (const query::ShardStats& shard : shard_dispatcher_->Stats()) {
    frames_detected += shard.frames_detected;
    stats::Export(shard, "session.shards.", snapshot);
  }
  for (const auto& store : shard_stores_) {
    stats::Export(store->Stats(), "session.decode.", snapshot);
  }
  if (prefetcher() != nullptr) {
    stats::Export(prefetcher()->stats(), "session.prefetch.", snapshot);
  }
  stats::Export(scheduler_stats_, "session.scheduler.", snapshot);
  stats::Export(reuse_stats_, "session.reuse.", snapshot);
  const query::DiscoveryPoint& final = Trace().final;
  stats::StatsWriter execution(snapshot, "execution.");
  execution.Counter("steps", scheduler_stats_.steps_granted);
  execution.Counter("frames_picked", final.samples);
  execution.Counter("frames_reused", reuse_stats_.cache_hits + reuse_stats_.sketch_skips);
  execution.Counter("frames_detected", frames_detected);
  execution.Counter("results_reported", final.reported_results);
}

void SearchEngine::RetireSession(QuerySession* session) {
  session->ExportStats(&retired_);
  stage_timer_.Merge(session->stage_timer_);
  live_sessions_.erase(
      std::find(live_sessions_.begin(), live_sessions_.end(), session));
}

namespace {

// The options a strategy would otherwise assert on or abort over, checked once
// for every entry point before any session is built.
common::Status ValidateQueryOptions(const QueryOptions& options) {
  const core::BeliefParams* prior = nullptr;  // An unsampled chunk's belief.
  switch (options.method) {
    case Method::kExSample:
      prior = &options.exsample.belief;
      break;
    case Method::kExSampleAdaptive:
      prior = &options.adaptive.belief;
      if (options.adaptive.min_chunk_frames == 0) {
        return common::Status::InvalidArgument("adaptive min_chunk_frames must be >= 1");
      }
      if (!(options.adaptive.inherit_fraction >= 0.0 &&
            options.adaptive.inherit_fraction <= 1.0)) {
        return common::Status::InvalidArgument(
            "adaptive inherit_fraction must be in [0, 1]");
      }
      break;
    case Method::kHybrid:
      prior = &options.hybrid.belief;
      if (options.hybrid.candidates_per_pick == 0) {
        return common::Status::InvalidArgument("hybrid candidates_per_pick must be >= 1");
      }
      break;
    case Method::kSequential:
      if (options.sequential_stride == 0) {
        return common::Status::InvalidArgument("sequential stride must be >= 1");
      }
      break;
    default:
      break;
  }
  if (prior == nullptr) return common::Status::OK();
  return stats::GammaBelief::Make(prior->alpha0, prior->beta0).status();
}

}  // namespace

common::Result<std::unique_ptr<query::SearchStrategy>> SearchEngine::MakeStrategy(
    int32_t class_id, const QueryOptions& options) {
  const common::Status valid = ValidateQueryOptions(options);
  if (!valid.ok()) return valid;
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
    pool_ = std::make_unique<common::ThreadPool>(config_.num_threads);
  }
  return pool_.get();
}

query::DetectorService* SearchEngine::detector_service() {
  if (detector_service_ == nullptr) {
    query::DetectorServiceOptions options;
    options.device_batch = std::max<size_t>(1, config_.device_batch);
    options.max_retries = config_.transport_max_retries;
    options.flush_deadline_seconds = config_.flush_deadline_seconds;
    const size_t num_shards = sharded_ != nullptr ? sharded_->NumShards() : 1;
    if (config_.transport == TransportKind::kLoopback) {
      // The RPC stand-in: one runner thread per shard fed wire bytes, each
      // detecting inline; requests are stamped with the repository
      // fingerprint so a mis-deployed runner rejects them.
      options.repo_fingerprint = repo_->Fingerprint();
      query::LoopbackTransportOptions loopback = config_.loopback;
      if (loopback.expected_fingerprint == 0) {
        loopback.expected_fingerprint = options.repo_fingerprint;
      }
      transport_ =
          std::make_unique<query::LoopbackTransport>(num_shards, loopback);
      options.transport = transport_.get();
    } else if (config_.transport == TransportKind::kSocket) {
      // The real thing: TCP connections to one `exsample_shardd` per shard.
      // Sessions deploy over the RegisterSessionMsg control plane, and the
      // fingerprint pins which repository the fleet must serve.
      options.repo_fingerprint = repo_->Fingerprint();
      transport_ =
          std::make_unique<query::SocketTransport>(num_shards, config_.socket);
      options.transport = transport_.get();
    }
    // kLocal leaves `options.transport` null: the service then owns a
    // `LocalTransport` over the engine's pool.
    detector_service_ = std::make_unique<query::DetectorService>(
        options, num_shards, thread_pool());
    if (config_.collect_stats) {
      // The service's submit→grant / transport latency records run on the
      // coordinator thread that drives Submit/Poll/Flush/Take — the same
      // single-writer thread the engine timer already belongs to.
      detector_service_->BindStageTimer(&stage_timer_);
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

common::Result<std::unique_ptr<QuerySession>> SearchEngine::MakeSession(
    int32_t class_id, const query::RunnerOptions& runner_options,
    const QueryOptions& options) {
  // Before the warm start below: a refused query must not draw on the bank.
  const common::Status valid = ValidateQueryOptions(options);
  if (!valid.ok()) return valid;
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
  // bank (or a method without beliefs over the engine's chunking: adaptive
  // chunking splits a table of its own) leaves `options` untouched.
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

  // One detector context per shard (one shard owning every frame when the
  // engine is not sharded). Each shard's detector carries the same options
  // (and seed) as an unsharded detector would, and detection is a pure
  // per-frame function of (truth, options, frame) — so shard routing returns
  // exactly the detections a single detector would have.
  const size_t num_shards = sharded_ != nullptr ? sharded_->NumShards() : 1;
  std::vector<query::ShardContext> contexts(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (sharded_ != nullptr && sharded_->Shard(s).TotalFrames() == 0) continue;
    auto detector = std::make_unique<detect::SimulatedDetector>(truth_, det_opts);
    contexts[s].detector = detector.get();
    if (config_.simulate_decode) {
      // Decode position state is per shard context, so a shard's
      // sequential-read locality is priced next to its video — the
      // documented carve-out to shard-count trace-invariance.
      auto store = std::make_unique<video::SimulatedVideoStore>(repo_,
                                                                config_.decode_cost);
      contexts[s].store = store.get();
      session->shard_stores_.push_back(std::move(store));
    }
    session->shard_detectors_.push_back(std::move(detector));
  }
  session->shard_dispatcher_ =
      std::make_unique<query::ShardDispatcher>(sharded_, std::move(contexts));

  if (config_.discriminator == EngineConfig::DiscriminatorKind::kOracle) {
    session->discriminator_ = std::make_unique<track::OracleDiscriminator>();
  } else {
    session->discriminator_ =
        std::make_unique<track::IouTrackerDiscriminator>(truth_, config_.tracker);
  }

  // The caller sets the stop condition; the rest comes from the query.
  query::RunnerOptions session_options = runner_options;
  session_options.recall_class = class_id;
  session_options.max_samples =
      options.max_samples > 0 ? options.max_samples : repo_->TotalFrames();
  session_options.batch_size = std::max<size_t>(1, options.batch_size);
  session_options.thread_pool = thread_pool();
  session_options.shard_dispatcher = session->shard_dispatcher_.get();
  // Pipelined decode: every session's prefetcher submits its decode tasks
  // to the same pool its detect fan-out runs on (`decode_pool` left null).
  session_options.prefetch_depth = config_.prefetch_depth;
  // Every session submits to the engine's one shared service (solo steps
  // flush it inline — bit-identical to coalesced runs, which is the
  // contract the sched suite checks).
  session_options.detector_service = detector_service();
  session_options.service_session_id = next_session_id_++;
  // The configuration the session's RegisterSessionMsg ships: a remote shard
  // materializes an equivalent detector from exactly these options.
  session_options.detector_options = det_opts;
  session_options.session_stats = &session->scheduler_stats_;
  // The session times its stages from the stepping thread (single writer);
  // its retirement merges the timer into the engine aggregate. Null when
  // collect_stats is off — the runner's hot path then pays one branch.
  if (config_.collect_stats) session_options.stage_timer = &session->stage_timer_;
  // Detect-stage reuse (cache/sketch): the session binds to the engine's
  // shared manager under its key; the runner consults it per picked batch.
  // Warm start alone leaves this null — the detect stage is then untouched.
  if (reuse != nullptr && (reuse->options().cache || reuse->options().sketch)) {
    session->reuse_ = std::make_unique<reuse::SessionReuse>(
        reuse, reuse_key, repo_->TotalFrames(), &session->reuse_stats_);
    session_options.reuse = session->reuse_.get();
  }
  session->execution_ = std::make_unique<query::QueryExecution>(
      truth_, /*detector=*/nullptr, session->discriminator_.get(),
      session->strategy_.get(), session_options);
  session->engine_ = this;
  live_sessions_.push_back(session.get());
  return session;
}

stats::StatsSnapshot SearchEngine::SnapshotStats() {
  stats::StatsSnapshot snapshot = retired_;
  snapshot.sync_sequence = ++stats_sequence_;
  for (const QuerySession* session : live_sessions_) session->ExportStats(&snapshot);
  for (const serve::TenantRegistry* tenants : tenant_tables_) {
    tenants->ExportStats(&snapshot);
  }
  if (detector_service_ != nullptr) detector_service_->ExportStats(&snapshot);
  // By value: the transport keeps counting after this export.
  if (transport_ != nullptr) stats::Export(transport_->Stats(), "transport.", &snapshot);
  if (reuse_manager_ != nullptr) {
    stats::Export(reuse_manager_->cache().Stats(), "reuse.cache.", &snapshot);
    stats::Export(reuse_manager_->sketch().Stats(), "reuse.sketch.", &snapshot);
    stats::Export(reuse_manager_->beliefs().Stats(), "reuse.beliefs.", &snapshot);
  }
  return snapshot;
}

std::string SearchEngine::StatsJson() {
  return stats::WriteStatsJson(SnapshotStats(), &stage_timer_);
}

common::Status SearchEngine::WriteStatsFile(const std::string& path) {
  const std::string json = StatsJson();
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  out << json;
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return common::Status::Internal("cannot write stats to " + path);
  }
  return common::Status::OK();
}

void SearchEngine::RoundCompleted() {
  ++rounds_completed_;
  if (config_.stats_dump_path.empty() || config_.stats_dump_every_rounds == 0 ||
      rounds_completed_ % config_.stats_dump_every_rounds != 0) {
    return;
  }
  // A failed dump keeps the previous one; the workload goes on.
  WriteStatsFile(config_.stats_dump_path);
}

void SearchEngine::BindTenants(const serve::TenantRegistry* tenants) {
  tenant_tables_.push_back(tenants);
}

void SearchEngine::UnbindTenants(const serve::TenantRegistry* tenants) {
  tenants->ExportStats(&retired_);
  tenant_tables_.erase(
      std::find(tenant_tables_.begin(), tenant_tables_.end(), tenants));
}

common::Result<query::QueryTrace> SearchEngine::Run(
    common::Result<std::unique_ptr<QuerySession>> session) {
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
    const common::Status valid = ValidateQueryOptions(spec.options);
    if (!valid.ok()) return valid;
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
    RoundCompleted();
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
  return Run(CreateSession(class_id, limit, options));
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
  runner_options.true_distinct_target = static_cast<uint64_t>(
      std::ceil(recall * static_cast<double>(total)));
  return Run(MakeSession(class_id, runner_options, options));
}

}  // namespace engine
}  // namespace exsample
