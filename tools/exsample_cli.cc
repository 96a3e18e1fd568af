// exsample_cli: command-line driver for distinct-object queries on the
// bundled dataset emulations.
//
// Usage:
//   exsample_cli --list
//   exsample_cli --dataset=dashcam --class=bicycle [options]
//
// Options:
//   --method=exsample|adaptive|hybrid|random|random+|sequential|proxy
//   --limit=K          stop after K results            (default: 20)
//   --recall=R         run to recall fraction R instead of a limit
//   --scale=S          dataset linear scale            (default: 0.1)
//   --seed=N           RNG seed                        (default: 1)
//   --shards=N         split the repository into N clip-aligned shards
//                      (traces are invariant to shard count; default: 1)
//   --decode           simulate I/O+decode cost (per-query video store)
//   --prefetch=D       decode-ahead window: overlap decode of the next D
//                      frames with detection (implies --decode; 0 = sync)
//   --io-threads=N     decode worker threads for the prefetcher (implies
//                      --decode; default: 0 = share the detect pool)
//   --affinity=SPEC    pin engine threads to CPUs (Linux; best-effort, a
//                      no-op elsewhere). SPEC is either a bare taskset-style
//                      list ("0-3,6") applied to the detect workers, or
//                      ';'-separated group entries workers=LIST, io=LIST,
//                      runners=LIST — e.g.
//                        --affinity='workers=0-5;io=6;runners=7'
//                      pins detect workers, decode I/O workers, and loopback
//                      shard runners respectively (thread i of a group goes
//                      to cpus[i % n]). Oversubscribed or impossible pin
//                      sets warn and proceed unpinned — placement never
//                      affects results, only latency
//   --csv=PATH         write the discovery trace as CSV
//   --oracle           use the oracle discriminator (default: IoU tracker)
//
// Concurrent workloads (SearchEngine::RunConcurrent):
//   --concurrent=N     run N sessions at once, cycling over the dataset's
//                      query classes (or all N on --class when given), each
//                      with its own seed; prints a per-session summary
//   --scheduler=KIND   fair | priority | deadline       (default: fair)
//   --deadline=S       per-session budget in simulated seconds the deadline
//                      scheduler prioritizes against (sessions that have
//                      spent the most of their budget step first); without
//                      it the deadline scheduler degenerates to fair order
//   --coalesce=B       device batch of the detector service every session
//                      shares: picked frames merge into batches of up to B
//                      frames (default B: 32); the batch fill rate is
//                      printed. Traces are identical at every B.
//   --batch=B          frames per session step          (default: 8)
//
// Detect transport (traces are identical over every transport):
//   --transport=KIND   local | loopback | socket (default: local). Loopback
//                      executes every device batch through the serialized
//                      wire format on per-shard runner threads — the RPC
//                      stand-in, and how shards detect in parallel — and
//                      prints the wire traffic. Socket speaks
//                      the same wire format over TCP to one exsample_shardd
//                      per shard (see --shard-hosts)
//   --shard-hosts=LIST comma-separated host:port of each shard's
//                      exsample_shardd, one per shard, in shard order
//                      (required with --transport=socket)
//   --flush-deadline=MS latency-aware flush: ship a shard's queue when a
//                      wire batch fills or its oldest ticket has waited MS
//                      milliseconds, instead of only at round barriers
//   --max-retries=N    transient-failure retries per wire batch before the
//                      runner is marked down and work requeues onto a
//                      surviving shard (default: 2)
//
// Cross-query reuse (EngineConfig::reuse; the engine-owned cache/sketch/bank
// persists across every query of one invocation):
//   --reuse[=LIST]     enable cross-query result reuse: comma-separated list
//                      of cache | sketch | warm | all (bare --reuse = all);
//                      prints the reuse stats line (cache hit rate, saved
//                      detector seconds, FP-safe sketch skips) after the run
//   --repeat=N         run the solo query N times against the same engine —
//                      the reuse payoff shows from run 2 on (default: 1)
//
// Multi-tenant serving (serve::TenantServer above the engine; needs
// --concurrent to opt into the multi-session path):
//   --tenants=SPEC     semicolon-separated tenant entries in the
//                      ParseTenantSpec grammar `id[:key=value,...]` (keys
//                      weight, slo=interactive|besteffort, rate, budget,
//                      frames, maxlive, maxqueue) plus two CLI-side keys:
//                      queries=K sessions for the tenant (default 1) and
//                      spacing=S simulated seconds between their arrivals
//                      (default 0). Queries are admitted per tenant budgets/
//                      rate limits, scheduled weighted-fair across tenants
//                      (the --scheduler kind orders sessions within each
//                      tenant), and shed under overload; prints per-query
//                      outcomes and a per-tenant usage summary. The
//                      per-tenant queries= counts define the workload —
//                      --concurrent's own N is not used. Example:
//                        --tenants='prod:weight=4,queries=3;batch:slo=besteffort,rate=0.1,queries=5'
//
// Observability (the engine's unified counter registry and per-stage latency
// histograms; see the README's observability section):
//   --stats-json=PATH  after the run, write the engine's versioned stats
//                      snapshot (counters, gauges, per-stage latency
//                      quantiles) as JSON to PATH
//   --stats-every=N    with --stats-json and --concurrent: additionally
//                      rewrite PATH every N scheduler rounds while the
//                      workload runs, so progress can be watched live

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <string>

#include "exsample/exsample.h"

namespace {

using namespace exsample;

struct CliArgs {
  bool list = false;
  bool oracle = false;
  std::string dataset;
  std::string class_name;
  std::string method = "exsample";
  std::string csv_path;
  uint64_t limit = 20;
  std::optional<double> recall;
  double scale = 0.1;
  uint64_t seed = 1;
  size_t shards = 1;
  bool decode = false;
  size_t prefetch = 0;
  size_t io_threads = 0;
  std::string affinity;
  size_t concurrent = 0;
  size_t batch = 8;
  size_t device_batch = 32;
  double deadline = 0.0;
  std::string scheduler = "fair";
  std::string transport = "local";
  std::string shard_hosts;
  double flush_deadline_ms = 0.0;
  size_t max_retries = 2;
  bool reuse = false;
  std::string reuse_components = "all";
  size_t repeat = 1;
  std::string stats_json_path;
  uint64_t stats_every = 0;
  std::string tenants;
};

bool ParseArg(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

CliArgs ParseArgs(int argc, char** argv) {
  CliArgs args;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      args.list = true;
    } else if (std::strcmp(arg, "--oracle") == 0) {
      args.oracle = true;
    } else if (ParseArg(arg, "--dataset", &value)) {
      args.dataset = value;
    } else if (ParseArg(arg, "--class", &value)) {
      args.class_name = value;
    } else if (ParseArg(arg, "--method", &value)) {
      args.method = value;
    } else if (ParseArg(arg, "--csv", &value)) {
      args.csv_path = value;
    } else if (ParseArg(arg, "--limit", &value)) {
      args.limit = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(arg, "--recall", &value)) {
      args.recall = std::strtod(value.c_str(), nullptr);
    } else if (ParseArg(arg, "--scale", &value)) {
      args.scale = std::strtod(value.c_str(), nullptr);
    } else if (ParseArg(arg, "--seed", &value)) {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(arg, "--shards", &value)) {
      args.shards = std::strtoull(value.c_str(), nullptr, 10);
    } else if (std::strcmp(arg, "--decode") == 0) {
      args.decode = true;
    } else if (ParseArg(arg, "--prefetch", &value)) {
      args.prefetch = std::strtoull(value.c_str(), nullptr, 10);
      args.decode = true;
    } else if (ParseArg(arg, "--io-threads", &value)) {
      args.io_threads = std::strtoull(value.c_str(), nullptr, 10);
      args.decode = true;  // Decode workers are meaningless without decode.
    } else if (ParseArg(arg, "--affinity", &value)) {
      args.affinity = value;
    } else if (ParseArg(arg, "--concurrent", &value)) {
      args.concurrent = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(arg, "--scheduler", &value)) {
      args.scheduler = value;
    } else if (ParseArg(arg, "--coalesce", &value)) {
      args.device_batch = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(arg, "--batch", &value)) {
      args.batch = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(arg, "--deadline", &value)) {
      args.deadline = std::strtod(value.c_str(), nullptr);
    } else if (ParseArg(arg, "--transport", &value)) {
      args.transport = value;
    } else if (ParseArg(arg, "--shard-hosts", &value)) {
      args.shard_hosts = value;
    } else if (ParseArg(arg, "--flush-deadline", &value)) {
      args.flush_deadline_ms = std::strtod(value.c_str(), nullptr);
    } else if (ParseArg(arg, "--max-retries", &value)) {
      args.max_retries = std::strtoull(value.c_str(), nullptr, 10);
    } else if (std::strcmp(arg, "--reuse") == 0) {
      args.reuse = true;
    } else if (ParseArg(arg, "--reuse", &value)) {
      args.reuse = true;
      args.reuse_components = value;
    } else if (ParseArg(arg, "--repeat", &value)) {
      args.repeat = std::max<size_t>(1, std::strtoull(value.c_str(), nullptr, 10));
    } else if (ParseArg(arg, "--stats-json", &value)) {
      args.stats_json_path = value;
    } else if (ParseArg(arg, "--stats-every", &value)) {
      args.stats_every = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(arg, "--tenants", &value)) {
      args.tenants = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s (see header comment)\n", arg);
    }
  }
  return args;
}

// Parses a --affinity spec into placement lists. Accepts a bare CPU list
// ("0-3,6" -> detect workers) or ';'-separated group entries
// ("workers=0-3;io=4;runners=5-7"). Returns false with a message on a
// malformed spec; the caller warns and runs unpinned.
bool ParseAffinitySpec(const std::string& spec,
                       engine::PlacementConfig* placement, std::string* error) {
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    std::string group = "workers";
    std::string list = entry;
    const size_t eq = entry.find('=');
    if (eq != std::string::npos) {
      group = entry.substr(0, eq);
      list = entry.substr(eq + 1);
    }
    auto cpus = common::affinity::ParseCpuList(list);
    if (!cpus.ok()) {
      *error = cpus.status().message();
      return false;
    }
    if (group == "workers") {
      placement->worker_cpus = std::move(cpus).value();
    } else if (group == "io") {
      placement->io_cpus = std::move(cpus).value();
    } else if (group == "runners") {
      placement->runner_cpus = std::move(cpus).value();
    } else {
      *error = "unknown affinity group '" + group + "' (workers|io|runners)";
      return false;
    }
  }
  if (!placement->Any()) {
    *error = "empty affinity spec";
    return false;
  }
  return true;
}

// Highest CPU index named by a placement (-1 when none).
int MaxCpu(const engine::PlacementConfig& placement) {
  int max_cpu = -1;
  for (const auto* cpus :
       {&placement.worker_cpus, &placement.io_cpus, &placement.runner_cpus}) {
    for (int cpu : *cpus) max_cpu = std::max(max_cpu, cpu);
  }
  return max_cpu;
}

// Number of distinct CPUs named across all placement groups.
size_t DistinctCpus(const engine::PlacementConfig& placement) {
  std::set<int> distinct;
  for (const auto* cpus :
       {&placement.worker_cpus, &placement.io_cpus, &placement.runner_cpus}) {
    distinct.insert(cpus->begin(), cpus->end());
  }
  return distinct.size();
}

// Parses a --reuse component list ("cache,warm", "all", ...) into options;
// returns false on an unknown component name.
bool ParseReuseComponents(const std::string& list, reuse::ReuseOptions* out) {
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    const std::string item = list.substr(begin, end - begin);
    if (item == "all") {
      out->cache = out->sketch = out->warm_start = true;
    } else if (item == "cache") {
      out->cache = true;
    } else if (item == "sketch") {
      out->sketch = true;
    } else if (item == "warm") {
      out->warm_start = true;
    } else if (!item.empty()) {
      return false;
    }
    begin = end + 1;
  }
  return out->AnyEnabled();
}

// The reuse stats line: engine-wide cache/sketch/bank tallies plus the
// saved detector seconds the caller accumulated from its sessions.
void PrintReuseStats(engine::SearchEngine& search, double saved_seconds) {
  reuse::ReuseManager* manager = search.reuse_manager();
  if (manager == nullptr) return;
  const reuse::DetectionCacheStats cache = manager->cache().Stats();
  const reuse::ScannedSketchStats sketch = manager->sketch().Stats();
  const reuse::BeliefBankStats bank = manager->beliefs().Stats();
  const uint64_t lookups = cache.hits + cache.misses;
  std::printf(
      "reuse: cache hit rate %.1f%% (%llu of %llu lookups), saved detector "
      "time %s, %llu FP-safe sketch skips (%llu bloom positives rejected by "
      "exact guard)\n",
      lookups > 0 ? 100.0 * static_cast<double>(cache.hits) /
                        static_cast<double>(lookups)
                  : 0.0,
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(lookups),
      common::FormatDuration(saved_seconds).c_str(),
      static_cast<unsigned long long>(sketch.known_empty),
      static_cast<unsigned long long>(sketch.guard_rejects));
  if (bank.posteriors_recorded + bank.warm_starts > 0) {
    std::printf("reuse: %llu posteriors banked, %llu queries warm-started\n",
                static_cast<unsigned long long>(bank.posteriors_recorded),
                static_cast<unsigned long long>(bank.warm_starts));
  }
}

// The shared detector-service summary (fill rate, latency-aware flushes,
// wire traffic) printed after any multi-session run.
void PrintDetectorStats(engine::SearchEngine& search) {
  const query::DetectorService* service = search.detector_service();
  const query::DetectorServiceStats& stats = service->stats();
  std::printf(
      "detector service: %llu frames in %llu device batches "
      "(%.0f%% fill of %zu, %llu shared across sessions)\n",
      static_cast<unsigned long long>(stats.frames),
      static_cast<unsigned long long>(stats.device_batches),
      100.0 * service->FillRate(), service->options().device_batch,
      static_cast<unsigned long long>(stats.shared_batches));
  if (stats.fill_flushes + stats.deadline_flushes > 0) {
    std::printf("latency-aware flushes: %llu on batch fill, %llu on deadline\n",
                static_cast<unsigned long long>(stats.fill_flushes),
                static_cast<unsigned long long>(stats.deadline_flushes));
  }
  if (const query::ShardTransport* transport = search.shard_transport()) {
    // `wire_batches` counts first sends only — the retried/requeued
    // parenthetical names the *extra* sends on top of it.
    const query::TransportStats wire = transport->Stats();
    std::printf(
        "%s transport: %llu wire batches (%llu retried, %llu requeued), "
        "%llu bytes sent / %llu received\n",
        transport->name(), static_cast<unsigned long long>(stats.wire_batches),
        static_cast<unsigned long long>(stats.wire_retries),
        static_cast<unsigned long long>(stats.wire_requeues),
        static_cast<unsigned long long>(wire.bytes_sent),
        static_cast<unsigned long long>(wire.bytes_received));
  }
}

// The final --stats-json dump; returns false only when the path cannot be
// opened (the run itself already succeeded — the caller still fails loudly).
bool WriteStatsDump(engine::SearchEngine& search, const std::string& path) {
  if (path.empty()) return true;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out << search.StatsJson();
  std::printf("stats written to %s\n", path.c_str());
  return true;
}

// One --tenants entry: the library spec plus the CLI-side workload shape
// (how many queries the tenant submits, how far apart they arrive).
struct TenantEntry {
  serve::TenantSpec spec;
  size_t queries = 1;
  double spacing = 0.0;
};

// Parses the semicolon-separated --tenants list. The CLI-side keys
// (queries=, spacing=) are stripped out of each entry before the rest is
// handed to the library's ParseTenantSpec grammar, so unknown keys still
// fail loudly there.
std::optional<std::vector<TenantEntry>> ParseTenantEntries(const std::string& list) {
  std::vector<TenantEntry> entries;
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t end = list.find(';', begin);
    if (end == std::string::npos) end = list.size();
    const std::string entry = list.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    TenantEntry parsed;
    std::string spec_text;
    const size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      spec_text = entry;
    } else {
      spec_text = entry.substr(0, colon);
      std::string kept;
      size_t kb = colon + 1;
      while (kb <= entry.size()) {
        size_t ke = entry.find(',', kb);
        if (ke == std::string::npos) ke = entry.size();
        const std::string item = entry.substr(kb, ke - kb);
        kb = ke + 1;
        if (item.rfind("queries=", 0) == 0) {
          parsed.queries =
              std::max<size_t>(1, std::strtoull(item.c_str() + 8, nullptr, 10));
        } else if (item.rfind("spacing=", 0) == 0) {
          parsed.spacing = std::strtod(item.c_str() + 8, nullptr);
        } else if (!item.empty()) {
          kept += kept.empty() ? item : "," + item;
        }
      }
      if (!kept.empty()) spec_text += ":" + kept;
    }
    auto spec = serve::ParseTenantSpec(spec_text);
    if (!spec.ok()) {
      std::fprintf(stderr, "bad --tenants entry '%s': %s\n", entry.c_str(),
                   spec.status().ToString().c_str());
      return std::nullopt;
    }
    parsed.spec = std::move(spec).value();
    entries.push_back(std::move(parsed));
  }
  if (entries.empty()) {
    std::fprintf(stderr, "--tenants needs at least one tenant entry\n");
    return std::nullopt;
  }
  return entries;
}

std::optional<engine::Method> ParseMethod(const std::string& name) {
  if (name == "exsample") return engine::Method::kExSample;
  if (name == "adaptive") return engine::Method::kExSampleAdaptive;
  if (name == "hybrid") return engine::Method::kHybrid;
  if (name == "random") return engine::Method::kRandom;
  if (name == "random+") return engine::Method::kRandomPlus;
  if (name == "sequential") return engine::Method::kSequential;
  if (name == "proxy") return engine::Method::kProxyGuided;
  return std::nullopt;
}

int ListDatasets() {
  common::TextTable table;
  table.SetHeader({"dataset", "frames", "chunks", "classes"});
  for (const datasets::DatasetSpec& spec : datasets::AllDatasetSpecs()) {
    std::string classes;
    for (const datasets::QuerySpec& q : spec.queries) {
      if (!classes.empty()) classes += ", ";
      classes += q.class_name;
    }
    table.AddRow({spec.name, common::FormatCount(spec.total_frames),
                  std::to_string(spec.chunk_scheme == datasets::ChunkScheme::kPerClip
                                     ? spec.num_clips
                                     : spec.chunk_count),
                  classes});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = ParseArgs(argc, argv);
  if (!args.tenants.empty() && args.concurrent == 0 && !args.list) {
    std::fprintf(stderr,
                 "warning: --tenants is ignored without --concurrent (the "
                 "serving layer drives a multi-session workload)\n");
  }
  if (args.list || args.dataset.empty()) return ListDatasets();

  // Resolve the dataset (case-sensitive prefix match is forgiving enough).
  std::optional<datasets::DatasetSpec> spec;
  for (const datasets::DatasetSpec& candidate : datasets::AllDatasetSpecs()) {
    if (candidate.name.find(args.dataset) != std::string::npos) {
      spec = candidate;
      break;
    }
  }
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown dataset '%s'; --list shows options\n",
                 args.dataset.c_str());
    return 1;
  }
  const datasets::QuerySpec* query = spec->FindQuery(args.class_name);
  if (query == nullptr && (args.concurrent == 0 || !args.class_name.empty())) {
    // --concurrent without --class cycles over every query class instead.
    std::fprintf(stderr, "dataset '%s' has no class '%s'; --list shows options\n",
                 spec->name.c_str(), args.class_name.c_str());
    return 1;
  }
  const auto method = ParseMethod(args.method);
  if (!method.has_value()) {
    std::fprintf(stderr, "unknown method '%s'\n", args.method.c_str());
    return 1;
  }
  const auto scheduler_kind = query::ParseSchedulerKind(args.scheduler);
  if (!scheduler_kind.has_value()) {
    std::fprintf(stderr, "unknown scheduler '%s' (fair|priority|deadline)\n",
                 args.scheduler.c_str());
    return 1;
  }
  const auto transport_kind = engine::ParseTransportKind(args.transport);
  if (!transport_kind.has_value()) {
    std::fprintf(stderr, "unknown transport '%s' (local|loopback|socket)\n",
                 args.transport.c_str());
    return 1;
  }

  std::printf("building %s at scale %.2f (seed %llu)...\n", spec->name.c_str(),
              args.scale, static_cast<unsigned long long>(args.seed));
  auto built = datasets::BuiltShardedDataset::Build(*spec, std::max<size_t>(1, args.shards),
                                                    args.seed, args.scale);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const datasets::BuiltDataset& ds = built.value().dataset();
  const video::ShardedRepository& sharded = built.value().sharded();
  const bool use_shards = sharded.NumShards() > 1;
  if (use_shards) {
    std::printf("shards: %zu clip-aligned (", sharded.NumShards());
    for (uint32_t s = 0; s < sharded.NumShards(); ++s) {
      std::printf("%s%s", s == 0 ? "" : " | ",
                  common::FormatCount(sharded.Shard(s).TotalFrames()).c_str());
    }
    std::printf(" frames)\n");
  }

  engine::EngineConfig config;
  if (args.oracle) {
    config.discriminator = engine::EngineConfig::DiscriminatorKind::kOracle;
  }
  if (args.decode) {
    config.simulate_decode = true;
    config.prefetch_depth = args.prefetch;
    config.io_threads = args.io_threads;
  }
  config.scheduler = *scheduler_kind;
  config.scheduler_seed = args.seed;
  if (args.stats_every > 0) {
    if (args.stats_json_path.empty()) {
      std::fprintf(stderr,
                   "warning: --stats-every needs --stats-json=PATH to know "
                   "where to dump\n");
    } else {
      config.stats_dump_path = args.stats_json_path;
      config.stats_dump_every_rounds = args.stats_every;
    }
  }
  if (args.reuse &&
      !ParseReuseComponents(args.reuse_components, &config.reuse)) {
    std::fprintf(stderr, "unknown --reuse component in '%s' (cache|sketch|warm|all)\n",
                 args.reuse_components.c_str());
    return 1;
  }
  config.device_batch = std::max<size_t>(1, args.device_batch);
  config.transport = *transport_kind;
  config.flush_deadline_seconds = args.flush_deadline_ms / 1000.0;
  config.transport_max_retries = args.max_retries;
  if (*transport_kind == engine::TransportKind::kSocket) {
    std::string rest = args.shard_hosts;
    while (!rest.empty()) {
      const size_t comma = rest.find(',');
      config.socket.hosts.push_back(rest.substr(0, comma));
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    }
    if (config.socket.hosts.size() != std::max<size_t>(1, args.shards)) {
      std::fprintf(stderr,
                   "--transport=socket needs --shard-hosts with one "
                   "host:port per shard (%zu given, %zu shards)\n",
                   config.socket.hosts.size(), std::max<size_t>(1, args.shards));
      return 1;
    }
  }
  if (!args.affinity.empty()) {
    engine::PlacementConfig placement;
    std::string affinity_error;
    if (!ParseAffinitySpec(args.affinity, &placement, &affinity_error)) {
      std::fprintf(stderr, "warning: --affinity ignored: %s\n",
                   affinity_error.c_str());
    } else {
      // Validation warns and proceeds — a bad pin set costs latency, never
      // correctness, so it must not kill a run that would otherwise work.
      if (!common::affinity::Supported()) {
        std::fprintf(stderr,
                     "warning: --affinity is a no-op on this platform (thread "
                     "pinning needs Linux)\n");
      }
      const int hw = common::affinity::HardwareThreads();
      const size_t distinct = DistinctCpus(placement);
      if (distinct > static_cast<size_t>(hw) || MaxCpu(placement) >= hw) {
        std::fprintf(stderr,
                     "warning: --affinity names %zu CPUs (max index %d) but "
                     "only %d hardware threads exist; out-of-range pins will "
                     "fail and threads sharing a CPU will contend\n",
                     distinct, MaxCpu(placement), hw);
      }
      if (!placement.io_cpus.empty() && args.io_threads == 0) {
        std::fprintf(stderr,
                     "warning: --affinity io= pins have no pool to apply to "
                     "with --io-threads=0 (decode shares the detect pool; its "
                     "workers follow the workers= pins)\n");
      }
      if (!placement.runner_cpus.empty() &&
          *transport_kind != engine::TransportKind::kLoopback) {
        std::fprintf(stderr,
                     "warning: --affinity runners= pins apply only with "
                     "--transport=loopback (no runner threads exist "
                     "otherwise)\n");
      }
      config.placement = placement;
    }
  }
  // --shards=1 (the default) keeps the zero-overhead single-repository path;
  // traces are identical either way.
  std::optional<engine::SearchEngine> engine_storage;
  if (use_shards) {
    engine_storage.emplace(&sharded, &ds.chunking(), &ds.truth(), config);
  } else {
    engine_storage.emplace(&ds.repo(), &ds.chunking(), &ds.truth(), config);
  }
  engine::SearchEngine& search = *engine_storage;
  engine::QueryOptions options;
  options.method = *method;
  options.exsample.seed = args.seed;

  if (args.concurrent > 0) {
    // Multi-session workload: N sessions cycle over the dataset's query
    // classes (all on --class when one was named), each with its own seed,
    // executed by RunConcurrent under the configured scheduler, with the
    // engine's detector service filling device batches across the sessions.
    if (args.recall.has_value()) {
      std::fprintf(stderr,
                   "warning: --recall is ignored with --concurrent (sessions "
                   "run to --limit)\n");
    }
    if (!args.csv_path.empty()) {
      std::fprintf(stderr,
                   "warning: --csv is ignored with --concurrent (one trace "
                   "per session; use a solo run to export a trace)\n");
    }
    if (*scheduler_kind == query::SchedulerKind::kDeadline && args.deadline <= 0.0) {
      std::fprintf(stderr,
                   "warning: --scheduler=deadline without --deadline=S gives "
                   "every session infinite slack (fair order)\n");
    }
    if (!args.tenants.empty()) {
      // Serving path: the tenant spec defines the workload (queries= per
      // tenant), admitted and scheduled by the TenantServer above the
      // engine; --concurrent only opts into the multi-session machinery.
      auto entries = ParseTenantEntries(args.tenants);
      if (!entries.has_value()) return 1;
      size_t total_queries = 0;
      for (const TenantEntry& e : *entries) total_queries += e.queries;
      if (args.concurrent > 1 && args.concurrent != total_queries) {
        std::fprintf(stderr,
                     "warning: --concurrent=%zu is superseded by the --tenants "
                     "queries= counts (serving %zu queries)\n",
                     args.concurrent, total_queries);
      }
      serve::TenantServer server(&search, serve::ServeOptions{});
      for (const TenantEntry& e : *entries) {
        auto added = server.AddTenant(e.spec);
        if (!added.ok()) {
          std::fprintf(stderr, "bad tenant '%s': %s\n", e.spec.id.c_str(),
                       added.status().ToString().c_str());
          return 1;
        }
      }
      std::vector<serve::TenantQuery> tenant_queries;
      std::vector<const datasets::QuerySpec*> query_class;
      for (const TenantEntry& e : *entries) {
        for (size_t k = 0; k < e.queries; ++k) {
          const size_t gi = tenant_queries.size();
          const datasets::QuerySpec& q =
              query != nullptr ? *query : spec->queries[gi % spec->queries.size()];
          serve::TenantQuery tq;
          tq.tenant = e.spec.id;
          tq.arrival_seconds = e.spacing * static_cast<double>(k);
          tq.spec.class_id = q.class_id;
          tq.spec.limit = args.limit;
          tq.spec.options = options;
          tq.spec.options.exsample.seed = args.seed + gi;
          tq.spec.options.batch_size = std::max<size_t>(1, args.batch);
          tq.spec.deadline_seconds = args.deadline;
          tenant_queries.push_back(std::move(tq));
          query_class.push_back(&q);
        }
      }
      std::printf("serving %zu queries from %zu tenants (%s scheduler within "
                  "tenants)...\n",
                  tenant_queries.size(), entries->size(),
                  query::SchedulerKindName(*scheduler_kind));
      auto outcomes = server.Serve(tenant_queries);
      if (!outcomes.ok()) {
        std::fprintf(stderr, "serving failed: %s\n",
                     outcomes.status().ToString().c_str());
        return 1;
      }
      common::TextTable table;
      table.SetHeader({"query", "tenant", "class", "outcome", "frames",
                       "results", "first result", "detail"});
      for (size_t i = 0; i < outcomes.value().size(); ++i) {
        const serve::QueryOutcome& o = outcomes.value()[i];
        table.AddRow(
            {std::to_string(i), tenant_queries[i].tenant,
             query_class[i]->class_name, serve::OutcomeKindName(o.kind),
             common::FormatCount(o.trace.final.samples),
             std::to_string(o.trace.final.reported_results),
             o.first_result_seconds >= 0.0
                 ? common::FormatDuration(o.first_result_seconds)
                 : "-",
             o.status.ok() ? "" : o.status.ToString()});
      }
      std::printf("%s", table.ToString().c_str());
      common::TextTable usage_table;
      usage_table.SetHeader({"tenant", "weight", "slo", "admitted", "rejected",
                             "shed", "completed", "charged"});
      for (size_t t = 0; t < server.tenants().size(); ++t) {
        const serve::TenantSpec& tspec = server.tenants().spec(t);
        const serve::TenantUsage& usage = server.tenants().usage(t);
        char weight_buf[32];
        std::snprintf(weight_buf, sizeof(weight_buf), "%.1f", tspec.weight);
        usage_table.AddRow({tspec.id, weight_buf, serve::SloClassName(tspec.slo),
                            std::to_string(usage.admitted),
                            std::to_string(usage.rejected),
                            std::to_string(usage.shed),
                            std::to_string(usage.completed),
                            common::FormatDuration(usage.charged_seconds)});
      }
      std::printf("%s", usage_table.ToString().c_str());
      PrintDetectorStats(search);
      return WriteStatsDump(search, args.stats_json_path) ? 0 : 1;
    }
    std::vector<engine::QuerySpec> specs;
    for (size_t i = 0; i < args.concurrent; ++i) {
      engine::QuerySpec qspec;
      const datasets::QuerySpec& q =
          query != nullptr ? *query : spec->queries[i % spec->queries.size()];
      qspec.class_id = q.class_id;
      qspec.limit = args.limit;
      qspec.options = options;
      qspec.options.exsample.seed = args.seed + i;
      qspec.options.batch_size = std::max<size_t>(1, args.batch);
      // One shared budget: slack = deadline - spent diverges as sessions
      // spend, so the deadline scheduler steps whoever is closest to blowing
      // it first.
      qspec.deadline_seconds = args.deadline;
      specs.push_back(qspec);
    }
    if (args.repeat > 1) {
      std::fprintf(stderr,
                   "warning: --repeat is ignored with --concurrent (the N "
                   "sessions already share the engine's reuse state)\n");
    }
    std::printf("running %zu sessions (%s scheduler%s)...\n", specs.size(),
                query::SchedulerKindName(*scheduler_kind),
                args.reuse ? ", cross-query reuse" : "");
    // With reuse on, watch the sessions to accumulate their per-session
    // saved-seconds tallies (the sessions are internal to RunConcurrent).
    std::vector<reuse::ReuseSessionStats> session_reuse(specs.size());
    auto traces =
        args.reuse
            ? search.RunConcurrent(
                  specs,
                  [&session_reuse](size_t idx, const engine::QuerySession& s) {
                    session_reuse[idx] = s.reuse_stats();
                  })
            : search.RunConcurrent(specs);
    if (!traces.ok()) {
      std::fprintf(stderr, "workload failed: %s\n",
                   traces.status().ToString().c_str());
      return 1;
    }
    common::TextTable table;
    table.SetHeader({"session", "class", "method", "frames", "results",
                     "model time"});
    for (size_t i = 0; i < traces.value().size(); ++i) {
      const query::QueryTrace& t = traces.value()[i];
      const datasets::QuerySpec& q =
          query != nullptr ? *query : spec->queries[i % spec->queries.size()];
      table.AddRow({std::to_string(i), q.class_name, t.strategy_name,
                    common::FormatCount(t.final.samples),
                    std::to_string(t.final.reported_results),
                    common::FormatDuration(t.final.seconds)});
    }
    std::printf("%s", table.ToString().c_str());
    PrintDetectorStats(search);
    double saved_seconds = 0.0;
    for (const reuse::ReuseSessionStats& rs : session_reuse) {
      saved_seconds += rs.saved_detector_seconds;
    }
    PrintReuseStats(search, saved_seconds);
    return WriteStatsDump(search, args.stats_json_path) ? 0 : 1;
  }

  // Solo run(s). --repeat runs the same query repeatedly against the same
  // engine — with --reuse, later runs answer from the shared cache/sketch and
  // warm-start their beliefs; without it they are independent repetitions.
  std::optional<query::QueryTrace> final_trace;
  double saved_seconds = 0.0;
  for (size_t run = 0; run < args.repeat; ++run) {
    if (args.recall.has_value()) {
      auto trace = search.RunToRecall(query->class_id, *args.recall, options);
      if (!trace.ok()) {
        std::fprintf(stderr, "query failed: %s\n", trace.status().ToString().c_str());
        return 1;
      }
      final_trace = std::move(trace).value();
    } else {
      // Session-level execution so each run's reuse tallies are readable.
      auto session = search.CreateSession(query->class_id, args.limit, options);
      if (!session.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     session.status().ToString().c_str());
        return 1;
      }
      final_trace = session.value()->Finish();
      if (!session.value()->status().ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     session.value()->status().ToString().c_str());
        return 1;
      }
      const reuse::ReuseSessionStats& rs = session.value()->reuse_stats();
      saved_seconds += rs.saved_detector_seconds;
      if (args.repeat > 1) {
        std::printf("run %zu: %s frames, %s model time, %s detector time saved%s\n",
                    run + 1, common::FormatCount(final_trace->final.samples).c_str(),
                    common::FormatDuration(final_trace->final.seconds).c_str(),
                    common::FormatDuration(rs.saved_detector_seconds).c_str(),
                    rs.warm_started ? ", warm-started" : "");
      }
    }
  }
  const query::QueryTrace& t = *final_trace;

  if (args.recall.has_value()) {
    std::printf("query: reach %.0f%% of %llu distinct '%s' instances\n",
                *args.recall * 100.0,
                static_cast<unsigned long long>(t.total_instances),
                query->class_name.c_str());
  } else {
    std::printf("query: find %llu distinct '%s' instances\n",
                static_cast<unsigned long long>(args.limit),
                query->class_name.c_str());
  }
  std::printf("method: %s\n", t.strategy_name.c_str());
  std::printf("frames processed: %s of %s (%.3f%%)\n",
              common::FormatCount(t.final.samples).c_str(),
              common::FormatCount(ds.repo().TotalFrames()).c_str(),
              100.0 * static_cast<double>(t.final.samples) /
                  static_cast<double>(ds.repo().TotalFrames()));
  std::printf("results returned: %llu (%llu truly distinct)\n",
              static_cast<unsigned long long>(t.final.reported_results),
              static_cast<unsigned long long>(t.final.true_distinct));
  std::printf("model time: %s (full scan would be %s)\n",
              common::FormatDuration(t.final.seconds).c_str(),
              common::FormatDuration(static_cast<double>(ds.repo().TotalFrames()) /
                                     query::kDetectorFps)
                  .c_str());

  PrintReuseStats(search, saved_seconds);

  if (!args.csv_path.empty()) {
    std::ofstream csv(args.csv_path);
    if (!csv) {
      std::fprintf(stderr, "cannot open %s\n", args.csv_path.c_str());
      return 1;
    }
    query::WriteTraceCsv(t, csv);
    std::printf("trace written to %s\n", args.csv_path.c_str());
  }
  return WriteStatsDump(search, args.stats_json_path) ? 0 : 1;
}
