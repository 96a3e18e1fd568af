// Seeded workload streams. A workload's composition is part of its
// definition: which (dataset, class, method, limit) queries it asks, how
// often, and which tenant sends them. The seed draws a concrete instance of
// it: the datasets' scenes, the order of the queries, every query's seed and
// the arrival times. A fixed composition keeps the metrics comparable across
// seeds; a stream is never cut by time, so every simulated-clock number
// repeats exactly for a seed.

#include <algorithm>
#include <cstring>

#include "bench.h"
#include "common/hash.h"
#include "common/rng.h"

namespace perfbench {
namespace {

// A class is asked with limit L only when it has at least kReach * L
// instances, so the limit stays reachable without scanning the repository.
constexpr uint64_t kReach = 4;

template <typename T>
void Shuffle(std::vector<T>* items, common::Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBounded(i)]);
  }
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

// --- analyst ---------------------------------------------------------------

// Every (dataset, class) pair that keeps the smallest limit reachable is
// asked kAsksPerKey times, so most queries re-ask an earlier pair. The
// methods and limits of the asks follow fixed cycles over the pairs; the seed
// draws the datasets, the order within each round of asks and every query's
// seed.
constexpr size_t kAsksPerKey = 4;
// Each dataset is built in this many seeded instances (scenes), so the
// stream's percentiles average over several scenes of every dataset.
constexpr size_t kInstances = 3;

AnalystStream MakeAnalystStream(uint64_t seed) {
  const std::vector<datasets::DatasetSpec> specs = datasets::AllDatasetSpecs();
  common::Rng rng(common::HashCombine(seed, 0xa11a157ULL));
  AnalystStream stream;
  for (size_t d = 0; d < kInstances * specs.size(); ++d) {
    stream.dataset_seeds.push_back(rng.NextU64());
  }

  // Mostly ExSample; the baselines and extensions make up the rest.
  const engine::Method kMethods[] = {
      engine::Method::kExSample,   engine::Method::kExSample,
      engine::Method::kRandom,     engine::Method::kExSample,
      engine::Method::kExSample,   engine::Method::kRandomPlus,
      engine::Method::kExSample,   engine::Method::kExSampleAdaptive,
      engine::Method::kExSample,   engine::Method::kHybrid};
  const uint64_t kLimits[] = {10, 20, 30, 40, 50};
  struct Key {
    size_t dataset;
    const datasets::QuerySpec* cls;
  };
  std::vector<Key> keys;
  for (size_t d = 0; d < stream.dataset_seeds.size(); ++d) {
    for (const datasets::QuerySpec& c : specs[d % specs.size()].queries) {
      if (c.instance_count >= kReach * kLimits[0]) keys.push_back({d, &c});
    }
  }
  // Round a asks every pair once, in seeded order; a pair's sequence of
  // (method, limit) asks is fixed, so how much each re-ask can reuse is too.
  for (size_t a = 0; a < kAsksPerKey; ++a) {
    std::vector<AnalystQuery> round;
    for (size_t k = 0; k < keys.size(); ++k) {
      AnalystQuery q;
      q.dataset = keys[k].dataset;
      q.class_id = keys[k].cls->class_id;
      q.method = kMethods[(k * kAsksPerKey + a) % 10];
      size_t l = (k + a) % 5;
      while (l > 0 && keys[k].cls->instance_count < kReach * kLimits[l]) --l;
      q.limit = kLimits[l];
      round.push_back(q);
    }
    Shuffle(&round, &rng);
    stream.queries.insert(stream.queries.end(), round.begin(), round.end());
  }
  for (AnalystQuery& q : stream.queries) q.query_seed = rng.NextU64();
  // Below the stream's working set, so inserts, evictions and hits all run.
  stream.cache_budget_frames = 12000;
  return stream;
}

uint64_t StreamDigest(const AnalystStream& stream) {
  uint64_t h = common::HashCombine(0xa11a157ULL, stream.cache_budget_frames);
  for (const uint64_t s : stream.dataset_seeds) h = common::HashCombine(h, s);
  for (const AnalystQuery& q : stream.queries) {
    h = common::HashCombine(h, q.dataset);
    h = common::HashCombine(h, static_cast<uint64_t>(q.class_id));
    h = common::HashCombine(h, q.limit);
    h = common::HashCombine(h, static_cast<uint64_t>(q.method));
    h = common::HashCombine(h, q.query_seed);
  }
  return h;
}

// --- serve -----------------------------------------------------------------

// Stream length is part of the serve workloads' definition: the serving
// loop's per-round cost grows with the sessions it has admitted. Every
// (class, method slot, limit) combination of dashcam appears equally often.
constexpr size_t kServeRepeats = 20;
// The mean simulated seconds one query of this mix costs alone, over the
// scenes tried: with kServeLoad it fixes the nominal span the arrivals
// spread over, which SetServeLoad then fits to the drawn scene. A load of
// 0.4 keeps queueing from dominating the simulated-clock percentiles, whose
// spread across seeds grows steeply with load (ten seeds spread p90 by
// 12-15% at 0.4, 14-20% at 0.5 and 70% at 0.8).
constexpr double kServeMeanQuerySeconds = 7.6;

ServeStream MakeServeStream(uint64_t seed) {
  const datasets::DatasetSpec spec = datasets::DashcamSpec();
  common::Rng rng(common::HashCombine(seed, 0x5e57eULL));
  ServeStream stream;
  stream.dataset_seed = rng.NextU64();

  const engine::Method kMethods[] = {engine::Method::kExSample, engine::Method::kExSample,
                                     engine::Method::kExSample, engine::Method::kRandom,
                                     engine::Method::kRandomPlus};
  const uint64_t kLimits[] = {5, 10};
  std::vector<engine::QuerySpec> specs;
  for (size_t r = 0; r < kServeRepeats; ++r) {
    for (const datasets::QuerySpec& c : spec.queries) {
      for (const engine::Method method : kMethods) {
        for (const uint64_t limit : kLimits) {
          common::Check(c.instance_count >= kReach * limit, "serve limit unreachable");
          engine::QuerySpec q;
          q.class_id = c.class_id;
          q.limit = limit;
          q.options.method = method;
          specs.push_back(q);
        }
      }
    }
  }
  Shuffle(&specs, &rng);
  const double span = static_cast<double>(specs.size()) * kServeMeanQuerySeconds / kServeLoad;
  stream.span_seconds = span;

  // Weights 4/2/1: two interactive tenants with Poisson arrivals and a
  // best-effort one arriving in pairs. Arrivals are a Poisson process
  // conditioned on its count: uniform instants over the span, so the
  // offered load is the same for every seed.
  struct TenantDef {
    const char* id;
    double weight;
    serve::SloClass slo;
    size_t share;  ///< Tenths of the queries.
    size_t burst;
  };
  const TenantDef defs[] = {
      {"gold", 4.0, serve::SloClass::kInteractive, 5, 1},
      {"silver", 2.0, serve::SloClass::kInteractive, 3, 1},
      {"bronze", 1.0, serve::SloClass::kBestEffort, 2, 2},
  };
  size_t next = 0;
  for (const TenantDef& def : defs) {
    ServeTenant tenant;
    tenant.spec.id = def.id;
    tenant.spec.weight = def.weight;
    tenant.spec.slo = def.slo;
    tenant.burst = def.burst;
    const size_t count = specs.size() * def.share / 10;
    stream.tenants.push_back(tenant);
    std::vector<double> instants((count + def.burst - 1) / def.burst);
    for (double& t : instants) t = rng.Uniform(0.0, span);
    std::sort(instants.begin(), instants.end());
    for (size_t k = 0; k < count; ++k, ++next) {
      serve::TenantQuery q;
      q.tenant = def.id;
      q.arrival_seconds = instants[k / def.burst];
      q.spec = specs[next];
      q.spec.options.exsample.seed = rng.NextU64();
      stream.queries.push_back(q);
    }
  }
  std::stable_sort(stream.queries.begin(), stream.queries.end(),
                   [](const serve::TenantQuery& a, const serve::TenantQuery& b) {
                     return a.arrival_seconds < b.arrival_seconds;
                   });
  return stream;
}

void SetServeLoad(double solo_seconds, ServeStream* stream) {
  const double span = solo_seconds / kServeLoad;
  const double stretch = span / stream->span_seconds;
  for (serve::TenantQuery& q : stream->queries) q.arrival_seconds *= stretch;
  stream->span_seconds = span;
}

uint64_t StreamDigest(const ServeStream& stream) {
  uint64_t h = common::HashCombine(0x5e57eULL, stream.dataset_seed);
  for (const ServeTenant& t : stream.tenants) {
    for (const char c : t.spec.id) h = common::HashCombine(h, static_cast<uint64_t>(c));
    h = common::HashCombine(h, Bits(t.spec.weight));
    h = common::HashCombine(h, static_cast<uint64_t>(t.spec.slo));
    h = common::HashCombine(h, t.burst);
  }
  for (const serve::TenantQuery& q : stream.queries) {
    for (const char c : q.tenant) h = common::HashCombine(h, static_cast<uint64_t>(c));
    h = common::HashCombine(h, Bits(q.arrival_seconds));
    h = common::HashCombine(h, static_cast<uint64_t>(q.spec.class_id));
    h = common::HashCombine(h, q.spec.limit);
    h = common::HashCombine(h, static_cast<uint64_t>(q.spec.options.method));
    h = common::HashCombine(h, q.spec.options.exsample.seed);
  }
  return h;
}

uint64_t TraceDigest(uint64_t digest, const query::QueryTrace& trace) {
  uint64_t h = common::HashCombine(digest, trace.total_instances);
  const auto fold = [&h](const query::DiscoveryPoint& p) {
    h = common::HashCombine(h, p.samples);
    h = common::HashCombine(h, Bits(p.seconds));
    h = common::HashCombine(h, p.reported_results);
    h = common::HashCombine(h, p.true_distinct);
  };
  for (const query::DiscoveryPoint& p : trace.points) fold(p);
  fold(trace.final);
  return h;
}

uint64_t OutcomeDigest(uint64_t digest, const serve::QueryOutcome& outcome) {
  uint64_t h = TraceDigest(digest, outcome.trace);
  h = common::HashCombine(h, static_cast<uint64_t>(outcome.kind));
  h = common::HashCombine(h, Bits(outcome.admitted_seconds));
  h = common::HashCombine(h, Bits(outcome.first_result_seconds));
  return common::HashCombine(h, Bits(outcome.finished_seconds));
}

}  // namespace perfbench
