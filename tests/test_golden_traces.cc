// Golden trace digests: one 64-bit digest per (engine config, method, seed)
// over a small matrix, pinned as constants.
//
// Every equivalence suite compares two live configurations against each
// other, so a change that moves *both* sides in lockstep passes all of them.
// These constants do not move with the code: they were computed once and a
// digest only changes when some trace does. On a mismatch the test prints the
// whole recomputed table, so an intended trace change is re-pinned on purpose
// (paste the table over `kGolden`) rather than by accident.
//
// A digest folds every discovery point of the trace — samples, reported
// results, true distinct, and the bit pattern of the charged seconds — plus
// the final point. Seconds are hashed bitwise on purpose: a reordered
// floating-point sum is a trace change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "datasets/presets.h"
#include "engine/search_engine.h"

namespace exsample {
namespace {

const engine::Method kAllMethods[] = {
    engine::Method::kExSample,   engine::Method::kExSampleAdaptive,
    engine::Method::kRandom,     engine::Method::kRandomPlus,
    engine::Method::kSequential, engine::Method::kProxyGuided,
    engine::Method::kHybrid,
};
const uint64_t kSeeds[] = {1, 2};
constexpr uint64_t kLimit = 10;

uint64_t DigestPoint(uint64_t h, const query::DiscoveryPoint& p) {
  uint64_t seconds_bits = 0;
  static_assert(sizeof(seconds_bits) == sizeof(p.seconds), "double is 64-bit");
  std::memcpy(&seconds_bits, &p.seconds, sizeof(seconds_bits));
  h = common::HashCombine(h, p.samples);
  h = common::HashCombine(h, p.reported_results);
  h = common::HashCombine(h, p.true_distinct);
  return common::HashCombine(h, seconds_bits);
}

uint64_t DigestTrace(uint64_t h, const query::QueryTrace& trace) {
  for (const query::DiscoveryPoint& p : trace.points) h = DigestPoint(h, p);
  return DigestPoint(h, trace.final);
}

/// One row of the matrix: an engine configuration, how queries run on it,
/// and how many consecutive identical queries a digest covers (two for the
/// reuse row, so the second query hits the first one's cache and bank).
struct ConfigRow {
  const char* name;
  engine::EngineConfig config;
  size_t batch_size = 1;
  int queries = 1;
};

std::vector<ConfigRow> Configs() {
  std::vector<ConfigRow> rows;
  rows.push_back({"default", engine::EngineConfig{}, 1, 1});

  // Batch 8 over 2 shards, simulated decode with prefetch depth 4, 2 threads.
  engine::EngineConfig pipelined;
  pipelined.num_shards = 2;
  pipelined.simulate_decode = true;
  pipelined.prefetch_depth = 4;
  pipelined.num_threads = 2;
  rows.push_back({"pipelined", pipelined, 8, 1});

  engine::EngineConfig loopback;
  loopback.transport = engine::TransportKind::kLoopback;
  rows.push_back({"loopback", loopback, 1, 1});

  engine::EngineConfig reuse;
  reuse.reuse = reuse::ReuseOptions::All();
  rows.push_back({"reuse-all-twice", reuse, 1, 2});

  // Unsharded simulated decode under full reuse, two consecutive queries:
  // the engine shape of the repository benchmark's analyst workload.
  engine::EngineConfig decode_reuse;
  decode_reuse.simulate_decode = true;
  decode_reuse.reuse = reuse::ReuseOptions::All();
  rows.push_back({"decode-reuse", decode_reuse, 1, 2});

  // Unsharded simulated decode with prefetch depth 4, decode tasks and
  // detect fan-out sharing one 3-thread pool, batch 8.
  engine::EngineConfig decode_prefetch;
  decode_prefetch.simulate_decode = true;
  decode_prefetch.prefetch_depth = 4;
  decode_prefetch.num_threads = 3;
  rows.push_back({"decode-prefetch", decode_prefetch, 8, 1});
  return rows;
}

struct Golden {
  const char* config;
  const char* method;
  uint64_t seed;
  uint64_t digest;
};

// Computed on the commit that introduced this suite, before the detect
// paths were merged into one; the decode-* rows on the last commit before
// unsharded sessions ran over one-shard contexts. The exsample and hybrid
// digests were re-pinned in every row when Thompson picks began drawing one
// maximum per group of identical beliefs (same pick distribution, another
// random stream). The exsample-adaptive digests were re-pinned in every row
// when adaptive chunking moved onto the shared ChunkStatsTable and Thompson
// pick: another random stream, splits counted by a chunk's own samples, the
// inherited evidence carried in the children's priors, and exhausted chunks
// left unsplit. Re-pin only for an intended trace change.
const Golden kGolden[] = {
    // clang-format off
    {"default", "exsample", 1, 0x9e36568d47c0e756ULL},
    {"default", "exsample", 2, 0x0196706ad95b995eULL},
    {"default", "exsample-adaptive", 1, 0xfef0994bace49720ULL},
    {"default", "exsample-adaptive", 2, 0xdbcee0c95e8f095cULL},
    {"default", "random", 1, 0xed792de252ba62c7ULL},
    {"default", "random", 2, 0x722d5da420a1969bULL},
    {"default", "random+", 1, 0xfdb2102aed3dff24ULL},
    {"default", "random+", 2, 0x273061711fa9373dULL},
    {"default", "sequential", 1, 0x6d6379e559e60c70ULL},
    {"default", "sequential", 2, 0x6d6379e559e60c70ULL},
    {"default", "proxy", 1, 0x0dbb5a4f0adbb6dfULL},
    {"default", "proxy", 2, 0x421144ba7c275085ULL},
    {"default", "hybrid", 1, 0x36fd83cb153a4084ULL},
    {"default", "hybrid", 2, 0x345227f5a4c3d8a9ULL},
    {"pipelined", "exsample", 1, 0xae886d9fbcc4c9deULL},
    {"pipelined", "exsample", 2, 0x3386163eaf2eba20ULL},
    {"pipelined", "exsample-adaptive", 1, 0xf3d6c7bb7b41a4b5ULL},
    {"pipelined", "exsample-adaptive", 2, 0x4d3c70d4b16e18c2ULL},
    {"pipelined", "random", 1, 0x1763026bc7b7b319ULL},
    {"pipelined", "random", 2, 0xa0e371cae621194cULL},
    {"pipelined", "random+", 1, 0x1682a736abacba7aULL},
    {"pipelined", "random+", 2, 0x8b97a83eb38e0b09ULL},
    {"pipelined", "sequential", 1, 0xa6531ea0d9e85da3ULL},
    {"pipelined", "sequential", 2, 0xa6531ea0d9e85da3ULL},
    {"pipelined", "proxy", 1, 0xa201fe3ca3af39a6ULL},
    {"pipelined", "proxy", 2, 0xb5169906672c8c35ULL},
    {"pipelined", "hybrid", 1, 0x5fa1371f5872c9f8ULL},
    {"pipelined", "hybrid", 2, 0x974a9d66a2ec8d5aULL},
    {"loopback", "exsample", 1, 0x9e36568d47c0e756ULL},
    {"loopback", "exsample", 2, 0x0196706ad95b995eULL},
    {"loopback", "exsample-adaptive", 1, 0xfef0994bace49720ULL},
    {"loopback", "exsample-adaptive", 2, 0xdbcee0c95e8f095cULL},
    {"loopback", "random", 1, 0xed792de252ba62c7ULL},
    {"loopback", "random", 2, 0x722d5da420a1969bULL},
    {"loopback", "random+", 1, 0xfdb2102aed3dff24ULL},
    {"loopback", "random+", 2, 0x273061711fa9373dULL},
    {"loopback", "sequential", 1, 0x6d6379e559e60c70ULL},
    {"loopback", "sequential", 2, 0x6d6379e559e60c70ULL},
    {"loopback", "proxy", 1, 0x0dbb5a4f0adbb6dfULL},
    {"loopback", "proxy", 2, 0x421144ba7c275085ULL},
    {"loopback", "hybrid", 1, 0x36fd83cb153a4084ULL},
    {"loopback", "hybrid", 2, 0x345227f5a4c3d8a9ULL},
    {"reuse-all-twice", "exsample", 1, 0x5a6194cae06a474eULL},
    {"reuse-all-twice", "exsample", 2, 0x46c0b06344dd6430ULL},
    {"reuse-all-twice", "exsample-adaptive", 1, 0x6bb34f4239c637f3ULL},
    {"reuse-all-twice", "exsample-adaptive", 2, 0xba6dbe0bfb8df9ecULL},
    {"reuse-all-twice", "random", 1, 0x461f6b8522781161ULL},
    {"reuse-all-twice", "random", 2, 0x4fe7d0657552a9b8ULL},
    {"reuse-all-twice", "random+", 1, 0x8324ad6585e08f36ULL},
    {"reuse-all-twice", "random+", 2, 0x0b0863c40ffbcc2dULL},
    {"reuse-all-twice", "sequential", 1, 0xe49729bc304a1c53ULL},
    {"reuse-all-twice", "sequential", 2, 0xe49729bc304a1c53ULL},
    {"reuse-all-twice", "proxy", 1, 0xbb671dcca667c79aULL},
    {"reuse-all-twice", "proxy", 2, 0xf1c909c2eb7d743dULL},
    {"reuse-all-twice", "hybrid", 1, 0x9412db5904081410ULL},
    {"reuse-all-twice", "hybrid", 2, 0xb518ad4faffc1edeULL},
    {"decode-reuse", "exsample", 1, 0x13ab8855ff9a5836ULL},
    {"decode-reuse", "exsample", 2, 0x074e0e722e89c06bULL},
    {"decode-reuse", "exsample-adaptive", 1, 0x66ef8fa1c4955d15ULL},
    {"decode-reuse", "exsample-adaptive", 2, 0xfad386a897edeed0ULL},
    {"decode-reuse", "random", 1, 0xf5a9ce427b274ae4ULL},
    {"decode-reuse", "random", 2, 0x7056a42964f84860ULL},
    {"decode-reuse", "random+", 1, 0x2e23a5393dea7a51ULL},
    {"decode-reuse", "random+", 2, 0x1bd57d77e92a548bULL},
    {"decode-reuse", "sequential", 1, 0xf409638008fdbbd6ULL},
    {"decode-reuse", "sequential", 2, 0xf409638008fdbbd6ULL},
    {"decode-reuse", "proxy", 1, 0x6bd07014ff0ce511ULL},
    {"decode-reuse", "proxy", 2, 0x5637693823395f7aULL},
    {"decode-reuse", "hybrid", 1, 0xcfc84e819a498bf4ULL},
    {"decode-reuse", "hybrid", 2, 0xa3312287ef1de3adULL},
    {"decode-prefetch", "exsample", 1, 0xae886d9fbcc4c9deULL},
    {"decode-prefetch", "exsample", 2, 0x3386163eaf2eba20ULL},
    {"decode-prefetch", "exsample-adaptive", 1, 0xf3d6c7bb7b41a4b5ULL},
    {"decode-prefetch", "exsample-adaptive", 2, 0x4d3c70d4b16e18c2ULL},
    {"decode-prefetch", "random", 1, 0x1763026bc7b7b319ULL},
    {"decode-prefetch", "random", 2, 0xa0e371cae621194cULL},
    {"decode-prefetch", "random+", 1, 0x1682a736abacba7aULL},
    {"decode-prefetch", "random+", 2, 0x8b97a83eb38e0b09ULL},
    {"decode-prefetch", "sequential", 1, 0xa6531ea0d9e85da3ULL},
    {"decode-prefetch", "sequential", 2, 0xa6531ea0d9e85da3ULL},
    {"decode-prefetch", "proxy", 1, 0xa201fe3ca3af39a6ULL},
    {"decode-prefetch", "proxy", 2, 0xb5169906672c8c35ULL},
    {"decode-prefetch", "hybrid", 1, 0x5fa1371f5872c9f8ULL},
    {"decode-prefetch", "hybrid", 2, 0x974a9d66a2ec8d5aULL},
    // clang-format on
};

const datasets::BuiltDataset& Dashcam() {
  static const datasets::BuiltDataset built = [] {
    auto result = datasets::BuiltDataset::Build(datasets::DashcamSpec(), /*seed=*/3,
                                                /*scale=*/0.02);
    common::CheckOk(result.status(), "golden dataset build failed");
    return std::move(result).value();
  }();
  return built;
}

uint64_t RunRow(const ConfigRow& row, engine::Method method, uint64_t seed) {
  const datasets::BuiltDataset& data = Dashcam();
  engine::EngineConfig config = row.config;
  config.detector.seed = 100 + seed;
  engine::SearchEngine engine(&data.repo(), &data.chunking(), &data.truth(), config);
  engine::QueryOptions options;
  options.method = method;
  options.batch_size = row.batch_size;
  options.exsample.seed = seed;
  options.adaptive.seed = seed;
  options.hybrid.seed = seed;
  uint64_t digest = 0;
  for (int q = 0; q < row.queries; ++q) {
    auto trace = engine.FindDistinct(/*class_id=*/0, kLimit, options);
    common::CheckOk(trace.status(), "golden query failed");
    digest = DigestTrace(digest, trace.value());
  }
  return digest;
}

TEST(GoldenTracesTest, DigestsMatchPinnedConstants) {
  std::vector<Golden> computed;
  for (const ConfigRow& row : Configs()) {
    for (const engine::Method method : kAllMethods) {
      for (const uint64_t seed : kSeeds) {
        computed.push_back(Golden{row.name, engine::MethodName(method), seed,
                                  RunRow(row, method, seed)});
      }
    }
  }

  bool all_match = computed.size() == sizeof(kGolden) / sizeof(kGolden[0]);
  for (size_t i = 0; all_match && i < computed.size(); ++i) {
    all_match = std::strcmp(computed[i].config, kGolden[i].config) == 0 &&
                std::strcmp(computed[i].method, kGolden[i].method) == 0 &&
                computed[i].seed == kGolden[i].seed &&
                computed[i].digest == kGolden[i].digest;
    EXPECT_TRUE(all_match) << "first mismatch: " << computed[i].config << " / "
                           << computed[i].method << " / seed " << computed[i].seed;
  }
  if (!all_match) {
    std::string table = "recomputed golden table:\n";
    char line[160];
    for (const Golden& g : computed) {
      std::snprintf(line, sizeof(line), "    {\"%s\", \"%s\", %llu, 0x%016llxULL},\n",
                    g.config, g.method, static_cast<unsigned long long>(g.seed),
                    static_cast<unsigned long long>(g.digest));
      table += line;
    }
    ADD_FAILURE() << table;
  }
}

// Traces are transport-invariant, so the loopback row must read exactly the
// default row — a cross-check that holds whatever the pinned values are.
TEST(GoldenTracesTest, LoopbackRowEqualsDefaultRow) {
  for (const Golden& a : kGolden) {
    if (std::strcmp(a.config, "loopback") != 0) continue;
    bool found = false;
    for (const Golden& b : kGolden) {
      if (std::strcmp(b.config, "default") == 0 &&
          std::strcmp(a.method, b.method) == 0 && a.seed == b.seed) {
        EXPECT_EQ(a.digest, b.digest) << a.method << " seed " << a.seed;
        found = true;
      }
    }
    EXPECT_TRUE(found) << a.method << " seed " << a.seed;
  }
}

}  // namespace
}  // namespace exsample
