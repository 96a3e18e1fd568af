// Multi-tenant serving layer (serve/): tenant specs and registry accounting,
// admission control (budgets, token-bucket rate limits, queue caps,
// saturation), the two-level weighted-fair tenant scheduler, and the
// TenantServer end-to-end loop above SearchEngine.
//
// The load-bearing property is inherited from every other layer: tenancy
// reorders and refuses work but never changes what an admitted query
// computes — admitted sessions' traces are bit-identical to solo runs for a
// fixed tenant spec and seed (TenantServer's verify_solo_traces enforces it
// fatally, through query::TracesBitIdentical). The suite carries the
// `tenant` label (plus `concurrency`: the threaded-engine serving test is a
// TSan target).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "engine/search_engine.h"
#include "scene/generator.h"
#include "serve/admission.h"
#include "serve/serving.h"
#include "serve/tenant.h"
#include "serve/tenant_scheduler.h"

namespace exsample {
namespace serve {
namespace {

// --- Fixture -----------------------------------------------------------------

struct ServeFixture {
  video::VideoRepository repo;
  video::Chunking chunking;
  scene::GroundTruth truth;

  ServeFixture(video::VideoRepository r, video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)), chunking(std::move(c)), truth(std::move(t)) {}

  /// Abundant and rare classes, so tenants' queries have different costs.
  static std::unique_ptr<ServeFixture> Make(uint64_t seed = 11) {
    common::Rng rng(seed);
    const uint64_t frames = 60000;
    auto repo = video::VideoRepository::UniformClips(6, frames / 6);
    auto chunking = video::MakeFixedCountChunks(frames, 16).value();
    scene::SceneSpec spec;
    spec.total_frames = frames;
    scene::ClassPopulationSpec common_class;
    common_class.class_id = 0;
    common_class.instance_count = 90;
    common_class.duration.mean_frames = 150.0;
    spec.classes.push_back(common_class);
    scene::ClassPopulationSpec rare;
    rare.class_id = 1;
    rare.instance_count = 8;
    rare.duration.mean_frames = 60.0;
    spec.classes.push_back(rare);
    auto truth = std::move(scene::GenerateScene(spec, &chunking, rng)).value();
    return std::make_unique<ServeFixture>(std::move(repo), std::move(chunking),
                                          std::move(truth));
  }
};

engine::EngineConfig OracleConfig() {
  engine::EngineConfig config;
  config.discriminator = engine::EngineConfig::DiscriminatorKind::kOracle;
  config.detector = detect::DetectorOptions::Perfect(0);
  return config;
}

engine::QuerySpec MakeSpec(uint64_t limit = 8, uint64_t seed = 7) {
  engine::QuerySpec spec;
  spec.class_id = 0;
  spec.limit = limit;
  spec.options.batch_size = 4;
  spec.options.exsample.seed = seed;
  return spec;
}

// --- TenantSpec parsing and validation ---------------------------------------

TEST(TenantSpecTest, ParsesFullGrammar) {
  auto parsed = ParseTenantSpec(
      "batch:weight=2.5,slo=besteffort,rate=0.5,budget=12.5,frames=4000,"
      "maxlive=3,maxqueue=7");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TenantSpec& spec = parsed.value();
  EXPECT_EQ(spec.id, "batch");
  EXPECT_DOUBLE_EQ(spec.weight, 2.5);
  EXPECT_EQ(spec.slo, SloClass::kBestEffort);
  EXPECT_DOUBLE_EQ(spec.rate_limit_per_second, 0.5);
  EXPECT_DOUBLE_EQ(spec.gpu_seconds_budget, 12.5);
  EXPECT_EQ(spec.frame_budget, 4000u);
  EXPECT_EQ(spec.max_concurrent_sessions, 3u);
  EXPECT_EQ(spec.max_queued, 7u);
}

TEST(TenantSpecTest, DefaultsAreUnlimitedInteractiveWeightOne) {
  auto parsed = ParseTenantSpec("alice");
  ASSERT_TRUE(parsed.ok());
  const TenantSpec& spec = parsed.value();
  EXPECT_EQ(spec.id, "alice");
  EXPECT_DOUBLE_EQ(spec.weight, 1.0);
  EXPECT_EQ(spec.slo, SloClass::kInteractive);
  EXPECT_DOUBLE_EQ(spec.rate_limit_per_second, 0.0);
  EXPECT_DOUBLE_EQ(spec.gpu_seconds_budget, 0.0);
  EXPECT_EQ(spec.frame_budget, 0u);
  EXPECT_EQ(spec.max_concurrent_sessions, 0u);
  EXPECT_EQ(spec.max_queued, 0u);
}

TEST(TenantSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseTenantSpec("").ok());                     // Empty id.
  EXPECT_FALSE(ParseTenantSpec("Bad_Case").ok());             // Uppercase.
  EXPECT_FALSE(ParseTenantSpec("a:weight=0").ok());           // Weight <= 0.
  EXPECT_FALSE(ParseTenantSpec("a:weight=-2").ok());
  EXPECT_FALSE(ParseTenantSpec("a:rate=-1").ok());
  EXPECT_FALSE(ParseTenantSpec("a:slo=relaxed").ok());        // Unknown slo.
  EXPECT_FALSE(ParseTenantSpec("a:shares=3").ok());           // Unknown key.
  EXPECT_FALSE(ParseTenantSpec("a:weight=two").ok());         // Bad number.
  EXPECT_FALSE(ParseTenantSpec("a:frames=12x").ok());         // Trailing junk.
  EXPECT_FALSE(ParseTenantSpec("a:weight").ok());             // No '='.
}

TEST(TenantSpecTest, SloClassNamesRoundTrip) {
  for (const SloClass slo : {SloClass::kInteractive, SloClass::kBestEffort}) {
    const auto parsed = ParseSloClass(SloClassName(slo));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, slo);
  }
  EXPECT_FALSE(ParseSloClass("batch").has_value());
}

// --- TenantRegistry ----------------------------------------------------------

TEST(TenantRegistryTest, RegistersAndTracksUsage) {
  TenantRegistry registry;
  TenantSpec spec;
  spec.id = "alpha";
  auto index = registry.Register(spec);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value(), 0u);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Find("alpha"), std::optional<size_t>(0));
  EXPECT_FALSE(registry.Find("beta").has_value());
  EXPECT_FALSE(registry.Register(spec).ok());  // Duplicate id.

  registry.OnAdmitted(0);
  registry.ChargeStep(0, 2.5, 40);
  registry.ChargeStep(0, 1.5, 10);
  registry.OnCompleted(0);
  registry.OnRejected(0);
  const TenantUsage& usage = registry.usage(0);
  EXPECT_DOUBLE_EQ(usage.charged_seconds, 4.0);
  EXPECT_EQ(usage.frames, 50u);
  EXPECT_EQ(usage.steps, 2u);
  EXPECT_EQ(usage.admitted, 1u);
  EXPECT_EQ(usage.completed, 1u);
  EXPECT_EQ(usage.rejected, 1u);
  EXPECT_EQ(usage.live_sessions, 0u);
}

TEST(TenantRegistryTest, BudgetsTripOnSecondsOrFrames) {
  TenantRegistry registry;
  TenantSpec seconds_capped;
  seconds_capped.id = "sec";
  seconds_capped.gpu_seconds_budget = 5.0;
  TenantSpec frames_capped;
  frames_capped.id = "frm";
  frames_capped.frame_budget = 100;
  ASSERT_TRUE(registry.Register(seconds_capped).ok());
  ASSERT_TRUE(registry.Register(frames_capped).ok());

  EXPECT_FALSE(registry.OverBudget(0));
  registry.ChargeStep(0, 4.9, 10);
  EXPECT_FALSE(registry.OverBudget(0));
  registry.ChargeStep(0, 0.2, 10);
  EXPECT_TRUE(registry.OverBudget(0));

  registry.ChargeStep(1, 1000.0, 99);  // Unlimited seconds for this tenant.
  EXPECT_FALSE(registry.OverBudget(1));
  registry.ChargeStep(1, 0.0, 1);
  EXPECT_TRUE(registry.OverBudget(1));
}

// --- AdmissionController -----------------------------------------------------

struct AdmissionHarness {
  TenantRegistry registry;
  size_t Add(const TenantSpec& spec) {
    auto index = registry.Register(spec);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return index.value();
  }
};

TEST(AdmissionTest, RejectsOverBudgetTenants) {
  AdmissionHarness h;
  TenantSpec spec;
  spec.id = "capped";
  spec.gpu_seconds_budget = 1.0;
  const size_t t = h.Add(spec);
  AdmissionController admission(&h.registry, {});
  EXPECT_EQ(admission.Consider(t, 0.0, 0, 0, 0.0).decision,
            AdmissionDecision::kAdmit);
  h.registry.ChargeStep(t, 2.0, 10);
  const AdmissionVerdict verdict = admission.Consider(t, 0.0, 0, 0, 0.0);
  EXPECT_EQ(verdict.decision, AdmissionDecision::kReject);
  EXPECT_EQ(verdict.status.code(), common::StatusCode::kFailedPrecondition);
}

TEST(AdmissionTest, TokenBucketQueuesThenRefills) {
  AdmissionHarness h;
  TenantSpec spec;
  spec.id = "metered";
  spec.rate_limit_per_second = 1.0;  // Burst capacity max(1, rate) = 1.
  const size_t t = h.Add(spec);
  AdmissionController admission(&h.registry, {});

  EXPECT_EQ(admission.Consider(t, 0.0, 0, 0, 0.0).decision,
            AdmissionDecision::kAdmit);  // The burst token.
  EXPECT_EQ(admission.Consider(t, 0.0, 0, 0, 0.0).decision,
            AdmissionDecision::kQueue);
  EXPECT_DOUBLE_EQ(admission.NextTokenTime(t, 0.0), 1.0);
  EXPECT_EQ(admission.Consider(t, 0.5, 0, 0, 0.0).decision,
            AdmissionDecision::kQueue);  // Half a token so far.
  EXPECT_EQ(admission.Consider(t, 1.0, 0, 0, 0.0).decision,
            AdmissionDecision::kAdmit);  // Refilled in simulated time.
  EXPECT_EQ(admission.Consider(t, 1.0, 0, 0, 0.0).decision,
            AdmissionDecision::kQueue);
}

TEST(AdmissionTest, IncrementalRefillAdmitsAtNextTokenTime) {
  // Regression: refilling a bucket in many small increments truncates at
  // double precision, so polling right at the computed NextTokenTime could
  // land a few ULP short of a full token — Consider kept queueing while
  // NextTokenTime rounded back to `now`, and the serving loop stalled on an
  // unreachable target. The invariant: after any refill history, an arrival
  // at NextTokenTime admits.
  AdmissionHarness h;
  TenantSpec spec;
  spec.id = "metered";
  spec.rate_limit_per_second = 0.02;
  const size_t t = h.Add(spec);
  AdmissionController admission(&h.registry, {});

  EXPECT_EQ(admission.Consider(t, 0.0, 0, 0, 0.0).decision,
            AdmissionDecision::kAdmit);  // Burn the burst token.
  // Poll at awkward intermediate times: each call refills by an inexact
  // (delta * rate) increment.
  double now = 0.0;
  for (int i = 1; i <= 997; ++i) {
    now = static_cast<double>(i) * 0.049999991;
    EXPECT_EQ(admission.Consider(t, now, 0, 0, 0.0).decision,
              AdmissionDecision::kQueue);
  }
  const double target = admission.NextTokenTime(t, now);
  ASSERT_GT(target, now);
  EXPECT_EQ(admission.Consider(t, target, 0, 0, 0.0).decision,
            AdmissionDecision::kAdmit);
  // And the bucket never goes negative from slack-admits.
  EXPECT_GE(admission.NextTokenTime(t, target), target);
}

TEST(AdmissionTest, SessionCapsQueueArrivals) {
  AdmissionHarness h;
  TenantSpec spec;
  spec.id = "small";
  spec.max_concurrent_sessions = 1;
  const size_t t = h.Add(spec);
  AdmissionOptions options;
  options.max_live_sessions = 2;
  AdmissionController admission(&h.registry, options);

  EXPECT_EQ(admission.Consider(t, 0.0, 0, 0, 0.0).decision,
            AdmissionDecision::kAdmit);
  h.registry.OnAdmitted(t);  // Tenant now at its per-tenant cap.
  EXPECT_EQ(admission.Consider(t, 0.0, 0, 1, 0.0).decision,
            AdmissionDecision::kQueue);
  h.registry.OnCompleted(t);  // Cap released; engine-wide cap still binds.
  EXPECT_EQ(admission.Consider(t, 0.0, 0, 2, 0.0).decision,
            AdmissionDecision::kQueue);
  EXPECT_EQ(admission.Consider(t, 0.0, 0, 1, 0.0).decision,
            AdmissionDecision::kAdmit);
}

TEST(AdmissionTest, SaturationGatesBestEffortOnly) {
  AdmissionHarness h;
  TenantSpec batch;
  batch.id = "batch";
  batch.slo = SloClass::kBestEffort;
  TenantSpec user;
  user.id = "user";  // Interactive.
  const size_t bt = h.Add(batch);
  const size_t ut = h.Add(user);
  AdmissionOptions options;
  options.saturation_pending_frames = 10.0;
  options.shed_over_factor = 2.0;
  AdmissionController admission(&h.registry, options);

  EXPECT_EQ(admission.Consider(bt, 0.0, 0, 0, 5.0).decision,
            AdmissionDecision::kAdmit);  // Below the threshold.
  EXPECT_EQ(admission.Consider(bt, 0.0, 0, 0, 15.0).decision,
            AdmissionDecision::kQueue);  // Saturated: held.
  const AdmissionVerdict severe = admission.Consider(bt, 0.0, 0, 0, 25.0);
  EXPECT_EQ(severe.decision, AdmissionDecision::kReject);  // Severe: shed.
  EXPECT_EQ(severe.status.code(), common::StatusCode::kFailedPrecondition);
  // Interactive arrivals are never saturation-blocked at the door.
  EXPECT_EQ(admission.Consider(ut, 0.0, 0, 0, 25.0).decision,
            AdmissionDecision::kAdmit);
}

TEST(AdmissionTest, FullQueueTurnsHoldIntoRejection) {
  AdmissionHarness h;
  TenantSpec spec;
  spec.id = "bounded";
  spec.rate_limit_per_second = 0.001;  // Effectively always rate-limited.
  spec.max_queued = 2;
  const size_t t = h.Add(spec);
  AdmissionController admission(&h.registry, {});
  EXPECT_EQ(admission.Consider(t, 0.0, 0, 0, 0.0).decision,
            AdmissionDecision::kAdmit);  // Burst token.
  EXPECT_EQ(admission.Consider(t, 0.0, 0, 0, 0.0).decision,
            AdmissionDecision::kQueue);
  EXPECT_EQ(admission.Consider(t, 0.0, 1, 0, 0.0).decision,
            AdmissionDecision::kQueue);
  const AdmissionVerdict verdict = admission.Consider(t, 0.0, 2, 0, 0.0);
  EXPECT_EQ(verdict.decision, AdmissionDecision::kReject);
  EXPECT_EQ(verdict.status.code(), common::StatusCode::kOutOfRange);
}

// --- WeightedTenantScheduler -------------------------------------------------

struct WfqHarness {
  TenantRegistry registry;
  std::vector<query::SessionSchedulerInfo> infos;
  std::vector<size_t> session_tenant;

  size_t AddTenant(const std::string& id, double weight,
                   SloClass slo = SloClass::kInteractive) {
    TenantSpec spec;
    spec.id = id;
    spec.weight = weight;
    spec.slo = slo;
    auto index = registry.Register(spec);
    EXPECT_TRUE(index.ok());
    return index.value();
  }

  size_t AddSession(WeightedTenantScheduler* scheduler, size_t tenant) {
    const size_t index = infos.size();
    infos.emplace_back();
    session_tenant.push_back(tenant);
    scheduler->BindSession(index, tenant);
    return index;
  }

  /// Runs one planned round, charging `cost_per_step` simulated seconds per
  /// grant, and returns the grants per tenant.
  std::vector<size_t> RunRound(WeightedTenantScheduler* scheduler,
                               double cost_per_step) {
    std::vector<size_t> order;
    scheduler->PlanRound(common::Span<const query::SessionSchedulerInfo>(
                             infos.data(), infos.size()),
                         &order);
    std::vector<size_t> grants(registry.size(), 0);
    for (const size_t idx : order) {
      EXPECT_LT(idx, infos.size());
      EXPECT_FALSE(infos[idx].done);
      infos[idx].steps += 1;
      infos[idx].seconds += cost_per_step;
      grants[session_tenant[idx]] += 1;
      registry.ChargeStep(session_tenant[idx], cost_per_step, 1);
    }
    return grants;
  }
};

TEST(WeightedTenantSchedulerTest, GrantSharesTrackWeights) {
  WfqHarness h;
  WeightedTenantScheduler scheduler(&h.registry, {});
  const size_t heavy = h.AddTenant("heavy", 3.0);
  const size_t light = h.AddTenant("light", 1.0);
  h.AddSession(&scheduler, heavy);
  h.AddSession(&scheduler, heavy);
  h.AddSession(&scheduler, light);
  h.AddSession(&scheduler, light);

  size_t grants_heavy = 0, grants_light = 0;
  for (int round = 0; round < 200; ++round) {
    const std::vector<size_t> grants = h.RunRound(&scheduler, 1.0);
    grants_heavy += grants[heavy];
    grants_light += grants[light];
  }
  // Equal step costs, so grant shares ~ detector-second shares ~ weights.
  const double share =
      static_cast<double>(grants_heavy) / (grants_heavy + grants_light);
  EXPECT_NEAR(share, 0.75, 0.02);
}

TEST(WeightedTenantSchedulerTest, CostAwareSharesTrackWeightsUnderUnequalCosts) {
  WfqHarness h;
  WeightedTenantScheduler scheduler(&h.registry, {});
  const size_t heavy = h.AddTenant("heavy", 2.0);
  const size_t light = h.AddTenant("light", 1.0);
  h.AddSession(&scheduler, heavy);
  h.AddSession(&scheduler, light);

  // Heavy tenant's steps cost 4x light's: WFQ should equalize *seconds* per
  // weight, not steps.
  double seconds_heavy = 0.0, seconds_light = 0.0;
  for (int round = 0; round < 400; ++round) {
    std::vector<size_t> order;
    scheduler.PlanRound(common::Span<const query::SessionSchedulerInfo>(
                            h.infos.data(), h.infos.size()),
                        &order);
    for (const size_t idx : order) {
      const size_t t = h.session_tenant[idx];
      const double cost = t == heavy ? 4.0 : 1.0;
      h.infos[idx].steps += 1;
      h.infos[idx].seconds += cost;
      h.registry.ChargeStep(t, cost, 1);
      (t == heavy ? seconds_heavy : seconds_light) += cost;
    }
  }
  const double share = seconds_heavy / (seconds_heavy + seconds_light);
  EXPECT_NEAR(share, 2.0 / 3.0, 0.04);
}

TEST(WeightedTenantSchedulerTest, SaturationStarvesBestEffortWhileInteractiveLive) {
  WfqHarness h;
  WeightedTenantScheduler scheduler(&h.registry, {});
  const size_t user = h.AddTenant("user", 1.0, SloClass::kInteractive);
  const size_t batch = h.AddTenant("batch", 1.0, SloClass::kBestEffort);
  h.AddSession(&scheduler, user);
  h.AddSession(&scheduler, batch);

  scheduler.SetSaturated(true);
  std::vector<size_t> grants = h.RunRound(&scheduler, 1.0);
  EXPECT_GT(grants[user], 0u);
  EXPECT_EQ(grants[batch], 0u);  // Deprioritized under saturation.

  // With no interactive work left, best-effort runs even while saturated.
  h.infos[0].done = true;
  grants = h.RunRound(&scheduler, 1.0);
  EXPECT_GT(grants[batch], 0u);

  h.infos[0].done = false;
  scheduler.SetSaturated(false);
  grants = h.RunRound(&scheduler, 1.0);
  EXPECT_GT(grants[batch], 0u);  // Back to weighted-fair.
}

TEST(WeightedTenantSchedulerTest, UnrunnableTenantsReceiveNoGrants) {
  WfqHarness h;
  WeightedTenantScheduler scheduler(&h.registry, {});
  const size_t a = h.AddTenant("a", 1.0);
  const size_t b = h.AddTenant("b", 1.0);
  h.AddSession(&scheduler, a);
  h.AddSession(&scheduler, b);

  scheduler.SetTenantRunnable(b, false);
  const std::vector<size_t> grants = h.RunRound(&scheduler, 1.0);
  EXPECT_GT(grants[a], 0u);
  EXPECT_EQ(grants[b], 0u);
}

TEST(WeightedTenantSchedulerTest, LateActivationDoesNotReplayHistory) {
  WfqHarness h;
  WeightedTenantScheduler scheduler(&h.registry, {});
  const size_t early = h.AddTenant("early", 1.0);
  const size_t late = h.AddTenant("late", 1.0);
  h.AddSession(&scheduler, early);

  // The early tenant runs alone for a while, accumulating charged seconds.
  for (int round = 0; round < 50; ++round) h.RunRound(&scheduler, 1.0);
  ASSERT_GT(h.registry.usage(early).charged_seconds, 25.0);

  // A newcomer starts at the active tenants' virtual-time floor: from here
  // on grants split evenly — it must NOT monopolize the detector to "catch
  // up" seconds it never asked for.
  h.AddSession(&scheduler, late);
  size_t grants_early = 0, grants_late = 0;
  for (int round = 0; round < 40; ++round) {
    const std::vector<size_t> grants = h.RunRound(&scheduler, 1.0);
    grants_early += grants[early];
    grants_late += grants[late];
  }
  ASSERT_GT(grants_early + grants_late, 0u);
  const double late_share =
      static_cast<double>(grants_late) / (grants_early + grants_late);
  EXPECT_NEAR(late_share, 0.5, 0.05);
}

TEST(WeightedTenantSchedulerTest, ReleasingSessionsPlansLikeKeepingThemDone) {
  // The serving loop plans over its live sessions and releases each one when
  // its outcome is recorded; a span that keeps every session with a `done`
  // flag must plan the same rounds. Sessions join over time and leave in a
  // scattered order across three tenants, with priority-ordered sessions
  // inside each tenant. Step costs are exact binary fractions, so the
  // retired totals equal the never-shrinking per-session sums bit for bit.
  WfqHarness h;
  const size_t tenants[] = {h.AddTenant("gold", 3.0),
                            h.AddTenant("silver", 2.0),
                            h.AddTenant("bronze", 1.0)};
  WeightedTenantSchedulerOptions options;
  options.inner = query::SchedulerKind::kPriority;
  options.inner_options.seed = 13;
  options.inner_options.starvation_rounds = 2;
  WeightedTenantScheduler full(&h.registry, options);
  WeightedTenantScheduler compact(&h.registry, options);
  std::vector<size_t> live;  // Global index of each compact position.

  size_t releases = 0;
  for (size_t round = 0; round < 48; ++round) {
    if (round % 2 == 0 && round < 30) {
      const size_t global = h.AddSession(&full, tenants[(round / 2) % 3]);
      compact.BindSession(live.size(), h.session_tenant[global]);
      live.push_back(global);
    }

    std::vector<size_t> full_order;
    full.PlanRound(common::Span<const query::SessionSchedulerInfo>(
                       h.infos.data(), h.infos.size()),
                   &full_order);
    std::vector<query::SessionSchedulerInfo> live_infos;
    for (const size_t global : live) live_infos.push_back(h.infos[global]);
    std::vector<size_t> positions;
    compact.PlanRound(common::Span<const query::SessionSchedulerInfo>(
                          live_infos.data(), live_infos.size()),
                      &positions);
    std::vector<size_t> compact_order;
    for (const size_t pos : positions) compact_order.push_back(live[pos]);
    ASSERT_EQ(full_order, compact_order) << "round " << round;

    for (const size_t idx : full_order) {
      h.infos[idx].steps += 1;
      h.infos[idx].seconds += 0.25 * static_cast<double>(1 + idx % 3);
      if (h.infos[idx].steps % (1 + idx % 4) == 0) {
        h.infos[idx].reported_results += 1;
      }
    }

    if (round >= 5 && round % 3 == 0 && !live.empty()) {
      const size_t pos = (round * 5) % live.size();
      const size_t global = live[pos];
      h.infos[global].done = true;
      compact.ReleaseSession(pos, h.infos[global]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(pos));
      ++releases;
    }
  }
  EXPECT_GE(releases, 10u);
}

// --- TenantServer end-to-end -------------------------------------------------

TEST(TenantServerTest, ServesTenantsWithSoloIdenticalTraces) {
  auto fx = ServeFixture::Make();
  engine::EngineConfig config = OracleConfig();
  config.coalesce_detect = true;
  config.device_batch = 16;
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);

  ServeOptions options;
  options.verify_solo_traces = true;  // Fatal on divergence.
  TenantServer server(&engine, options);
  TenantSpec alpha;
  alpha.id = "alpha";
  alpha.weight = 2.0;
  TenantSpec beta;
  beta.id = "beta";
  beta.weight = 1.0;
  ASSERT_TRUE(server.AddTenant(alpha).ok());
  ASSERT_TRUE(server.AddTenant(beta).ok());

  std::vector<TenantQuery> queries;
  for (size_t i = 0; i < 4; ++i) {
    TenantQuery q;
    q.tenant = i % 2 == 0 ? "alpha" : "beta";
    q.arrival_seconds = 0.0;
    q.spec = MakeSpec(/*limit=*/8, /*seed=*/100 + i);
    queries.push_back(q);
  }
  auto outcomes = server.Serve(queries);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes.value().size(), queries.size());

  engine::SearchEngine reference(&fx->repo, &fx->chunking, &fx->truth,
                                 OracleConfig());
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryOutcome& outcome = outcomes.value()[i];
    EXPECT_EQ(outcome.kind, OutcomeKind::kCompleted);
    EXPECT_TRUE(outcome.status.ok());
    EXPECT_GE(outcome.admitted_seconds, 0.0);
    EXPECT_GE(outcome.first_result_seconds, outcome.admitted_seconds);
    EXPECT_GE(outcome.finished_seconds, outcome.first_result_seconds);
    auto solo = reference.FindDistinct(queries[i].spec.class_id,
                                       queries[i].spec.limit,
                                       queries[i].spec.options);
    ASSERT_TRUE(solo.ok());
    EXPECT_TRUE(query::TracesBitIdentical(solo.value(), outcome.trace))
        << "query " << i;
  }
  EXPECT_EQ(server.tenants().usage(0).completed, 2u);
  EXPECT_EQ(server.tenants().usage(1).completed, 2u);
  EXPECT_GT(server.tenants().usage(0).charged_seconds, 0.0);
}

TEST(TenantServerTest, ServingIsDeterministicForFixedSpecAndSeed) {
  auto fx = ServeFixture::Make();
  const auto run_once = [&]() {
    engine::EngineConfig config = OracleConfig();
    config.coalesce_detect = true;
    config.scheduler = query::SchedulerKind::kPriority;
    config.scheduler_seed = 23;
    engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);
    TenantServer server(&engine, {});
    TenantSpec a;
    a.id = "a";
    a.weight = 4.0;
    TenantSpec b;
    b.id = "b";
    b.slo = SloClass::kBestEffort;
    EXPECT_TRUE(server.AddTenant(a).ok());
    EXPECT_TRUE(server.AddTenant(b).ok());
    std::vector<TenantQuery> queries;
    for (size_t i = 0; i < 6; ++i) {
      TenantQuery q;
      q.tenant = i % 2 == 0 ? "a" : "b";
      q.arrival_seconds = static_cast<double>(i) * 3.0;
      q.spec = MakeSpec(/*limit=*/6, /*seed=*/40 + i);
      queries.push_back(q);
    }
    auto outcomes = server.Serve(queries);
    EXPECT_TRUE(outcomes.ok());
    return std::move(outcomes).value();
  };
  const std::vector<QueryOutcome> first = run_once();
  const std::vector<QueryOutcome> second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].kind, second[i].kind) << i;
    EXPECT_DOUBLE_EQ(first[i].admitted_seconds, second[i].admitted_seconds) << i;
    EXPECT_DOUBLE_EQ(first[i].first_result_seconds,
                     second[i].first_result_seconds)
        << i;
    EXPECT_DOUBLE_EQ(first[i].finished_seconds, second[i].finished_seconds) << i;
    EXPECT_TRUE(query::TracesBitIdentical(first[i].trace, second[i].trace)) << i;
  }
}

TEST(TenantServerTest, BudgetExhaustionShedsAndRejects) {
  auto fx = ServeFixture::Make();
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth,
                              OracleConfig());
  TenantServer server(&engine, {});
  TenantSpec capped;
  capped.id = "capped";
  capped.gpu_seconds_budget = 2.0;  // Tiny: exhausted mid-run.
  TenantSpec open;
  open.id = "open";
  ASSERT_TRUE(server.AddTenant(capped).ok());
  ASSERT_TRUE(server.AddTenant(open).ok());

  std::vector<TenantQuery> queries;
  TenantQuery big;
  big.tenant = "capped";
  big.spec = MakeSpec(/*limit=*/500);  // Cannot finish inside 2 GPU-seconds.
  big.spec.options.max_samples = 20000;
  queries.push_back(big);
  TenantQuery other;
  other.tenant = "open";
  other.spec = MakeSpec(/*limit=*/6, /*seed=*/9);
  queries.push_back(other);
  TenantQuery late;  // Arrives after the budget is long gone.
  late.tenant = "capped";
  late.arrival_seconds = 1e6;
  late.spec = MakeSpec(/*limit=*/2, /*seed=*/10);
  queries.push_back(late);

  auto outcomes = server.Serve(queries);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  EXPECT_EQ(outcomes.value()[0].kind, OutcomeKind::kShed);
  EXPECT_EQ(outcomes.value()[0].status.code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_GT(outcomes.value()[0].trace.final.samples, 0u);  // Truncated trace.
  EXPECT_EQ(outcomes.value()[1].kind, OutcomeKind::kCompleted);
  EXPECT_EQ(outcomes.value()[2].kind, OutcomeKind::kRejected);
  EXPECT_EQ(server.tenants().usage(0).shed, 1u);
  EXPECT_EQ(server.tenants().usage(0).rejected, 1u);
  EXPECT_GE(server.tenants().usage(0).charged_seconds, 2.0);
}

TEST(TenantServerTest, RateLimitSpacesAdmissions) {
  auto fx = ServeFixture::Make();
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth,
                              OracleConfig());
  TenantServer server(&engine, {});
  TenantSpec metered;
  metered.id = "metered";
  metered.rate_limit_per_second = 0.01;  // One admission per 100 seconds.
  ASSERT_TRUE(server.AddTenant(metered).ok());

  std::vector<TenantQuery> queries;
  for (size_t i = 0; i < 3; ++i) {
    TenantQuery q;
    q.tenant = "metered";
    q.arrival_seconds = 0.0;
    q.spec = MakeSpec(/*limit=*/3, /*seed=*/60 + i);
    queries.push_back(q);
  }
  auto outcomes = server.Serve(queries);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(outcomes.value()[i].kind, OutcomeKind::kCompleted) << i;
    // The k-th admission cannot happen before the bucket accumulated k
    // tokens: t >= k / rate (the burst token covers k = 0).
    EXPECT_GE(outcomes.value()[i].admitted_seconds,
              static_cast<double>(i) * 100.0 - 1e-9)
        << i;
  }
}

TEST(TenantServerTest, QueueOverflowRejectsExcessArrivals) {
  auto fx = ServeFixture::Make();
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth,
                              OracleConfig());
  TenantServer server(&engine, {});
  TenantSpec bounded;
  bounded.id = "bounded";
  bounded.max_concurrent_sessions = 1;
  bounded.max_queued = 1;
  ASSERT_TRUE(server.AddTenant(bounded).ok());

  std::vector<TenantQuery> queries;
  for (size_t i = 0; i < 4; ++i) {
    TenantQuery q;
    q.tenant = "bounded";
    q.spec = MakeSpec(/*limit=*/3, /*seed=*/70 + i);
    queries.push_back(q);
  }
  auto outcomes = server.Serve(queries);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  size_t completed = 0, rejected = 0;
  for (const QueryOutcome& outcome : outcomes.value()) {
    completed += outcome.kind == OutcomeKind::kCompleted ? 1 : 0;
    if (outcome.kind == OutcomeKind::kRejected) {
      ++rejected;
      EXPECT_EQ(outcome.status.code(), common::StatusCode::kOutOfRange);
    }
  }
  EXPECT_EQ(completed, 2u);  // The admitted one, then the queued one.
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(server.tenants().usage(0).rejected, 2u);
}

TEST(TenantServerTest, SaturationShedsBestEffortNotInteractive) {
  auto fx = ServeFixture::Make();
  engine::EngineConfig config = OracleConfig();
  config.coalesce_detect = true;
  config.device_batch = 8;
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);

  ServeOptions options;
  options.admission.saturation_pending_frames = 12.0;
  options.admission.shed_over_factor = 1.5;
  TenantServer server(&engine, options);
  TenantSpec user;
  user.id = "user";
  user.weight = 4.0;
  TenantSpec flood;
  flood.id = "flood";
  flood.slo = SloClass::kBestEffort;
  ASSERT_TRUE(server.AddTenant(user).ok());
  ASSERT_TRUE(server.AddTenant(flood).ok());

  std::vector<TenantQuery> queries;
  TenantQuery slo;
  slo.tenant = "user";
  slo.spec = MakeSpec(/*limit=*/8, /*seed=*/80);
  queries.push_back(slo);
  for (size_t i = 0; i < 8; ++i) {
    TenantQuery q;
    q.tenant = "flood";
    q.spec = MakeSpec(/*limit=*/200, /*seed=*/81 + i);
    q.spec.options.batch_size = 8;
    q.spec.options.max_samples = 5000;
    queries.push_back(q);
  }
  auto outcomes = server.Serve(queries);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  // The interactive query is never shed and completes.
  EXPECT_EQ(outcomes.value()[0].kind, OutcomeKind::kCompleted);
  // The flood is shed and/or rejected under saturation — and the run
  // terminated (sheds load instead of hanging).
  const TenantUsage& flood_usage = server.tenants().usage(1);
  EXPECT_GT(flood_usage.shed + flood_usage.rejected, 0u);
  EXPECT_EQ(server.tenants().usage(0).shed, 0u);
}

TEST(TenantServerTest, UnknownTenantIsAnError) {
  auto fx = ServeFixture::Make();
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth,
                              OracleConfig());
  TenantServer server(&engine, {});
  TenantSpec spec;
  spec.id = "known";
  ASSERT_TRUE(server.AddTenant(spec).ok());
  TenantQuery q;
  q.tenant = "stranger";
  q.spec = MakeSpec();
  auto outcomes = server.Serve({q});
  ASSERT_FALSE(outcomes.ok());
  EXPECT_EQ(outcomes.status().code(), common::StatusCode::kNotFound);
}

TEST(TenantServerTest, ExportsPerTenantStats) {
  auto fx = ServeFixture::Make();
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth,
                              OracleConfig());
  TenantServer server(&engine, {});
  TenantSpec spec;
  spec.id = "observed";
  ASSERT_TRUE(server.AddTenant(spec).ok());
  TenantQuery q;
  q.tenant = "observed";
  q.spec = MakeSpec(/*limit=*/4);
  ASSERT_TRUE(server.Serve({q}).ok());

  const std::string json = engine.StatsJson();
  EXPECT_NE(json.find("\"tenant.observed.admitted\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant.observed.completed\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant.observed.steps\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant.observed.frames\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant.observed.charged_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant.observed.live_sessions\""), std::string::npos);
}

TEST(TenantServerTest, AcceptsTwoHundredTenants) {
  // Regression: per-tenant metrics used to take slots of a fixed 512-metric
  // counter registry, so the 86th tenant on a fresh engine aborted the
  // process. Tenant usage now lives only in the tenant table.
  auto fx = ServeFixture::Make();
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth,
                              OracleConfig());
  TenantServer server(&engine, {});
  for (size_t t = 0; t < 200; ++t) {
    TenantSpec spec;
    spec.id = "t" + std::to_string(t);
    ASSERT_TRUE(server.AddTenant(spec).ok()) << spec.id;
  }
  TenantQuery q;
  q.tenant = "t199";
  q.spec = MakeSpec(/*limit=*/4);
  ASSERT_TRUE(server.Serve({q}).ok());
  EXPECT_NE(engine.StatsJson().find("\"tenant.t199.admitted\": 1"),
            std::string::npos);
}

// --- Session lifetimes -------------------------------------------------------
//
// Serve releases a session the moment its outcome is recorded: the session
// is destroyed, its stats folded into the engine's totals, and it leaves the
// scheduler's span.
// These tests serve streams long enough that early sessions are released
// while later ones of the same tenant still run.

class ServeLifetimeTest
    : public ::testing::TestWithParam<query::SchedulerKind> {};

TEST_P(ServeLifetimeTest, ReleasedSessionsLeaveLaterOnesOnSchedule) {
  constexpr size_t kMaxLive = 4;
  constexpr size_t kStarvationRounds = 2;
  auto fx = ServeFixture::Make();
  engine::EngineConfig config = OracleConfig();
  config.coalesce_detect = true;
  config.device_batch = 16;
  config.scheduler_starvation_rounds = kStarvationRounds;
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);

  ServeOptions options;
  options.inner_scheduler = GetParam();
  options.verify_solo_traces = true;  // Fatal on divergence.
  TenantServer server(&engine, options);
  // One tenant takes every grant, so each round runs the inner scheduler's
  // whole plan and its starvation bound holds exactly (under several
  // tenants, WFQ may hand a tenant fewer grants than it has live sessions).
  TenantSpec fleet;
  fleet.id = "fleet";
  fleet.max_concurrent_sessions = kMaxLive;
  ASSERT_TRUE(server.AddTenant(fleet).ok());

  std::vector<TenantQuery> queries;
  for (size_t i = 0; i < 32; ++i) {
    TenantQuery q;
    q.tenant = "fleet";
    q.arrival_seconds = 0.6 * static_cast<double>(i);
    // Mixed lengths, so sessions finish out of admission order.
    q.spec = MakeSpec(/*limit=*/3 + (i * 5) % 9, /*seed=*/200 + i);
    q.spec.deadline_seconds = i % 2 == 0 ? 4.0 + static_cast<double>(i) : 0.0;
    queries.push_back(q);
  }

  // Steps of other sessions between two consecutive steps of one session,
  // and the sessions the engine's stats walk holds.
  constexpr size_t kNever = std::numeric_limits<size_t>::max();
  std::vector<size_t> last_step(queries.size(), kNever);
  size_t step = 0, max_gap = 0, max_live = 0;
  const auto observer = [&](size_t qi, const engine::QuerySession&, double) {
    if (last_step[qi] != kNever) {
      max_gap = std::max(max_gap, step - last_step[qi] - 1);
    }
    last_step[qi] = step++;
    max_live = std::max(max_live, engine.NumLiveSessions());
  };
  auto outcomes = server.Serve(queries, observer);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();

  size_t released_mid_list = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryOutcome& a = outcomes.value()[i];
    EXPECT_EQ(a.kind, OutcomeKind::kCompleted) << i;
    for (const QueryOutcome& b : outcomes.value()) {
      // `a` was released while a later-admitted session stayed live.
      if (a.admitted_seconds < b.admitted_seconds &&
          b.admitted_seconds < a.finished_seconds &&
          a.finished_seconds < b.finished_seconds) {
        ++released_mid_list;
        break;
      }
    }
  }
  EXPECT_GT(released_mid_list, 0u);

  // A round grants at most kMaxLive steps, and a live session waits at most
  // kStarvationRounds whole rounds between grants.
  EXPECT_LE(max_gap, (kStarvationRounds + 2) * kMaxLive - 2);
  // Finished sessions leave the engine's stats walk: only live ones stay.
  EXPECT_LE(max_live, kMaxLive);
  EXPECT_EQ(engine.NumLiveSessions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    InnerSchedulers, ServeLifetimeTest,
    ::testing::Values(query::SchedulerKind::kPriority,
                      query::SchedulerKind::kDeadline),
    [](const ::testing::TestParamInfo<query::SchedulerKind>& info) {
      return std::string(query::SchedulerKindName(info.param));
    });

TEST(TenantServerTest, TransportDeathAfterReleasesSurfacesStatus) {
  // The only detect runner dies mid-stream, after earlier sessions completed
  // and were released: Serve returns the transport failure instead of
  // outcomes, having aborted the live sessions and drained the service.
  auto fx = ServeFixture::Make();
  engine::EngineConfig config = OracleConfig();
  config.coalesce_detect = true;
  config.device_batch = 16;
  config.transport = engine::TransportKind::kLoopback;
  config.transport_max_retries = 1;
  config.loopback.fail_shard = 0;
  config.loopback.fail_after_requests = 40;
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);

  TenantServer server(&engine, {});
  TenantSpec a;
  a.id = "a";
  TenantSpec b;
  b.id = "b";
  ASSERT_TRUE(server.AddTenant(a).ok());
  ASSERT_TRUE(server.AddTenant(b).ok());
  std::vector<TenantQuery> queries;
  for (size_t i = 0; i < 24; ++i) {
    TenantQuery q;
    q.tenant = i % 2 == 0 ? "a" : "b";
    q.arrival_seconds = 1.0 * static_cast<double>(i);
    q.spec = MakeSpec(/*limit=*/4, /*seed=*/300 + i);
    queries.push_back(q);
  }

  auto outcomes = server.Serve(queries);
  ASSERT_FALSE(outcomes.ok()) << "a dead fleet must not return outcomes";
  EXPECT_EQ(outcomes.status().code(), common::StatusCode::kInternal)
      << outcomes.status().ToString();
  EXPECT_FALSE(engine.detector_service()->transport_status().ok());
  EXPECT_EQ(engine.detector_service()->PendingFrames(), 0u);
  const size_t completed =
      server.tenants().usage(0).completed + server.tenants().usage(1).completed;
  EXPECT_GT(completed, 0u);               // Released before the death...
  EXPECT_LT(completed, queries.size());  // ...which came mid-stream.
  // The aborted sessions left the engine's stats walk like the released
  // ones.
  EXPECT_EQ(engine.NumLiveSessions(), 0u);
}

// --- Threaded serving under TSan ---------------------------------------------
//
// The serving loop drives the same shared machinery as RunConcurrent — the
// coalesced service, and decode tasks beside the detect fan-out on the
// engine's one pool — so the TSan lane watches it too, end to end through
// the tenant layer.

TEST(TenantServerTest, ThreadedServingMatchesSolo) {
  auto fx = ServeFixture::Make();
  engine::EngineConfig config = OracleConfig();
  config.coalesce_detect = true;
  config.device_batch = 16;
  config.num_threads = 3;
  config.simulate_decode = true;
  config.prefetch_depth = 2;
  engine::SearchEngine engine(&fx->repo, &fx->chunking, &fx->truth, config);

  ServeOptions options;
  options.verify_solo_traces = true;
  TenantServer server(&engine, options);
  TenantSpec a;
  a.id = "a";
  a.weight = 2.0;
  TenantSpec b;
  b.id = "b";
  b.slo = SloClass::kBestEffort;
  ASSERT_TRUE(server.AddTenant(a).ok());
  ASSERT_TRUE(server.AddTenant(b).ok());

  std::vector<TenantQuery> queries;
  for (size_t i = 0; i < 4; ++i) {
    TenantQuery q;
    q.tenant = i % 2 == 0 ? "a" : "b";
    q.spec = MakeSpec(/*limit=*/5, /*seed=*/90 + i);
    queries.push_back(q);
  }
  auto outcomes = server.Serve(queries);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  for (const QueryOutcome& outcome : outcomes.value()) {
    EXPECT_EQ(outcome.kind, OutcomeKind::kCompleted);
  }
}

}  // namespace
}  // namespace serve
}  // namespace exsample
