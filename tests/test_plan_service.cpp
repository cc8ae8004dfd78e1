#include "serve/plan_service.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "data/synthetic.hpp"
#include "io/plan_io.hpp"
#include "obs/metrics.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

// Small, fast settings shared by the service and the cold-path pipeline —
// the bit-identity tests only make sense when both run the exact same
// configuration.
PipelineConfig fast_pipeline_config() {
  PipelineConfig cfg;
  cfg.harness.profile_images = 16;
  cfg.harness.eval_images = 128;
  cfg.profiler.points = 6;
  return cfg;
}

struct ServiceFixture {
  ZooModel model;
  std::unique_ptr<SyntheticImageDataset> dataset;
};

ServiceFixture make_fixture(std::uint64_t seed = 404) {
  ServiceFixture f;
  ZooOptions zo;
  zo.num_classes = 10;
  zo.seed = seed;
  zo.data_seed = 8;
  zo.calibration_images = 8;
  f.model = build_tiny_cnn(zo);
  DatasetConfig dc;
  dc.num_classes = 10;
  dc.height = 16;
  dc.width = 16;
  dc.seed = 8;
  f.dataset = std::make_unique<SyntheticImageDataset>(dc);
  return f;
}

const ServiceFixture& fixture() {
  static ServiceFixture* f = new ServiceFixture(make_fixture());
  return *f;
}

void expect_alloc_equal(const BitwidthAllocation& a, const BitwidthAllocation& b) {
  // Exact equality on purpose: warm answers must be bit-identical to cold
  // ones, not merely close.
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.xi, b.xi);
  EXPECT_EQ(a.deltas, b.deltas);
  EXPECT_EQ(a.formats, b.formats);
  EXPECT_EQ(a.solver_used, b.solver_used);
  EXPECT_EQ(a.solver_downgrades, b.solver_downgrades);
}

TEST(PlanService, WarmAnswerIsBitIdenticalToColdPipeline) {
  // Cold path: a full pipeline run. The fixture model is rebuilt so the
  // cold run cannot share any state with the service.
  ServiceFixture cold = make_fixture();
  PipelineConfig cfg = fast_pipeline_config();
  cfg.sigma.relative_accuracy_drop = 0.02;
  const ObjectiveSpec obj = objective_input_bits(cold.model.net, cold.model.analyzed);
  const PipelineResult cold_r =
      run_pipeline(cold.model.net, cold.model.analyzed, *cold.dataset, {obj}, cfg);

  // Warm path: the same query through the service.
  const ServiceFixture& f = fixture();
  PlanServiceConfig scfg;
  scfg.pipeline = fast_pipeline_config();
  PlanService service(scfg);
  const PlanKey key = service.register_network(f.model.net, f.model.analyzed, *f.dataset);
  PlanQuery q;
  q.accuracy_target = 0.02;
  q.objective = objective_input_bits(f.model.net, f.model.analyzed);
  const PlanResult warm = service.plan(key, q);

  ASSERT_EQ(cold_r.objectives.size(), 1u);
  expect_alloc_equal(cold_r.objectives[0].alloc, warm.alloc);
  EXPECT_EQ(cold_r.objectives[0].sigma_used, warm.sigma_used);
  EXPECT_EQ(cold_r.objectives[0].validated_accuracy, warm.validated_accuracy);
  EXPECT_EQ(cold_r.objectives[0].refinements, warm.refinements);
  EXPECT_EQ(cold_r.sigma.sigma_yl, warm.sigma_searched);
}

TEST(PlanService, MemoizedReplayIsIdenticalAndCountsAsHit) {
  const ServiceFixture& f = fixture();
  PlanServiceConfig scfg;
  scfg.pipeline = fast_pipeline_config();
  PlanService service(scfg);
  const PlanKey key = service.register_network(f.model.net, f.model.analyzed, *f.dataset);

  PlanQuery q;
  q.accuracy_target = 0.05;
  q.objective = objective_mac_energy(f.model.net, f.model.analyzed);
  const PlanResult first = service.plan(key, q);
  EXPECT_FALSE(first.plan_cached);
  const PlanResult replay = service.plan(key, q);
  EXPECT_TRUE(replay.plan_cached);
  EXPECT_TRUE(replay.profile_cached);
  EXPECT_TRUE(replay.sigma_cached);

  expect_alloc_equal(first.alloc, replay.alloc);
  EXPECT_EQ(first.objective_cost, replay.objective_cost);
  EXPECT_EQ(first.energy, replay.energy);
  EXPECT_EQ(first.sim_cycles, replay.sim_cycles);

  const CacheStats s = service.stats();
  EXPECT_EQ(s.profile_misses, 1);
  EXPECT_EQ(s.sigma_misses, 1);
  EXPECT_EQ(s.plan_misses, 1);
  EXPECT_EQ(s.plan_hits, 1);
  EXPECT_EQ(s.plans_served(), 2);
}

TEST(PlanService, GridCostsOneProfileMSearchesNMTails) {
  // The contract in the header: N objectives x M constraints = 1 profile +
  // M sigma searches + N*M allocation tails.
  const ServiceFixture& f = fixture();
  PlanServiceConfig scfg;
  scfg.pipeline = fast_pipeline_config();
  PlanService service(scfg);
  const PlanKey key = service.register_network(f.model.net, f.model.analyzed, *f.dataset);

  const std::vector<double> targets = {0.01, 0.05};  // M = 2
  const std::vector<ObjectiveSpec> objectives = {
      objective_input_bits(f.model.net, f.model.analyzed),
      objective_mac_energy(f.model.net, f.model.analyzed)};  // N = 2
  for (double t : targets) {
    for (const ObjectiveSpec& o : objectives) {
      PlanQuery q;
      q.accuracy_target = t;
      q.objective = o;
      service.plan(key, q);
    }
  }
  const CacheStats s = service.stats();
  EXPECT_EQ(s.profile_misses, 1);
  EXPECT_EQ(s.sigma_misses, 2);
  EXPECT_EQ(s.plan_misses, 4);
  EXPECT_EQ(s.plan_hits, 0);
}

TEST(PlanService, ContentAddressingSharesIdenticallyBuiltNetworks) {
  // Two networks built with identical seeds hash identically, so the
  // second registration lands on the first one's cache entry.
  const ServiceFixture& f = fixture();
  ServiceFixture twin = make_fixture();
  EXPECT_EQ(network_content_hash(f.model.net), network_content_hash(twin.model.net));

  PlanServiceConfig scfg;
  scfg.pipeline = fast_pipeline_config();
  PlanService service(scfg);
  const PlanKey k1 = service.register_network(f.model.net, f.model.analyzed, *f.dataset);
  const PlanKey k2 = service.register_network(twin.model.net, twin.model.analyzed, *twin.dataset);
  EXPECT_EQ(k1, k2);

  EXPECT_FALSE(service.ensure_profile(k1));  // miss: computed now
  EXPECT_TRUE(service.ensure_profile(k2));   // hit: shared entry
  const CacheStats s = service.stats();
  // Warm-ups are tallied separately; plan() charging never happened.
  EXPECT_EQ(s.profile_warm_misses, 1);
  EXPECT_EQ(s.profile_warm_hits, 1);
  EXPECT_EQ(s.profile_misses, 0);
  EXPECT_EQ(s.profile_hits, 0);
}

TEST(PlanService, LoadedProfileSeedsTheStageAndPreservesAnswers) {
  // Persist a profile from a cold pipeline run, feed it to a fresh service
  // via load_profile, and check the seeded service (a) skips the fit
  // measurements and (b) still answers bit-identically.
  ServiceFixture cold = make_fixture();
  PipelineConfig cfg = fast_pipeline_config();
  cfg.sigma.relative_accuracy_drop = 0.05;
  const ObjectiveSpec cold_obj = objective_input_bits(cold.model.net, cold.model.analyzed);
  const PipelineResult cold_r =
      run_pipeline(cold.model.net, cold.model.analyzed, *cold.dataset, {cold_obj}, cfg);
  const ProfileBundle bundle =
      make_profile_bundle(cold.model.net, cold.model.analyzed, cold_r);
  ASSERT_NE(bundle.net_hash, 0u);

  const ServiceFixture& f = fixture();
  PlanServiceConfig scfg;
  scfg.pipeline = fast_pipeline_config();
  PlanService service(scfg);
  const PlanKey key = service.register_network(f.model.net, f.model.analyzed, *f.dataset);
  ASSERT_EQ(bundle.net_hash, key.net_hash);  // content-addressing lines up

  EXPECT_TRUE(service.load_profile(key, bundle));
  EXPECT_EQ(service.stats().profile_loads, 1);

  PlanQuery q;
  q.accuracy_target = 0.05;
  q.objective = objective_input_bits(f.model.net, f.model.analyzed);
  const PlanResult r = service.plan(key, q);
  expect_alloc_equal(cold_r.objectives[0].alloc, r.alloc);
  EXPECT_EQ(cold_r.objectives[0].validated_accuracy, r.validated_accuracy);

  // The seeded entry spent strictly fewer forwards than the cold pipeline:
  // the profile-stage measurements were skipped.
  EXPECT_LT(service.forward_count(key), cold_r.forward_count);

  bool seeded_diag = false;
  for (const Diagnostic& d : service.profile_diagnostics(key).snapshot())
    if (d.stage == PipelineStage::kServe && d.message.find("seeded") != std::string::npos)
      seeded_diag = true;
  EXPECT_TRUE(seeded_diag);
}

TEST(PlanService, LoadProfileRejectsUnverifiableOrMismatchedBundles) {
  const ServiceFixture& f = fixture();
  PlanServiceConfig scfg;
  scfg.pipeline = fast_pipeline_config();
  PlanService service(scfg);
  const PlanKey key = service.register_network(f.model.net, f.model.analyzed, *f.dataset);

  ProfileBundle bundle;
  bundle.network = f.model.net.name();
  bundle.models.resize(f.model.analyzed.size());
  bundle.ranges.resize(f.model.analyzed.size(), 1.0);

  // No hash (pre-v3 file): provenance unverifiable, rejected.
  bundle.net_hash = 0;
  EXPECT_FALSE(service.load_profile(key, bundle));
  // Wrong hash: measured on a different network, rejected.
  bundle.net_hash = key.net_hash ^ 0x1;
  EXPECT_FALSE(service.load_profile(key, bundle));
  // Right hash but wrong layer count: rejected.
  bundle.net_hash = key.net_hash;
  bundle.models.resize(f.model.analyzed.size() + 1);
  EXPECT_FALSE(service.load_profile(key, bundle));
  // Already-measured profile: a late (even valid) bundle is refused.
  bundle.models.resize(f.model.analyzed.size());
  service.ensure_profile(key);
  EXPECT_FALSE(service.load_profile(key, bundle));

  const CacheStats s = service.stats();
  EXPECT_EQ(s.profile_load_rejected, 4);
  EXPECT_EQ(s.profile_loads, 0);

  // Every rejection is reported through the service diagnostics, never
  // swallowed: a stale profile must fail loudly.
  int rejections = 0;
  bool saw_error = false;
  for (const Diagnostic& d : service.service_diagnostics().snapshot()) {
    if (d.stage != PipelineStage::kServe) continue;
    if (d.message.find("rejected") != std::string::npos) ++rejections;
    if (d.severity == DiagSeverity::kError) saw_error = true;
  }
  EXPECT_EQ(rejections, 4);
  EXPECT_TRUE(saw_error);  // the hash mismatch is an error, not a note
}

TEST(PlanService, DifferentWeightsGetDifferentKeys) {
  const ServiceFixture& f = fixture();
  ServiceFixture other = make_fixture(/*seed=*/405);
  EXPECT_NE(network_content_hash(f.model.net), network_content_hash(other.model.net));

  PlanServiceConfig scfg;
  scfg.pipeline = fast_pipeline_config();
  PlanService service(scfg);
  const PlanKey k1 = service.register_network(f.model.net, f.model.analyzed, *f.dataset);
  const PlanKey k2 = service.register_network(other.model.net, other.model.analyzed,
                                              *other.dataset);
  EXPECT_NE(k1, k2);
}

TEST(PlanService, ConfigDigestSeparatesMeasurementConfigs) {
  const ServiceFixture& f = fixture();
  PlanServiceConfig a;
  a.pipeline = fast_pipeline_config();
  PlanServiceConfig b = a;
  b.pipeline.harness.eval_images = 64;  // different measurement substrate
  EXPECT_NE(plan_config_digest(a, f.dataset->config()),
            plan_config_digest(b, f.dataset->config()));

  // Same config on a different dataset is also a different profile.
  DatasetConfig other_data = f.dataset->config();
  other_data.seed += 1;
  EXPECT_NE(plan_config_digest(a, f.dataset->config()), plan_config_digest(a, other_data));

  // Per-query knobs must NOT be part of the digest (they are memo keys).
  PlanServiceConfig c = a;
  c.pipeline.allocator.solver = XiSolver::kClosedForm;
  c.pipeline.sigma.relative_accuracy_drop = 0.2;
  EXPECT_EQ(plan_config_digest(a, f.dataset->config()),
            plan_config_digest(c, f.dataset->config()));
}

TEST(PlanService, UnknownKeyThrows) {
  PlanService service;
  PlanKey bogus;
  bogus.net_hash = 1;
  bogus.config_digest = 2;
  EXPECT_THROW(service.ensure_profile(bogus), std::runtime_error);
  EXPECT_THROW(service.plan(bogus, PlanQuery{}), std::runtime_error);
  EXPECT_THROW(service.profile_diagnostics(bogus), std::runtime_error);
}

TEST(PlanService, ExportedPlansRoundTripThroughPlanIo) {
  const ServiceFixture& f = fixture();
  PlanServiceConfig scfg;
  scfg.pipeline = fast_pipeline_config();
  PlanService service(scfg);
  const PlanKey key = service.register_network(f.model.net, f.model.analyzed, *f.dataset);

  PlanQuery q;
  q.accuracy_target = 0.05;
  q.objective = objective_input_bits(f.model.net, f.model.analyzed);
  const PlanResult r = service.plan(key, q);

  const PlanStore store = service.export_plans();
  ASSERT_EQ(store.plans.size(), 1u);
  EXPECT_EQ(store.plans[0].net_hash, key.net_hash);
  EXPECT_EQ(store.plans[0].config_digest, key.config_digest);
  EXPECT_EQ(store.plans[0].objective, "input_bits");
  EXPECT_EQ(store.plans[0].formats, r.alloc.formats);

  const PlanStore reloaded = parse_plan_store(serialize_plan_store(store));
  ASSERT_EQ(reloaded.plans.size(), 1u);
  EXPECT_EQ(reloaded.plans[0].formats, r.alloc.formats);
  EXPECT_EQ(reloaded.plans[0].total_bits(), r.alloc.bits);
}

TEST(PlanService, ClearPlanMemoKeepsProfileAndSigma) {
  const ServiceFixture& f = fixture();
  PlanServiceConfig scfg;
  scfg.pipeline = fast_pipeline_config();
  PlanService service(scfg);
  const PlanKey key = service.register_network(f.model.net, f.model.analyzed, *f.dataset);

  PlanQuery q;
  q.accuracy_target = 0.05;
  q.objective = objective_input_bits(f.model.net, f.model.analyzed);
  const PlanResult first = service.plan(key, q);
  service.clear_plan_memo();
  const PlanResult again = service.plan(key, q);
  EXPECT_FALSE(again.plan_cached);   // memo was dropped...
  EXPECT_TRUE(again.profile_cached); // ...but the expensive stages remain
  EXPECT_TRUE(again.sigma_cached);
  expect_alloc_equal(first.alloc, again.alloc);
}

TEST(PlanService, CacheLifecycleCountersMatchMetricsSnapshot) {
  // Symmetry contract: the cache-lifecycle numbers in CacheStats (hits,
  // misses, waits, loads, rejections) and the serve.* metrics family must
  // tell the same story — sweep_tool --json reports both.
  // The bundle for the accepted load below comes from a cold pipeline run,
  // as in LoadedProfileSeedsTheStageAndPreservesAnswers; it is built before
  // the registry is reset so only the services' counts are compared.
  ServiceFixture cold = make_fixture();
  PipelineConfig cfg = fast_pipeline_config();
  cfg.sigma.relative_accuracy_drop = 0.05;
  const ObjectiveSpec cold_obj = objective_input_bits(cold.model.net, cold.model.analyzed);
  const PipelineResult cold_r =
      run_pipeline(cold.model.net, cold.model.analyzed, *cold.dataset, {cold_obj}, cfg);
  const ProfileBundle bundle = make_profile_bundle(cold.model.net, cold.model.analyzed, cold_r);

  set_metrics_enabled(true);
  metrics().reset();

  const ServiceFixture& f = fixture();
  PlanServiceConfig scfg;
  scfg.pipeline = fast_pipeline_config();
  PlanService service(scfg);
  const PlanKey key = service.register_network(f.model.net, f.model.analyzed, *f.dataset);

  // One rejected load (hashless bundle), then two plan misses and a hit.
  ProfileBundle bad;
  bad.network = f.model.net.name();
  bad.net_hash = 0;
  bad.models.resize(f.model.analyzed.size());
  bad.ranges.resize(f.model.analyzed.size(), 1.0);
  EXPECT_FALSE(service.load_profile(key, bad));

  PlanQuery qa;
  qa.accuracy_target = 0.05;
  qa.objective = objective_input_bits(f.model.net, f.model.analyzed);
  PlanQuery qb = qa;
  qb.objective = objective_mac_energy(f.model.net, f.model.analyzed);
  service.plan(key, qa);
  service.plan(key, qb);
  service.plan(key, qb);  // plan-memo hit

  // One accepted load, into a second service sharing the fixture.
  PlanService seeded(scfg);
  const PlanKey key2 = seeded.register_network(f.model.net, f.model.analyzed, *f.dataset);
  EXPECT_TRUE(seeded.load_profile(key2, bundle));

  const CacheStats s = service.stats();
  const CacheStats s2 = seeded.stats();
  const MetricsSnapshot snap = metrics().snapshot();
  set_metrics_enabled(false);

  EXPECT_EQ(s.profile_load_rejected, 1);
  EXPECT_EQ(s.plan_misses, 2);
  EXPECT_EQ(s.plan_hits, 1);
  EXPECT_EQ(s2.profile_loads, 1);
  // The metrics registry is process-global: it saw both services.
  EXPECT_EQ(snap.counter("serve.profile.load_rejected"),
            s.profile_load_rejected + s2.profile_load_rejected);
  EXPECT_EQ(snap.counter("serve.profile.loads"), s.profile_loads + s2.profile_loads);
  EXPECT_EQ(snap.counter("serve.plan.hits"), s.plan_hits + s2.plan_hits);
  EXPECT_EQ(snap.counter("serve.plan.misses"), s.plan_misses + s2.plan_misses);
  EXPECT_EQ(snap.counter("serve.profile.misses"), s.profile_misses + s2.profile_misses);
  EXPECT_EQ(snap.counter("serve.sigma.misses"), s.sigma_misses + s2.sigma_misses);
}

}  // namespace
}  // namespace mupod
