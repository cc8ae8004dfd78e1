#include "serve/plan_service.hpp"

#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "hw/energy_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mupod {

namespace {

// FNV-1a for config digests and memo keys (same scheme as
// network_content_hash; collisions only risk a gratuitous re-profile or a
// rejected stale hit, never a wrong answer served silently... a profile
// digest collision WOULD alias two configs, hence 64 bits + every field).
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(int v) { i64(v); }
  void b1(bool v) { i64(v ? 1 : 0); }
  void d(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

std::uint64_t target_bits(double accuracy_target) {
  return std::bit_cast<std::uint64_t>(accuracy_target);
}

// serve.* cache counters are low-frequency (once per query), so a name
// lookup per bump is fine.
void bump(const char* name) {
  if (metrics_enabled()) metrics().counter(name).add(1);
}

}  // namespace

std::string PlanKey::to_string() const {
  std::ostringstream os;
  os << std::hex << net_hash << ':' << config_digest;
  return os.str();
}

std::uint64_t plan_config_digest(const PlanServiceConfig& cfg, const DatasetConfig& dataset) {
  Fnv1a f;
  // Harness: defines the measurement substrate.
  const HarnessConfig& h = cfg.pipeline.harness;
  f.i32(h.profile_images);
  f.i32(h.eval_images);
  f.i32(h.batch);
  f.i32(static_cast<int>(h.metric));
  f.i64(h.eval_start_index);
  f.u64(h.noise_seed);
  f.b1(h.quarantine_nonfinite);
  // Profiler: defines the lambda/theta models.
  const ProfilerConfig& p = cfg.pipeline.profiler;
  f.i32(p.points);
  f.i32(p.reps_per_point);
  f.d(p.log2_lo_scale);
  f.d(p.log2_hi_scale);
  f.b1(p.no_intercept);
  f.d(p.min_r2);
  f.d(p.max_rel_error_gate);
  f.d(p.pin_r2);
  // Sigma search: scheme + bracket options (the accuracy target itself is
  // the memo key, not part of the digest).
  const SigmaSearchConfig& s = cfg.pipeline.sigma;
  f.i32(static_cast<int>(s.scheme));
  f.d(s.search.initial_upper);
  f.d(s.search.tolerance);
  f.d(s.search.relative_tolerance);
  f.i32(s.search.max_doublings);
  f.i32(s.search.max_iterations);
  f.b1(cfg.pipeline.calibrate_sigma);
  // Tail: validation/refinement and allocator settings (minus the solver,
  // which is per-query).
  f.b1(cfg.pipeline.validate);
  f.b1(cfg.pipeline.refine_on_violation);
  f.i32(cfg.pipeline.max_refinements);
  f.d(cfg.pipeline.refinement_shrink);
  const AllocatorConfig& a = cfg.pipeline.allocator;
  f.d(a.min_xi);
  f.i32(a.min_total_bits);
  f.i32(a.max_fraction_bits);
  f.i32(a.solver_options.max_iterations);
  f.d(a.solver_options.min_xi);
  f.d(a.solver_options.tolerance);
  f.d(a.solver_options.initial_step);
  // Dataset identity: the same network profiled on different data is a
  // different profile.
  f.i32(dataset.num_classes);
  f.i32(dataset.channels);
  f.i32(dataset.height);
  f.i32(dataset.width);
  f.i32(dataset.gratings_per_class);
  f.d(static_cast<double>(dataset.noise));
  f.u64(dataset.seed);
  return f.h;
}

struct PlanService::SigmaMemo {
  bool ready = false;
  bool running = false;
  bool failed = false;
  // Charged-once stats flag: set by the first plan() that consumes this
  // search (that query is charged the miss; see CacheStats).
  bool charged = false;
  std::string error;
  SigmaStageResult result;
  DiagnosticSink diag;
};

struct PlanService::Entry {
  const Network* net = nullptr;
  std::vector<int> analyzed;
  const SyntheticImageDataset* dataset = nullptr;
  PlanKey key;
  std::string name;

  // Guards everything below; cv signals profile/sigma completion. Once a
  // stage's `ready` flag is set its data is immutable, so readers may keep
  // references across an unlock (the maps are node-stable).
  mutable std::mutex mu;
  std::condition_variable cv;
  bool profile_ready = false;
  bool profile_running = false;
  bool profile_failed = false;
  bool profile_charged = false;  // charged-once stats flag (see CacheStats)
  std::string profile_error;
  std::unique_ptr<AnalysisHarness> harness;
  // Persisted profile accepted by load_profile, consumed (moved out) by
  // the next ensure_profile in place of the fit measurements.
  std::unique_ptr<ProfileBundle> preloaded;
  ProfileStageResult prof;
  DiagnosticSink profile_diag;
  std::map<std::uint64_t, SigmaMemo> sigma;  // key: accuracy-target bit pattern
  std::map<std::string, PlanResult> plans;
};

PlanService::PlanService(PlanServiceConfig cfg) : cfg_(std::move(cfg)) {
  // The Sec. V-E weight search mutates network weights; concurrent tails
  // share one const network, so it cannot be part of a served plan.
  cfg_.pipeline.search_weights = false;
}

PlanService::~PlanService() = default;

PlanKey PlanService::register_network(const Network& net, std::vector<int> analyzed,
                                      const SyntheticImageDataset& dataset) {
  assert(net.finalized());
  assert(!analyzed.empty());
  PlanKey key;
  key.net_hash = network_content_hash(net);
  key.config_digest = plan_config_digest(cfg_, dataset.config());

  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    auto e = std::make_unique<Entry>();
    e->net = &net;
    e->analyzed = std::move(analyzed);
    e->dataset = &dataset;
    e->key = key;
    e->name = net.name();
    entries_.emplace(key, std::move(e));
  }
  return key;
}

PlanService::Entry& PlanService::entry(const PlanKey& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end())
    throw std::runtime_error("plan service: unknown key " + key.to_string() +
                             " (register_network first)");
  return *it->second;
}

const PlanService::Entry& PlanService::entry(const PlanKey& key) const {
  return const_cast<PlanService*>(this)->entry(key);
}

bool PlanService::ensure_profile_locked(Entry& e, std::unique_lock<std::mutex>& lk, bool* waited) {
  if (e.profile_failed) throw std::runtime_error(e.profile_error);
  if (e.profile_ready) return true;
  if (e.profile_running) {
    // Once-per-key future: somebody else is already measuring this
    // profile; wait for their result and share it.
    if (waited != nullptr) *waited = true;
    bump("serve.profile.waits");
    e.cv.wait(lk, [&] { return e.profile_ready || e.profile_failed; });
    if (e.profile_failed) throw std::runtime_error(e.profile_error);
    return true;
  }
  e.profile_running = true;
  std::unique_ptr<ProfileBundle> pre = std::move(e.preloaded);
  lk.unlock();
  ScopedSpan span("serve.profile", "serve");
  std::unique_ptr<AnalysisHarness> harness;
  ProfileStageResult prof;
  DiagnosticSink diag;
  try {
    harness = std::make_unique<AnalysisHarness>(*e.net, e.analyzed, *e.dataset,
                                                cfg_.pipeline.harness, &diag);
    if (pre != nullptr) {
      // Accepted by load_profile (hash-checked): reuse the persisted fits
      // and ranges; only the harness had to be rebuilt.
      prof.models = pre->models;
      prof.ranges = pre->ranges;
      for (const LayerLinearModel& m : prof.models)
        if (m.usable()) ++prof.usable_models;
      diag_report(&diag, DiagSeverity::kInfo, PipelineStage::kServe, -1,
                  "profile stage seeded from a loaded bundle (" +
                      std::to_string(prof.models.size()) + " layer models)",
                  "lambda/theta fit measurements skipped");
    } else {
      prof = run_profile_stage(*harness, cfg_.pipeline.profiler, &diag);
    }
  } catch (const std::exception& ex) {
    lk.lock();
    e.profile_failed = true;
    e.profile_error = std::string("plan service: profile stage failed: ") + ex.what();
    e.profile_running = false;
    e.cv.notify_all();
    throw;
  }
  lk.lock();
  span.arg("forwards", harness->forward_count());
  span.arg("seeded", pre != nullptr ? 1 : 0);
  e.harness = std::move(harness);
  e.prof = std::move(prof);
  e.profile_diag = std::move(diag);
  e.profile_ready = true;
  e.profile_running = false;
  e.cv.notify_all();
  return false;
}

bool PlanService::ensure_sigma_locked(Entry& e, std::unique_lock<std::mutex>& lk,
                                      double accuracy_target, bool* waited) {
  assert(e.profile_ready);
  SigmaMemo& m = e.sigma[target_bits(accuracy_target)];
  if (m.failed) throw std::runtime_error(m.error);
  if (m.ready) return true;
  if (m.running) {
    if (waited != nullptr) *waited = true;
    bump("serve.sigma.waits");
    e.cv.wait(lk, [&] { return m.ready || m.failed; });
    if (m.failed) throw std::runtime_error(m.error);
    return true;
  }
  m.running = true;
  lk.unlock();
  ScopedSpan span("serve.sigma", "serve");
  SigmaSearchConfig scfg = cfg_.pipeline.sigma;
  scfg.relative_accuracy_drop = accuracy_target;
  SigmaStageResult result;
  DiagnosticSink diag;
  try {
    result = run_sigma_stage(*e.harness, e.prof, scfg, cfg_.pipeline.calibrate_sigma, &diag);
  } catch (const std::exception& ex) {
    lk.lock();
    m.failed = true;
    m.error = std::string("plan service: sigma stage failed: ") + ex.what();
    m.running = false;
    e.cv.notify_all();
    throw;
  }
  lk.lock();
  span.arg("evaluations", result.sigma.evaluations);
  m.result = std::move(result);
  m.diag = std::move(diag);
  m.ready = true;
  m.running = false;
  e.cv.notify_all();
  return false;
}

bool PlanService::ensure_profile(const PlanKey& key) {
  Entry& e = entry(key);
  std::unique_lock<std::mutex> lk(e.mu);
  bool waited = false;
  const bool hit = ensure_profile_locked(e, lk, &waited);
  lk.unlock();
  bump(hit ? "serve.profile.warm_hits" : "serve.profile.warm_misses");
  std::lock_guard<std::mutex> slk(mu_);
  (hit ? stats_.profile_warm_hits : stats_.profile_warm_misses)++;
  if (waited) ++stats_.profile_waits;
  return hit;
}

bool PlanService::ensure_sigma(const PlanKey& key, double accuracy_target) {
  Entry& e = entry(key);
  std::unique_lock<std::mutex> lk(e.mu);
  bool prof_waited = false, sigma_waited = false;
  const bool prof_hit = ensure_profile_locked(e, lk, &prof_waited);
  const bool hit = ensure_sigma_locked(e, lk, accuracy_target, &sigma_waited);
  lk.unlock();
  bump(prof_hit ? "serve.profile.warm_hits" : "serve.profile.warm_misses");
  bump(hit ? "serve.sigma.warm_hits" : "serve.sigma.warm_misses");
  std::lock_guard<std::mutex> slk(mu_);
  (prof_hit ? stats_.profile_warm_hits : stats_.profile_warm_misses)++;
  (hit ? stats_.sigma_warm_hits : stats_.sigma_warm_misses)++;
  if (prof_waited) ++stats_.profile_waits;
  if (sigma_waited) ++stats_.sigma_waits;
  return hit;
}

bool PlanService::load_profile(const PlanKey& key, const ProfileBundle& bundle) {
  Entry& e = entry(key);
  std::unique_lock<std::mutex> lk(e.mu);
  const auto reject = [&](DiagSeverity sev, std::string what) {
    lk.unlock();
    serve_diag_.report(sev, PipelineStage::kServe, -1,
                       "profile load rejected for " + key.to_string() + ": " + std::move(what),
                       "profile will be measured from scratch");
    bump("serve.profile.load_rejected");
    std::lock_guard<std::mutex> slk(mu_);
    ++stats_.profile_load_rejected;
    return false;
  };
  if (e.profile_ready || e.profile_running)
    return reject(DiagSeverity::kInfo, "profile already measured (or being measured)");
  if (bundle.net_hash == 0)
    return reject(DiagSeverity::kWarning,
                  "bundle carries no network hash (pre-v3 file); provenance unverifiable");
  if (bundle.net_hash != key.net_hash) {
    std::ostringstream os;
    os << "network hash mismatch (bundle " << std::hex << bundle.net_hash << ", key "
       << key.net_hash << "); the profile was measured on a different network";
    return reject(DiagSeverity::kError, os.str());
  }
  if (bundle.models.size() != e.analyzed.size())
    return reject(DiagSeverity::kError,
                  "layer count mismatch (bundle " + std::to_string(bundle.models.size()) +
                      ", analyzed " + std::to_string(e.analyzed.size()) + ")");
  e.preloaded = std::make_unique<ProfileBundle>(bundle);
  lk.unlock();
  serve_diag_.report(DiagSeverity::kInfo, PipelineStage::kServe, -1,
                     "profile bundle accepted for " + key.to_string() + " (" +
                         std::to_string(bundle.models.size()) + " layer models)",
                     "next ensure_profile skips the fit measurements");
  bump("serve.profile.loads");
  std::lock_guard<std::mutex> slk(mu_);
  ++stats_.profile_loads;
  return true;
}

namespace {

std::string plan_memo_key(const PlanQuery& q) {
  Fnv1a rho;
  for (std::int64_t r : q.objective.rho) rho.i64(r);
  std::ostringstream os;
  os << std::hex << target_bits(q.accuracy_target) << '|' << static_cast<int>(q.solver) << '|'
     << q.objective.name << '|' << rho.h;
  return os.str();
}

}  // namespace

PlanResult PlanService::plan(const PlanKey& key, const PlanQuery& query) {
  ScopedSpan span("serve.plan", "serve");
  Entry& e = entry(key);
  std::unique_lock<std::mutex> lk(e.mu);
  bool prof_waited = false, sigma_waited = false;
  const bool prof_hit = ensure_profile_locked(e, lk, &prof_waited);
  const bool sigma_hit = ensure_sigma_locked(e, lk, query.accuracy_target, &sigma_waited);
  SigmaMemo& sm = e.sigma.at(target_bits(query.accuracy_target));

  // Charged-once accounting (under the entry lock, so exactly one query is
  // charged each stage's miss — see CacheStats).
  const bool prof_charged = e.profile_charged;
  e.profile_charged = true;
  const bool sigma_charged = sm.charged;
  sm.charged = true;

  const auto charge = [&](std::lock_guard<std::mutex>&) {
    (prof_charged ? stats_.profile_hits : stats_.profile_misses)++;
    (sigma_charged ? stats_.sigma_hits : stats_.sigma_misses)++;
    if (prof_waited) ++stats_.profile_waits;
    if (sigma_waited) ++stats_.sigma_waits;
  };
  const auto charge_metrics = [&] {
    bump(prof_charged ? "serve.profile.hits" : "serve.profile.misses");
    bump(sigma_charged ? "serve.sigma.hits" : "serve.sigma.misses");
  };

  const std::string memo_key = plan_memo_key(query);
  if (auto it = e.plans.find(memo_key); it != e.plans.end()) {
    PlanResult r = it->second;
    lk.unlock();
    r.profile_cached = prof_hit;
    r.sigma_cached = sigma_hit;
    r.plan_cached = true;
    charge_metrics();
    bump("serve.plan.hits");
    span.arg("plan_cached", 1);
    std::lock_guard<std::mutex> slk(mu_);
    charge(slk);
    ++stats_.plan_hits;
    return r;
  }
  // `prof` and `sm.result` are immutable once ready; the tail runs outside
  // the entry lock so independent queries proceed concurrently.
  lk.unlock();

  PipelineConfig tail_cfg = cfg_.pipeline;
  tail_cfg.sigma.relative_accuracy_drop = query.accuracy_target;
  tail_cfg.allocator.solver = query.solver;
  tail_cfg.search_weights = false;

  PlanResult r;
  r.query = query;
  r.key = key;
  r.network = e.name;
  r.profile_cached = prof_hit;
  r.sigma_cached = sigma_hit;
  r.plan_cached = false;

  ObjectiveResult obj =
      run_objective_stage(*e.harness, e.prof, sm.result, query.objective, tail_cfg,
                          &r.diagnostics);
  r.sigma_searched = sm.result.sigma.sigma_yl;
  r.sigma_used = obj.sigma_used;
  r.refinements = obj.refinements;
  r.float_accuracy = e.harness->float_accuracy();
  r.validated_accuracy = obj.validated_accuracy;
  if (r.float_accuracy > 0.0) {
    if (obj.validated_accuracy >= 0.0)
      r.accuracy_loss = std::max(0.0, 1.0 - obj.validated_accuracy / r.float_accuracy);
    else if (sm.result.sigma.accuracy_at_sigma >= 0.0)
      r.accuracy_loss = std::max(0.0, 1.0 - sm.result.sigma.accuracy_at_sigma / r.float_accuracy);
  }
  r.alloc = std::move(obj.alloc);

  // Hardware cost attribution (hw/energy_model + hw/accelerator_sim).
  r.objective_cost = total_weighted_bits(query.objective.rho, r.alloc.bits);
  r.effective_bits = effective_bitwidth(query.objective.rho, r.alloc.bits);
  std::vector<std::int64_t> macs;
  macs.reserve(e.analyzed.size());
  for (int id : e.analyzed) macs.push_back(e.net->node(id).cost.macs);
  r.energy = cfg_.energy.network_energy(macs, r.alloc.bits, cfg_.weight_bits);
  const NetworkSimResult sim =
      simulate_network(cfg_.accelerator, *e.net, e.analyzed, r.alloc.bits, cfg_.weight_bits);
  r.sim_cycles = sim.total_cycles;
  r.sim_speedup = sim.speedup_vs_baseline;

  lk.lock();
  // Two racers compute identical answers; keep the first.
  e.plans.emplace(memo_key, r);
  lk.unlock();
  charge_metrics();
  bump("serve.plan.misses");
  span.arg("plan_cached", 0);
  span.arg("refinements", r.refinements);
  std::lock_guard<std::mutex> slk(mu_);
  charge(slk);
  ++stats_.plan_misses;
  return r;
}

LoweredPlan PlanService::lower_plan(const PlanKey& key, const PlanQuery& query) {
  LoweredPlan lp;
  lp.plan = plan(key, query);  // leaves the entry's profile (and network) ready
  Entry& e = entry(key);
  const Network* net = nullptr;
  const std::vector<int>* analyzed = nullptr;
  {
    // Immutable once profile_ready (guaranteed by the plan() above), so
    // the borrowed pointers stay valid outside the lock.
    std::lock_guard<std::mutex> lk(e.mu);
    net = e.net;
    analyzed = &e.analyzed;
  }
  CompileOptions copts;
  copts.weight_bits = cfg_.weight_bits;
  lp.compiled = std::make_shared<CompiledNetwork>(
      GraphCompiler(copts).compile(*net, *analyzed, lp.plan.alloc.formats));
  return lp;
}

PlanValidation PlanService::validate_plan(const PlanKey& key, const PlanQuery& query,
                                          double tolerance) {
  ScopedSpan span("serve.validate", "serve");
  PlanValidation v;
  LoweredPlan lp = lower_plan(key, query);
  v.plan = lp.plan;
  v.weight_bits = cfg_.weight_bits;
  v.tolerance = tolerance;
  v.float_accuracy = v.plan.float_accuracy;
  v.predicted_drop = v.plan.accuracy_loss;

  Entry& e = entry(key);
  const Network* net = nullptr;
  const std::vector<int>* analyzed = nullptr;
  const AnalysisHarness* harness = nullptr;
  {
    // Immutable once profile_ready (guaranteed by lower_plan's plan()), so
    // the borrowed pointers stay valid outside the lock.
    std::lock_guard<std::mutex> lk(e.mu);
    net = e.net;
    analyzed = &e.analyzed;
    harness = e.harness.get();
  }

  // Emulated accuracy: the pipeline's validated measurement when its tail
  // ran validation; otherwise measure the kQuantize injection here so the
  // comparison always has both sides.
  if (v.plan.validated_accuracy >= 0.0) {
    v.emulated_accuracy = v.plan.validated_accuracy;
  } else {
    std::unordered_map<int, InjectionSpec> inject;
    for (std::size_t i = 0; i < analyzed->size() && i < v.plan.alloc.formats.size(); ++i)
      inject[(*analyzed)[i]] = InjectionSpec::quantize(v.plan.alloc.formats[i]);
    v.emulated_accuracy = harness->accuracy_with_injection(inject);
  }

  // Ground truth: the unfused integer network (every compile rule off)
  // runs the SAME eval set against the SAME references.
  const CompiledNetwork unfused = GraphCompiler(CompileOptions::unfused(cfg_.weight_bits))
                                      .compile(*net, *analyzed, v.plan.alloc.formats);
  v.lowered_layers = unfused.coverage().lowered;
  v.integer_accuracy =
      harness->accuracy_with_executor([&](const Tensor& x) { return unfused.forward(x); });
  v.act_saturated = unfused.act_saturated();

  // Compiled path: the fused artifact the inference server serves, run on
  // the SAME eval set — the plan is only conformant if the artifact that
  // actually answers requests also holds the budget.
  CompiledNetwork& cnet = *lp.compiled;
  v.compiled_accuracy =
      harness->accuracy_with_executor([&](const Tensor& x) { return cnet.forward(x); });
  v.fusion = cnet.coverage();

  if (v.float_accuracy > 0.0) {
    if (v.emulated_accuracy >= 0.0)
      v.emulated_drop = std::max(0.0, 1.0 - v.emulated_accuracy / v.float_accuracy);
    v.integer_drop = std::max(0.0, 1.0 - v.integer_accuracy / v.float_accuracy);
    v.compiled_drop = std::max(0.0, 1.0 - v.compiled_accuracy / v.float_accuracy);
  }
  v.within_budget = v.integer_drop <= query.accuracy_target + tolerance;
  v.compiled_within_budget = v.compiled_drop <= query.accuracy_target + tolerance;

  bump("serve.validate.calls");
  if (!v.within_budget || !v.compiled_within_budget) bump("serve.validate.violations");
  span.arg("lowered_layers", v.lowered_layers);
  span.arg("within_budget", v.within_budget ? 1 : 0);
  span.arg("compiled_within_budget", v.compiled_within_budget ? 1 : 0);
  return v;
}

const DiagnosticSink& PlanService::profile_diagnostics(const PlanKey& key) const {
  const Entry& e = entry(key);
  std::lock_guard<std::mutex> lk(e.mu);
  if (!e.profile_ready)
    throw std::runtime_error("plan service: profile not computed yet for " + key.to_string());
  return e.profile_diag;
}

std::int64_t PlanService::forward_count(const PlanKey& key) const {
  const Entry& e = entry(key);
  std::lock_guard<std::mutex> lk(e.mu);
  return e.harness != nullptr ? e.harness->forward_count() : 0;
}

const std::string& PlanService::network_name(const PlanKey& key) const {
  return entry(key).name;
}

CacheStats PlanService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

PlanStore PlanService::export_plans() const {
  PlanStore store;
  std::lock_guard<std::mutex> slk(mu_);
  for (const auto& [key, ep] : entries_) {
    Entry& e = *ep;
    std::lock_guard<std::mutex> lk(e.mu);
    for (const auto& [memo_key, r] : e.plans) {
      (void)memo_key;
      PlanRecord rec;
      rec.net_hash = key.net_hash;
      rec.config_digest = key.config_digest;
      rec.network = e.name;
      rec.accuracy_target = r.query.accuracy_target;
      rec.objective = r.query.objective.name;
      rec.solver = xi_solver_name(r.query.solver);
      rec.sigma_searched = r.sigma_searched;
      rec.sigma_used = r.sigma_used;
      rec.validated_accuracy = r.validated_accuracy;
      rec.accuracy_loss = r.accuracy_loss;
      rec.objective_cost = static_cast<double>(r.objective_cost);
      rec.refinements = r.refinements;
      rec.formats = r.alloc.formats;
      store.plans.push_back(std::move(rec));
    }
  }
  return store;
}

void PlanService::clear_plan_memo() {
  std::lock_guard<std::mutex> slk(mu_);
  for (auto& [key, ep] : entries_) {
    (void)key;
    std::lock_guard<std::mutex> lk(ep->mu);
    ep->plans.clear();
  }
}

}  // namespace mupod
