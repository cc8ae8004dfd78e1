// PlanService: the serving layer that amortizes the paper's expensive
// profiling pass across many precision-planning queries.
//
// The pipeline (src/core/pipeline.*) factors into three stages with very
// different costs and very different reuse scopes:
//
//   stage          cost (forwards)     reusable across
//   -------------  ------------------  --------------------------------
//   profile        layers x points     EVERY query on the same network
//   sigma search   ~log(1/tol) evals   every objective at one constraint
//   allocate+val.  1 + refinements     nothing (this IS the query)
//
// PlanService caches the first two at exactly those scopes, keyed
// content-addressed: a profile entry is identified by (network content
// hash, service config digest), so two identically-built networks share
// one entry and a *changed* network (different weights, topology, harness
// or profiler settings) can never be served stale measurements. Sigma
// searches are memoized per accuracy target inside each entry, and fully
// answered plans are memoized per (target, objective, solver) query.
// Answering N objectives x M constraints therefore costs 1 profile +
// M searches + N*M allocation tails instead of N*M full pipelines.
//
// Concurrency: all public methods are thread-safe. The profile and each
// sigma search run once per key — a once-per-key future discipline: the
// first caller computes (the computation is internally parallel on the
// global thread pool), concurrent callers for the same key block until
// the result is ready and then share it. The allocation tails are
// read-only over the cached state and may run genuinely concurrently;
// SweepEngine (sweep.hpp) exploits exactly that split.
//
// Answers are bit-identical to a cold run_pipeline with the same
// configuration: plan() executes the same run_objective_stage the
// pipeline does, on the same cached inputs (see test_plan_service.cpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compile/compiled_network.hpp"
#include "core/pipeline.hpp"
#include "hw/accelerator_sim.hpp"
#include "io/plan_io.hpp"
#include "io/profile_io.hpp"

namespace mupod {

struct PlanServiceConfig {
  // Stage configuration shared by every query. Per-query knobs
  // (sigma.relative_accuracy_drop, allocator.solver) are overridden from
  // the PlanQuery; search_weights is forced off (the Sec. V-E weight
  // search mutates the network, which would break concurrent tails).
  PipelineConfig pipeline;
  // Hardware models used to attach objective costs to each plan.
  MacEnergyModel energy = MacEnergyModel::stripes_like();
  AcceleratorConfig accelerator = AcceleratorConfig::stripes_like();
  int weight_bits = 16;  // uniform weight width for the cost models
  // Upper bound on memoized plans kept per network entry; 0 = unlimited.
  // When the cap is exceeded the oldest memo is evicted (FIFO) and the
  // eviction is reported through service_diagnostics() — a long-running
  // serve process over a churning query stream stays bounded.
  std::size_t max_plans_per_entry = 0;
};

// Content-addressed cache key: (network content hash, config digest).
struct PlanKey {
  std::uint64_t net_hash = 0;
  std::uint64_t config_digest = 0;
  bool operator==(const PlanKey& o) const = default;
  bool operator<(const PlanKey& o) const {
    return net_hash != o.net_hash ? net_hash < o.net_hash : config_digest < o.config_digest;
  }
  std::string to_string() const;
};

struct PlanQuery {
  // Maximum tolerated relative top-1 accuracy drop (the paper's 1% / 5%).
  double accuracy_target = 0.01;
  ObjectiveSpec objective;
  XiSolver solver = XiSolver::kSqp;
};

struct PlanResult {
  PlanQuery query;
  PlanKey key;
  std::string network;
  BitwidthAllocation alloc;
  double sigma_searched = 0.0;  // Sec. V-C budget (pre-calibration)
  double sigma_used = 0.0;      // budget behind the final allocation
  int refinements = 0;
  double float_accuracy = 1.0;
  double validated_accuracy = -1.0;
  // Realized relative accuracy loss vs the float network (>= 0; falls back
  // to the sigma-search estimate when validation is disabled).
  double accuracy_loss = 0.0;
  // Hardware cost of the allocation:
  std::int64_t objective_cost = 0;  // sum(rho_K * B_K) under the query's rho
  double effective_bits = 0.0;      // sum(rho_K * B_K) / sum(rho_K)
  double energy = 0.0;              // MacEnergyModel, per image
  double sim_cycles = 0.0;          // accelerator_sim, per image
  double sim_speedup = 0.0;         // vs the 16-bit baseline
  // Diagnostics from this query's allocation tail only (profile/sigma
  // diagnostics live once per cache entry; see profile_diagnostics()).
  DiagnosticSink diagnostics;
  // Cache provenance of this answer.
  bool profile_cached = false;
  bool sigma_cached = false;
  bool plan_cached = false;
};

// Result of executing a plan on the INTEGER backend and comparing
// against what the emulated pipeline predicted. The committed
// conformance contract: integer_drop <= query.accuracy_target +
// tolerance, where tolerance defaults to kValidationTolerance and covers
// the emulated-vs-executed gap (integer MACs + requantized boundaries vs
// fp32 MACs on rounded inputs; see docs/method.md Sec. 12).
struct PlanValidation {
  PlanResult plan;           // the answer being validated (memoized as usual)
  int weight_bits = 16;      // uniform weight width the lowering used
  double tolerance = 0.0;    // budget slack this validation applied
  double float_accuracy = 1.0;
  double emulated_accuracy = -1.0;  // kQuantize-injection accuracy (fp32 MACs)
  double integer_accuracy = -1.0;   // integer-executed accuracy (unfused)
  double predicted_drop = 0.0;      // the plan's accuracy_loss estimate
  double emulated_drop = 0.0;       // measured, emulated path
  double integer_drop = 0.0;        // measured, integer path
  bool within_budget = false;       // integer_drop <= target + tolerance
  // The integer_* fields come from the unfused integer reference, the
  // plan compiled with every rule off (CompileOptions::unfused).
  std::int64_t act_saturated = 0;   // activations clipped by quantize-on-load
  int lowered_layers = 0;           // layers actually executed in integer
  // Compiled path (compile/graph_compiler.hpp): the SAME plan run through
  // the fused artifact the inference server actually serves. Held to the
  // same budget; the fused region boundaries requantize once instead of
  // dequantize+requantize, so compiled_drop may differ from integer_drop
  // by at most the one-step boundary contract (docs/method.md Sec. 17).
  double compiled_accuracy = -1.0;
  double compiled_drop = 0.0;
  bool compiled_within_budget = false;
  FusionCoverage fusion;            // the compiled artifact's fusion report
};

// Committed emulated-vs-executed tolerance: the conformance battery
// (tests/test_plan_conformance.cpp) and sweep_tool --validate both hold
// integer_drop to accuracy_target + this.
inline constexpr double kValidationTolerance = 0.02;

// A plan answer lowered onto the integer backend (cfg.weight_bits
// weights): the query's per-layer formats compiled against the entry's
// registered Network into the fused artifact (graph compiler: norm
// folding, ReLU epilogues, cross-layer requantize) the inference server
// serves. The compiled network borrows that Network — which the caller
// already guarantees outlives the service — so the shared_ptr may be
// handed to long-lived consumers (the inference server holds one per
// serving snapshot and hot-swaps it on plan refresh).
struct LoweredPlan {
  PlanResult plan;
  std::shared_ptr<CompiledNetwork> compiled;
};

// Charged-once accounting: each computed profile/sigma stage is charged to
// exactly ONE plan() query as its miss (the first query that consumes it,
// even when a warm-up computed it); every later consumer is a hit. So for
// an N-objective x M-target sweep: profile_misses == 1, profile_hits ==
// N*M - 1, sigma_misses == M, sigma_hits == M*(N-1) — regardless of
// whether the sweep pre-warmed the caches. Warm-up calls (ensure_profile /
// ensure_sigma) are tallied separately in the *_warm_* fields.
struct CacheStats {
  std::int64_t profile_misses = 0;  // plan() queries charged a profile computation
  std::int64_t profile_hits = 0;    // plan() queries served an already-charged profile
  std::int64_t sigma_misses = 0;
  std::int64_t sigma_hits = 0;
  std::int64_t plan_misses = 0;     // allocation tails actually run
  std::int64_t plan_hits = 0;       // answers replayed from the plan memo
  // Warm-up accounting: ensure_profile/ensure_sigma calls that computed
  // (miss) or found (hit) their stage, outside plan() charging.
  std::int64_t profile_warm_misses = 0;
  std::int64_t profile_warm_hits = 0;
  std::int64_t sigma_warm_misses = 0;
  std::int64_t sigma_warm_hits = 0;
  // Callers that blocked on another caller's in-flight computation of the
  // same stage (the once-per-key future discipline in action).
  std::int64_t profile_waits = 0;
  std::int64_t sigma_waits = 0;
  // Cache lifecycle (see service_diagnostics()).
  std::int64_t plan_evictions = 0;
  std::int64_t profile_loads = 0;          // bundles accepted by load_profile
  std::int64_t profile_load_rejected = 0;  // bundles rejected (hash mismatch etc.)
  std::int64_t plans_served() const { return plan_misses + plan_hits; }
};

// Digest of everything that invalidates cached measurements: harness,
// profiler, sigma-search and tail configuration plus the dataset identity.
std::uint64_t plan_config_digest(const PlanServiceConfig& cfg, const DatasetConfig& dataset);

class PlanService {
 public:
  explicit PlanService(PlanServiceConfig cfg = {});
  ~PlanService();
  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  const PlanServiceConfig& config() const { return cfg_; }

  // Registers a network for serving; `net` and `dataset` are borrowed and
  // must outlive the service. Returns the content-addressed key. A second
  // registration with an identical (content hash, config digest) shares
  // the existing entry — its profile is never measured twice.
  PlanKey register_network(const Network& net, std::vector<int> analyzed,
                           const SyntheticImageDataset& dataset);

  // Stage warm-up, usable independently of plan(). Both follow the
  // once-per-key future discipline described above and return true when
  // the result was already cached (or computed by a concurrent caller).
  bool ensure_profile(const PlanKey& key);
  bool ensure_sigma(const PlanKey& key, double accuracy_target);

  // Seeds the profile stage for `key` from a persisted bundle
  // (io/profile_io.hpp), skipping the lambda/theta fit measurements on the
  // next ensure_profile (the harness — activation caches — is still
  // built). The bundle must carry the network content hash of the profiled
  // network and it must match the key's: a mismatching or hashless bundle
  // is REJECTED (returns false) and the rejection is reported through
  // service_diagnostics() — a stale profile must never be served silently.
  // Also returns false (benignly) when the profile was already measured.
  bool load_profile(const PlanKey& key, const ProfileBundle& bundle);

  // The inverse of load_profile: packages the cached profile stage as a
  // persistable/replicable bundle carrying the network content hash (so a
  // receiving service's load_profile can verify provenance). Requires the
  // profile to be ready (ensure_profile first); throws otherwise. The
  // sigma fields are left zero — seeding only consumes models/ranges.
  ProfileBundle export_profile(const PlanKey& key) const;

  // Answers one query: profile and sigma stages from cache (computing them
  // on first need), then the cheap allocate+validate tail. Thread-safe.
  PlanResult plan(const PlanKey& key, const PlanQuery& query);

  // plan() plus lowering: answers the query and compiles the resulting
  // formats against the registered network on the integer backend.
  // Thread-safe; the plan itself is memoized as usual, the compiled
  // network is built fresh per call (each consumer owns its snapshot).
  LoweredPlan lower_plan(const PlanKey& key, const PlanQuery& query);

  // plan() plus ground truth: compiles the answer onto the integer
  // backend (cfg.weight_bits weights) twice — unfused (every rule off)
  // and fused, as lower_plan serves it — runs the eval set through both
  // on the entry's own harness, and reports the actual vs predicted
  // accuracy drop. Thread-safe; the plan itself is memoized as usual (the
  // integer execution is not — it IS the check).
  PlanValidation validate_plan(const PlanKey& key, const PlanQuery& query,
                               double tolerance = kValidationTolerance);

  // Cached per-entry state, for reporting. Valid after ensure_profile.
  const DiagnosticSink& profile_diagnostics(const PlanKey& key) const;
  std::int64_t forward_count(const PlanKey& key) const;
  const std::string& network_name(const PlanKey& key) const;

  CacheStats stats() const;

  // Service-level cache-lifecycle diagnostics (PipelineStage::kServe):
  // rejected profile loads, plan-memo evictions. Thread-safe to read via
  // snapshot(); distinct from the per-entry profile_diagnostics().
  const DiagnosticSink& service_diagnostics() const { return serve_diag_; }

  // Every memoized plan as a persistable store (io/plan_io.hpp).
  PlanStore export_plans() const;

  // Drops only the per-query plan memo, keeping profiles and sigma
  // searches — used to re-time allocation tails (bench_sweep).
  void clear_plan_memo();

 private:
  struct SigmaMemo;
  struct Entry;

  Entry& entry(const PlanKey& key);
  const Entry& entry(const PlanKey& key) const;
  // `waited`, when given, is set when this caller blocked on another
  // caller's in-flight computation of the same stage.
  bool ensure_profile_locked(Entry& e, std::unique_lock<std::mutex>& lk, bool* waited = nullptr);
  bool ensure_sigma_locked(Entry& e, std::unique_lock<std::mutex>& lk, double accuracy_target,
                           bool* waited = nullptr);

  PlanServiceConfig cfg_;
  mutable std::mutex mu_;  // guards entries_ map shape and stats_
  std::map<PlanKey, std::unique_ptr<Entry>> entries_;
  CacheStats stats_;
  DiagnosticSink serve_diag_;  // internally synchronized
};

}  // namespace mupod
