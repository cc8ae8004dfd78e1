// AnalysisHarness: the measurement substrate every stage of the paper's
// pipeline runs on.
//
// It owns (a) a profiling set with cached exact activations, so injecting
// an error at layer K only re-executes the sub-DAG downstream of K
// (Sec. V-A's repeated forward passes), and (b) an evaluation set with the
// float network's logits/predictions, against which quantized accuracy is
// measured as top-1 agreement (the "relative accuracy drop" of the paper;
// see DESIGN.md on the ImageNet substitution).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/diagnostics.hpp"
#include "data/synthetic.hpp"
#include "nn/network.hpp"

namespace mupod {

// What "accuracy" means for the constraint tests.
enum class AccuracyMetric {
  // Top-1 agreement with the float network (float accuracy == 1.0 by
  // construction). Deterministic and label-free, but a heavy near-zero-
  // margin tail makes tight budgets unreachable: every borderline flip
  // counts against the budget.
  kAgreement,
  // Top-1 accuracy against the dataset labels — what the paper measures.
  // Borderline flips can land either way, so a 1% relative drop behaves
  // like the paper's experiments.
  kLabels,
};

struct HarnessConfig {
  int profile_images = 32;  // images behind each sigma_{Y_{K->L}} measurement
  int eval_images = 512;    // images behind each accuracy measurement
  int batch = 64;           // execution batch size
  AccuracyMetric metric = AccuracyMetric::kAgreement;
  // First dataset index of the eval set (kept away from the profiling and
  // head-training images). Use a different offset to build a held-out
  // harness, e.g. for measuring search-method overfitting (paper Sec. I).
  std::int64_t eval_start_index = 1'000'000;
  std::uint64_t noise_seed = 777;
  // Quarantine batches whose activations contain NaN/Inf instead of
  // letting one poisoned forward pass corrupt every sigma measurement
  // downstream. Replacement batches are drawn (bounded attempts).
  bool quarantine_nonfinite = true;
};

class AnalysisHarness {
 public:
  // `net` and `analyzed` must outlive the harness. `analyzed` lists the
  // node ids whose input precision is being allocated (ZooModel::analyzed).
  // `diag` (optional, borrowed for the constructor only) receives
  // quarantine and degradation diagnostics.
  AnalysisHarness(const Network& net, std::vector<int> analyzed,
                  const SyntheticImageDataset& dataset, const HarnessConfig& cfg = {},
                  DiagnosticSink* diag = nullptr);

  const Network& net() const { return *net_; }
  const std::vector<int>& analyzed() const { return analyzed_; }
  int num_layers() const { return static_cast<int>(analyzed_.size()); }
  const HarnessConfig& config() const { return cfg_; }

  // max |X_K| of each analyzed layer's input over the profiling set
  // (used to derive integer bitwidths, Sec. II-A / V-D).
  const std::vector<double>& input_ranges() const { return ranges_; }

  // Float accuracy on the eval set: 1.0 under kAgreement, the measured
  // label accuracy of the float network under kLabels. 0.0 when every
  // eval batch was quarantined (no usable measurement exists).
  double float_accuracy() const { return float_accuracy_; }

  // Measurement-substrate health: batches that survived construction and
  // batches dropped because their activations were non-finite. A zero
  // usable count means the corresponding measurements are meaningless —
  // callers must degrade rather than trust them.
  int profile_batch_count() const { return static_cast<int>(profile_batches_.size()); }
  int eval_batch_count() const { return static_cast<int>(eval_batches_.size()); }
  int quarantined_profile_batches() const { return quarantined_profile_; }
  int quarantined_eval_batches() const { return quarantined_eval_; }

  // --- profiling-set measurements ----------------------------------------
  // s.d. of (Y_hat_L - Y_L) over the profiling set when injecting
  // uniform +-delta noise into the input of `node` (Sec. V-A steps 3-4).
  // `rep` selects a decorrelated noise stream.
  double output_sigma_for_injection(int node, double delta, int rep = 0) const;

  // Raw final-layer error samples for the same injection (Fig. 3 right).
  std::vector<float> output_errors_for_injection(
      const std::unordered_map<int, InjectionSpec>& inject, int rep = 0) const;

  // s.d. of the final-layer error under a multi-node injection.
  double output_sigma_for_injection_map(const std::unordered_map<int, InjectionSpec>& inject,
                                        int rep = 0) const;

  // s.d. of the final-layer error when recomputing from `node` with the
  // network's CURRENT state against the cached exact activations. Used by
  // the weight-error profiler: the caller perturbs/quantizes the weights
  // of `node` (upstream activations stay valid), measures, and restores.
  double output_sigma_recompute_from(int node) const;

  // --- eval-set measurements ----------------------------------------------
  // Top-1 agreement with the float network when running the full net with
  // the given injections (Scheme 1 tests, bitwidth validation).
  double accuracy_with_injection(const std::unordered_map<int, InjectionSpec>& inject,
                                 int rep = 0) const;

  // Scheme 2: add N(0, sigma^2) to the float logits only.
  double accuracy_with_output_gaussian(double sigma, int rep = 0) const;

  // Efficient batch evaluation of many *single-node* injection candidates
  // (used by the search-based baseline): result[i] is the accuracy when
  // only candidates[i] is applied. Builds each eval batch's activation
  // cache once per call, so each candidate costs a partial forward.
  std::vector<double> accuracy_single_injections(
      const std::vector<std::pair<int, InjectionSpec>>& candidates) const;

  // Accuracy with current (possibly externally quantized) weights and the
  // given input injections. Unlike accuracy_with_injection this does NOT
  // use cached activations (weights may have changed). Used by the weight
  // bitwidth search.
  double accuracy_full_forward(const std::unordered_map<int, InjectionSpec>& inject,
                               int rep = 0) const;

  // Accuracy of an arbitrary executor over the same eval set and the same
  // references: `forward_fn` maps an eval batch's images to final-node
  // logits. Used by plan validation to measure the INTEGER-executed
  // network (compile/) against exactly the measurement the emulated
  // pipeline used. Forward passes are charged to forward_count().
  double accuracy_with_executor(const std::function<Tensor(const Tensor&)>& forward_fn) const;

  // Number of full-net-equivalent forward passes issued so far (cost
  // accounting for the timing experiment). Atomic: the measurement methods
  // are const and may be called from several PlanService tails at once.
  std::int64_t forward_count() const { return forward_count_.load(std::memory_order_relaxed); }

 private:
  struct Batch {
    Tensor images;
    std::vector<Tensor> acts;   // exact activation cache (profiling set only)
    Tensor logits;              // float logits (eval set only)
    std::vector<int> reference; // comparison targets: float top-1
                                // predictions (kAgreement) or labels (kLabels)
  };

  std::uint64_t rep_seed(int rep) const;

  const Network* net_;
  std::vector<int> analyzed_;
  HarnessConfig cfg_;
  std::vector<Batch> profile_batches_;
  std::vector<Batch> eval_batches_;
  std::vector<double> ranges_;
  double float_accuracy_ = 1.0;
  int quarantined_profile_ = 0;
  int quarantined_eval_ = 0;
  mutable std::atomic<std::int64_t> forward_count_{0};
};

}  // namespace mupod
