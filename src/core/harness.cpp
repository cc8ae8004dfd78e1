#include "core/harness.hpp"

#include <algorithm>
#include <cassert>

#include "obs/stage_scope.hpp"
#include "obs/trace.hpp"
#include "stats/summary.hpp"

namespace mupod {

namespace {
bool acts_all_finite(const std::vector<Tensor>& acts) {
  for (const Tensor& t : acts)
    if (!t.all_finite()) return false;
  return true;
}
}  // namespace

AnalysisHarness::AnalysisHarness(const Network& net, std::vector<int> analyzed,
                                 const SyntheticImageDataset& dataset, const HarnessConfig& cfg,
                                 DiagnosticSink* diag)
    : net_(&net), analyzed_(std::move(analyzed)), cfg_(cfg) {
  // Building the activation caches issues forward passes of its own;
  // attribute them to the harness stage regardless of which caller
  // (run_pipeline, PlanService::ensure_profile, a test) constructs us.
  ForwardStageScope fscope(ForwardStage::kHarness);
  ScopedSpan span("stage.harness");
  assert(net.finalized());
  assert(!analyzed_.empty());

  ranges_.assign(analyzed_.size(), 0.0);

  // --- profiling set with cached exact activations -----------------------
  // Poisoned batches (non-finite activations anywhere in the cache) are
  // quarantined: a single NaN in the exact-activation cache would corrupt
  // every sigma_{Y_{K->L}} measurement built on it. Replacement batches
  // are drawn from later dataset indices, with a bounded attempt budget so
  // a fully-poisoned network still terminates.
  {
    std::int64_t index = 0;
    int remaining = cfg_.profile_images;
    int attempts_left = 4 * (cfg_.profile_images / std::max(1, std::min(cfg_.profile_images, cfg_.batch)) + 1);
    while (remaining > 0 && attempts_left-- > 0) {
      const int n = std::min(remaining, cfg_.batch);
      Batch b;
      b.images = dataset.make_batch(index, n);
      b.acts = net.forward_all(b.images);
      forward_count_ += n;
      index += n;
      if (cfg_.quarantine_nonfinite && !acts_all_finite(b.acts)) {
        ++quarantined_profile_;
        diag_report(diag, DiagSeverity::kWarning, PipelineStage::kHarness, -1,
                    "profiling batch at dataset index " + std::to_string(index - n) +
                        " produced non-finite activations",
                    "batch quarantined; replacement drawn");
        continue;
      }
      const Tensor& logits = b.acts[static_cast<std::size_t>(net.output_node())];
      b.reference = argmax_rows(logits);
      // Range profiling on the same batch.
      for (std::size_t k = 0; k < analyzed_.size(); ++k) {
        const int in_node = net.node(analyzed_[k]).inputs[0];
        ranges_[k] = std::max(ranges_[k],
                              static_cast<double>(b.acts[static_cast<std::size_t>(in_node)].max_abs()));
      }
      profile_batches_.push_back(std::move(b));
      remaining -= n;
    }
    if (profile_batches_.empty()) {
      diag_report(diag, DiagSeverity::kError, PipelineStage::kHarness, -1,
                  "no usable profiling batch: every forward pass produced non-finite "
                  "activations",
                  "sigma measurements disabled; downstream stages degrade to max precision");
    }
  }

  // --- evaluation set ------------------------------------------------------
  // Only each batch's float logits are kept: Scheme 2 reads nothing else,
  // and an activation cache per eval batch would dominate the harness's
  // memory.
  {
    // Disjoint from the profiling images.
    std::int64_t index = cfg_.eval_start_index;
    int remaining = cfg_.eval_images;
    int attempts_left = 4 * (cfg_.eval_images / std::max(1, std::min(cfg_.eval_images, cfg_.batch)) + 1);
    std::int64_t float_hits = 0;
    std::int64_t images_used = 0;
    while (remaining > 0 && attempts_left-- > 0) {
      const int n = std::min(remaining, cfg_.batch);
      Batch b;
      b.images = dataset.make_batch(index, n);
      b.logits = net.forward(b.images);
      forward_count_ += n;
      const Tensor& logits = b.logits;
      if (cfg_.quarantine_nonfinite && !logits.all_finite()) {
        ++quarantined_eval_;
        diag_report(diag, DiagSeverity::kWarning, PipelineStage::kHarness, -1,
                    "eval batch at dataset index " + std::to_string(index) +
                        " produced non-finite logits",
                    "batch quarantined; replacement drawn");
        index += n;
        continue;
      }
      const std::vector<int> float_pred = argmax_rows(logits);
      if (cfg_.metric == AccuracyMetric::kLabels) {
        b.reference = dataset.labels(index, n);
        for (int i = 0; i < n; ++i)
          if (float_pred[static_cast<std::size_t>(i)] == b.reference[static_cast<std::size_t>(i)])
            ++float_hits;
      } else {
        b.reference = float_pred;
        float_hits += n;
      }
      eval_batches_.push_back(std::move(b));
      images_used += n;
      index += n;
      remaining -= n;
    }
    // 0.0 (not 1.0) when nothing could be measured: a threshold derived
    // from it must not pretend the float network was evaluated.
    float_accuracy_ = images_used > 0 ? static_cast<double>(float_hits) /
                                            static_cast<double>(images_used)
                                      : 0.0;
    if (eval_batches_.empty()) {
      diag_report(diag, DiagSeverity::kError, PipelineStage::kHarness, -1,
                  "no usable eval batch: every forward pass produced non-finite logits",
                  "accuracy measurements disabled; sigma search will report bracket failure");
    }
  }
  span.arg("profile_batches", profile_batch_count());
  span.arg("eval_batches", eval_batch_count());
  span.arg("forwards", forward_count());
}

std::uint64_t AnalysisHarness::rep_seed(int rep) const {
  std::uint64_t s = cfg_.noise_seed + 0x51eb851eb851eb85ULL * static_cast<std::uint64_t>(rep + 1);
  return splitmix64(s);
}

double AnalysisHarness::output_sigma_for_injection(int node, double delta, int rep) const {
  std::unordered_map<int, InjectionSpec> inject;
  inject.emplace(node, InjectionSpec::uniform(delta));
  return output_sigma_for_injection_map(inject, rep);
}

double AnalysisHarness::output_sigma_for_injection_map(
    const std::unordered_map<int, InjectionSpec>& inject, int rep) const {
  RunningStats rs;
  ForwardOptions opts;
  opts.inject = &inject;
  opts.seed = rep_seed(rep);
  const int out_node = net_->output_node();

  // Single-node injections re-execute only the downstream sub-DAG.
  const bool single = inject.size() == 1;
  const int from = single ? inject.begin()->first : 0;

  for (const Batch& b : profile_batches_) {
    Tensor hat = single ? net_->forward_from(from, b.acts, opts) : net_->forward(b.images, opts);
    forward_count_ += b.images.shape().n();
    const Tensor& exact = b.acts[static_cast<std::size_t>(out_node)];
    assert(hat.same_shape(exact));
    for (std::int64_t i = 0; i < hat.numel(); ++i)
      rs.add(static_cast<double>(hat[i]) - exact[i]);
  }
  return rs.stddev();
}

double AnalysisHarness::output_sigma_recompute_from(int node) const {
  RunningStats rs;
  const int out_node = net_->output_node();
  for (const Batch& b : profile_batches_) {
    Tensor hat = net_->forward_from(node, b.acts);
    forward_count_ += b.images.shape().n();
    const Tensor& exact = b.acts[static_cast<std::size_t>(out_node)];
    for (std::int64_t i = 0; i < hat.numel(); ++i)
      rs.add(static_cast<double>(hat[i]) - exact[i]);
  }
  return rs.stddev();
}

std::vector<float> AnalysisHarness::output_errors_for_injection(
    const std::unordered_map<int, InjectionSpec>& inject, int rep) const {
  std::vector<float> errors;
  ForwardOptions opts;
  opts.inject = &inject;
  opts.seed = rep_seed(rep);
  const int out_node = net_->output_node();
  for (const Batch& b : profile_batches_) {
    Tensor hat = net_->forward(b.images, opts);
    forward_count_ += b.images.shape().n();
    const Tensor& exact = b.acts[static_cast<std::size_t>(out_node)];
    for (std::int64_t i = 0; i < hat.numel(); ++i)
      errors.push_back(hat[i] - exact[i]);
  }
  return errors;
}

double AnalysisHarness::accuracy_with_injection(
    const std::unordered_map<int, InjectionSpec>& inject, int rep) const {
  ForwardOptions opts;
  opts.inject = &inject;
  opts.seed = rep_seed(rep);
  std::int64_t hits = 0, total = 0;
  for (const Batch& b : eval_batches_) {
    Tensor logits = net_->forward(b.images, opts);
    forward_count_ += b.images.shape().n();
    const int n = logits.shape().dim(0);
    for (int i = 0; i < n; ++i)
      if (logits.argmax_row(i) == b.reference[static_cast<std::size_t>(i)]) ++hits;
    total += n;
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
}

double AnalysisHarness::accuracy_full_forward(
    const std::unordered_map<int, InjectionSpec>& inject, int rep) const {
  return accuracy_with_injection(inject, rep);
}

double AnalysisHarness::accuracy_with_executor(
    const std::function<Tensor(const Tensor&)>& forward_fn) const {
  std::int64_t hits = 0, total = 0;
  for (const Batch& b : eval_batches_) {
    Tensor logits = forward_fn(b.images);
    forward_count_ += b.images.shape().n();
    const int n = logits.shape().dim(0);
    for (int i = 0; i < n; ++i)
      if (logits.argmax_row(i) == b.reference[static_cast<std::size_t>(i)]) ++hits;
    total += n;
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
}

double AnalysisHarness::accuracy_with_output_gaussian(double sigma, int rep) const {
  Rng rng(rep_seed(rep) ^ 0xfeedface12345678ULL);
  std::int64_t hits = 0, total = 0;
  for (const Batch& b : eval_batches_) {
    Tensor noisy = b.logits;
    for (std::int64_t i = 0; i < noisy.numel(); ++i)
      noisy[i] += static_cast<float>(rng.gaussian(0.0, sigma));
    const int n = noisy.shape().dim(0);
    for (int i = 0; i < n; ++i)
      if (noisy.argmax_row(i) == b.reference[static_cast<std::size_t>(i)]) ++hits;
    total += n;
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
}

std::vector<double> AnalysisHarness::accuracy_single_injections(
    const std::vector<std::pair<int, InjectionSpec>>& candidates) const {
  std::vector<std::int64_t> hits(candidates.size(), 0);
  std::int64_t total = 0;

  for (const Batch& b : eval_batches_) {
    // The eval set keeps no activation cache; rebuild this batch's once
    // and share it across all candidates.
    const std::vector<Tensor> acts = net_->forward_all(b.images);
    forward_count_ += b.images.shape().n();
    const int n = b.images.shape().n();
    total += n;
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      std::unordered_map<int, InjectionSpec> inject;
      inject.emplace(candidates[ci].first, candidates[ci].second);
      ForwardOptions opts;
      opts.inject = &inject;
      opts.seed = rep_seed(0);
      Tensor logits = net_->forward_from(candidates[ci].first, acts, opts);
      forward_count_ += n;
      for (int i = 0; i < n; ++i)
        if (logits.argmax_row(i) == b.reference[static_cast<std::size_t>(i)]) ++hits[ci];
    }
  }

  std::vector<double> acc(candidates.size(), 0.0);
  for (std::size_t i = 0; i < candidates.size(); ++i)
    acc[i] = total > 0 ? static_cast<double>(hits[i]) / static_cast<double>(total) : 0.0;
  return acc;
}

}  // namespace mupod
