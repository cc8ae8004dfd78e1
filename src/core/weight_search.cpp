#include "core/weight_search.hpp"

#include <cassert>

namespace mupod {

WeightSearchResult search_weight_bitwidth(
    Network& net, const AnalysisHarness& harness,
    const std::unordered_map<int, InjectionSpec>& input_inject,
    const WeightSearchConfig& cfg) {
  assert(&net == &harness.net());
  assert(cfg.min_bits >= 1 && cfg.max_bits >= cfg.min_bits);
  const double threshold = (1.0 - cfg.relative_accuracy_drop) * harness.float_accuracy();

  WeightSearchResult res;
  const Network::WeightSnapshot snap = net.snapshot_weights();

  const auto accuracy_at = [&](int bits) {
    net.quantize_weights_uniform(bits);
    const double acc = harness.accuracy_full_forward(input_inject);
    net.restore_weights(snap);
    ++res.evaluations;
    return acc;
  };

  // Binary search for the smallest satisfying bitwidth (accuracy is
  // monotone non-decreasing in the weight bitwidth).
  int lo = cfg.min_bits, hi = cfg.max_bits;
  double best_acc = accuracy_at(hi);
  if (best_acc < threshold) {
    // Even the widest format fails (input quantization already too harsh):
    // report the widest with its accuracy.
    res.bits = hi;
    res.accuracy = best_acc;
    return res;
  }
  int best = hi;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    const double acc = accuracy_at(mid);
    if (acc >= threshold) {
      best = mid;
      best_acc = acc;
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  res.bits = best;
  res.accuracy = best_acc;
  return res;
}

}  // namespace mupod
