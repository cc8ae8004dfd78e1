// Weight bitwidth search (paper Sec. V-E): with the optimized input
// bitwidths in place, find the smallest uniform weight bitwidth that still
// satisfies the accuracy constraint — the same post-pass Stripes/Loom
// apply after reducing activation precision.
#pragma once

#include <unordered_map>

#include "core/harness.hpp"
#include "nn/network.hpp"

namespace mupod {

struct WeightSearchConfig {
  int min_bits = 2;
  int max_bits = 16;
  double relative_accuracy_drop = 0.01;
};

struct WeightSearchResult {
  int bits = 16;           // smallest satisfying uniform weight bitwidth
  double accuracy = 0.0;   // accuracy at that bitwidth (with input_inject applied)
  int evaluations = 0;
};

// `net` must be the same network the harness was built on; its weights are
// temporarily quantized per trial and restored before returning.
WeightSearchResult search_weight_bitwidth(
    Network& net, const AnalysisHarness& harness,
    const std::unordered_map<int, InjectionSpec>& input_inject,
    const WeightSearchConfig& cfg = {});

}  // namespace mupod
