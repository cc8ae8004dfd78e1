// Integer lowering of one layer: the operand math the graph compiler
// (compile/) applies to every plan-covered weight-bearing layer.
//
// The analysis pipeline only EMULATES fixed-point formats: the kQuantize
// injection rounds a layer's input onto the I.F grid and then keeps
// computing in fp32. Lowering closes the gap to a real edge deployment:
// for a layer covered by the plan it
//
//   * quantizes the weights offline onto a W.I.F grid derived exactly as
//     Network::quantize_weights_uniform does (I from max|w|, F =
//     weight_bits - I), stored at the narrowest integer width that holds
//     both operand grids (int8 / int16 / int32);
//   * converts the bias to accumulator scale (bias / (step_a * step_w),
//     rounded once, held in int64);
//
// and the compiled program then quantizes the layer's input activations
// onto the PLAN's I.F format at run time (saturating, counted), runs the
// dot products in integer arithmetic, and dequantizes (or, inside a
// fused region, requantizes) on store.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/network.hpp"
#include "quant/fixed_point.hpp"
#include "tensor/qgemm.hpp"

namespace mupod {

// Integer grid of a fixed-point format: values q with q * step ==
// representable value, q in [-2^(B-1), 2^(B-1)-1]. Bit-compatible with
// quantize_tensor's value clamp [min_value, max_value] because step is a
// power of two (see quantize_to's contract in tensor/qgemm.hpp).
struct QGrid {
  double step = 1.0;
  std::int32_t lo = -1;
  std::int32_t hi = 0;
};
QGrid qgrid_for(const FixedPointFormat& fmt);

// One lowered layer: the integer operands for node `node` of the source
// network plus the formats they were derived from.
struct QLayerLowering {
  int node = -1;
  FixedPointFormat act_fmt;  // the plan's activation format for this layer
  FixedPointFormat w_fmt;    // derived weight format (I from max|w|)
  QType type = QType::kInt16;

  // Quantized weights in the layer's native row layout; exactly one of
  // these is populated, matching `type`.
  std::vector<std::int8_t> w8;
  std::vector<std::int16_t> w16;
  std::vector<std::int32_t> w32;
  std::vector<std::int64_t> bias;  // accumulator scale; empty if no bias

  std::int64_t weight_saturated = 0;  // weights clipped during lowering

  const void* weights_ptr() const;
};

// Lowers one layer's operands onto the plan's `act_fmt` x a weight grid
// derived from max |w| at `weight_bits` total bits. `w`/`b` are normally
// the layer's own tensors; the compiler passes norm-folded copies where
// fold-norm fired (b may be null for a bias-free layer). Returns false —
// leaving *out* untouched — when `w` is null or empty (the layer stays
// float).
bool lower_layer_operands(int node, FixedPointFormat act_fmt, int weight_bits,
                          const Tensor* w, const Tensor* b, QLayerLowering* out);

}  // namespace mupod
