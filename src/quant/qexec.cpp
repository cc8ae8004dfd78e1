#include "quant/qexec.hpp"

#include <algorithm>
#include <cmath>

namespace mupod {

QGrid qgrid_for(const FixedPointFormat& fmt) {
  const int bits = std::clamp(fmt.total_bits(), 1, 31);
  QGrid g;
  g.step = fmt.step();
  g.lo = -(std::int32_t{1} << (bits - 1));
  g.hi = (std::int32_t{1} << (bits - 1)) - 1;
  return g;
}

namespace {

void* storage_for(QLayerLowering& L, std::size_t numel) {
  switch (L.type) {
    case QType::kInt8: L.w8.resize(numel); return L.w8.data();
    case QType::kInt16: L.w16.resize(numel); return L.w16.data();
    case QType::kInt32: L.w32.resize(numel); return L.w32.data();
  }
  return nullptr;
}

}  // namespace

const void* QLayerLowering::weights_ptr() const {
  switch (type) {
    case QType::kInt8: return w8.data();
    case QType::kInt16: return w16.data();
    case QType::kInt32: return w32.data();
  }
  return nullptr;
}

bool lower_layer_operands(int node, FixedPointFormat act_fmt, int weight_bits,
                          const Tensor* w, const Tensor* b, QLayerLowering* out) {
  if (w == nullptr || w->numel() == 0) return false;  // no weights: stays float

  QLayerLowering L;
  L.node = node;
  L.act_fmt = act_fmt;

  // Weight format mirrors Network::quantize_weights_uniform: I from the
  // layer's max |w|, F = weight_bits - I.
  double wmax = 0.0;
  const float* wd = w->data();
  for (std::int64_t j = 0; j < w->numel(); ++j) wmax = std::max(wmax, std::abs(double{wd[j]}));
  L.w_fmt.integer_bits = FixedPointFormat::integer_bits_for_range(wmax);
  L.w_fmt.fraction_bits = weight_bits - L.w_fmt.integer_bits;

  // Narrowest homogeneous storage holding BOTH operand grids.
  L.type = qtype_for_bits(std::max(L.act_fmt.total_bits(), L.w_fmt.total_bits()));

  const QGrid wg = qgrid_for(L.w_fmt);
  void* wq = storage_for(L, static_cast<std::size_t>(w->numel()));
  L.weight_saturated = quantize_to(L.type, wd, w->numel(), wg.step, wg.lo, wg.hi, wq);

  // Bias in accumulator scale, rounded once offline.
  if (b != nullptr && b->numel() > 0) {
    const QGrid ag = qgrid_for(L.act_fmt);
    const double acc_scale = ag.step * wg.step;
    L.bias.resize(static_cast<std::size_t>(b->numel()));
    const float* bd = b->data();
    for (std::int64_t j = 0; j < b->numel(); ++j)
      L.bias[static_cast<std::size_t>(j)] = std::llrint(double{bd[j]} / acc_scale);
  }

  *out = std::move(L);
  return true;
}

}  // namespace mupod
