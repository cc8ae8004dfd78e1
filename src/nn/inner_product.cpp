#include <algorithm>
#include <cassert>

#include "nn/layers.hpp"
#include "tensor/gemm.hpp"
#include "tensor/qgemm.hpp"

namespace mupod {

InnerProductLayer::InnerProductLayer(int in_features, int out_features, bool has_bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(has_bias),
      weights_(Shape({out_features, in_features})),
      bias_(Shape({out_features})) {
  assert(in_features > 0 && out_features > 0);
}

Shape InnerProductLayer::output_shape(std::span<const Shape> in) const {
  assert(in.size() == 1);
  const Shape& s = in[0];
  assert(s.rank() >= 2);
  assert(s.numel() / s.dim(0) == in_features_);
  return Shape({s.dim(0), out_features_});
}

// Integer inner product: quantize-on-load, one qgemm over the batch in
// the same orientation as the float path, the step's store epilogue. The
// N==1 transposed product puts the bias per output row; the batched
// product puts it per output column.
void InnerProductLayer::forward_integer(const QLayerBinding& q, const Tensor& x,
                                        Tensor& out) const {
  const int N = x.shape().dim(0);
  const int in_f = in_features_, out_f = out_features_;
  const void* xq = quantize_on_load(q, x);
  QGemmEpilogue ep = q.ep;
  if (N == 1) {
    ep.bias_row = q.bias;
    qgemm(q.type, out_f, 1, in_f, q.weights, in_f, xq, 1, out.data(), 1, ep);
  } else {
    // A is the quantized input here, bounded by its grid; the weights
    // are B, which qgemm scans.
    ep.bias_col = q.bias;
    ep.a_max = -static_cast<std::int64_t>(q.act_lo);
    qgemm(q.type, N, out_f, in_f, xq, in_f, q.weights, in_f, out.data(), out_f, ep,
          /*trans_b=*/true);
  }
}

void InnerProductLayer::forward(std::span<const Tensor* const> in, Tensor& out) const {
  forward(FloatFusion{}, *in[0], out);
}

void InnerProductLayer::forward(const FloatFusion& fu, const Tensor& x, Tensor& out) const {
  const int N = x.shape().dim(0);
  const float* xdata = x.data();
  const float* wdata = weights_.data();
  const float* bdata = has_bias_ ? bias_.data() : nullptr;
  float* ydata = out.data();
  const int in_f = in_features_, out_f = out_features_;

  // Seed the output with the bias (beta = 1 accumulates onto it), then one
  // blocked GEMM covers the whole batch.
  float beta = 0.0f;
  if (bdata != nullptr) {
    for (int n = 0; n < N; ++n)
      std::copy(bdata, bdata + out_f, ydata + static_cast<std::int64_t>(n) * out_f);
    beta = 1.0f;
  }
  if (N == 1) {
    // Single image: compute the transposed product y = W·x so the m
    // dimension (out_f) carries the register tiles — y (1 x out_f) and
    // yᵀ (out_f x 1) share the same memory.
    gemm(out_f, 1, in_f, wdata, in_f, xdata, 1, beta, ydata, 1,
         /*trans_b=*/false, /*relu=*/fu.relu);
  } else {
    // Y[N x out_f] = X[N x in_f] · Wᵀ; packing absorbs the transpose of
    // the (out, in) weight matrix.
    gemm(N, out_f, in_f, xdata, in_f, wdata, in_f, beta, ydata, out_f,
         /*trans_b=*/true, /*relu=*/fu.relu);
  }
}

LayerCost InnerProductLayer::cost(std::span<const Shape> in) const {
  LayerCost c;
  c.input_elems = in[0].numel() / in[0].dim(0);
  c.macs = static_cast<std::int64_t>(in_features_) * out_features_;
  return c;
}

}  // namespace mupod
