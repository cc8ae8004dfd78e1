#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/layers.hpp"

namespace mupod {

// ---------------------------------------------------------------------------
// ReLU

Shape ReLULayer::output_shape(std::span<const Shape> in) const {
  assert(in.size() == 1);
  return in[0];
}

void ReLULayer::forward(std::span<const Tensor* const> in, Tensor& out) const {
  const Tensor& x = *in[0];
  const std::int64_t n = x.numel();
  const float* p = x.data();
  float* q = out.data();
  for (std::int64_t i = 0; i < n; ++i) q[i] = relu_exact(p[i]);
}

// ---------------------------------------------------------------------------
// Softmax

Shape SoftmaxLayer::output_shape(std::span<const Shape> in) const {
  assert(in.size() == 1);
  return in[0];
}

void SoftmaxLayer::forward(std::span<const Tensor* const> in, Tensor& out) const {
  const Tensor& x = *in[0];
  const int N = x.shape().dim(0);
  const std::int64_t row = x.numel() / N;
  for (int n = 0; n < N; ++n) {
    const float* p = x.data() + n * row;
    float* q = out.data() + n * row;
    float mx = p[0];
    for (std::int64_t i = 1; i < row; ++i) mx = std::max(mx, p[i]);
    double sum = 0.0;
    for (std::int64_t i = 0; i < row; ++i) {
      q[i] = std::exp(p[i] - mx);
      sum += q[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t i = 0; i < row; ++i) q[i] *= inv;
  }
}

// ---------------------------------------------------------------------------
// Flatten

Shape FlattenLayer::output_shape(std::span<const Shape> in) const {
  assert(in.size() == 1);
  const Shape& s = in[0];
  return Shape({s.dim(0), static_cast<int>(s.numel() / s.dim(0))});
}

void FlattenLayer::forward(std::span<const Tensor* const> in, Tensor& out) const {
  out = *in[0];
  const Shape shapes[1] = {in[0]->shape()};
  out.reshape(output_shape(shapes));
}

// ---------------------------------------------------------------------------
// Dropout (inference: identity)

Shape DropoutLayer::output_shape(std::span<const Shape> in) const {
  assert(in.size() == 1);
  return in[0];
}

void DropoutLayer::forward(std::span<const Tensor* const> in, Tensor& out) const {
  out = *in[0];
}

}  // namespace mupod
