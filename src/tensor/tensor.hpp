// Dense float tensor with NCHW layout and the small set of numeric
// utilities the inference engine and the precision-analysis passes need.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tensor/shape.hpp"

namespace mupod {

// A dense row-major float tensor. Value-semantic: copies copy the buffer.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(const Shape& shape, float fill = 0.0f);

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  // NCHW element access (rank-4 tensors).
  float& at(int n, int c, int h, int w);
  float at(int n, int c, int h, int w) const;

  // Flat NCHW index.
  std::int64_t index(int n, int c, int h, int w) const;

  void fill(float v);
  // Reinterpret the buffer with a new shape of identical numel.
  void reshape(const Shape& s);
  // Give the tensor shape `s` of any numel, keeping the buffer: no
  // reallocation when `s` fits the capacity the tensor has had. Contents
  // are unspecified afterwards; for output buffers the caller overwrites.
  void resize(const Shape& s);

  // Elementwise in-place transforms.
  void apply(const std::function<float(float)>& f);
  Tensor& operator+=(const Tensor& o);
  Tensor& operator-=(const Tensor& o);
  Tensor& operator*=(float s);

  // Reductions.
  // True when every element is finite (no NaN/Inf) — the poisoned-
  // activation check of the pipeline's measurement path.
  bool all_finite() const;
  float max_abs() const;
  float min() const;
  float max() const;
  double sum() const;
  double mean() const;
  // Population standard deviation over all elements.
  double stddev() const;

  // Index of the maximum element within channel-of-batch row `n` for a
  // rank-2 (N, C) tensor — the classifier argmax.
  int argmax_row(int n) const;

  bool same_shape(const Tensor& o) const { return shape_ == o.shape_; }

 private:
  Shape shape_;
  std::vector<float> data_;
};

// The engine's ReLU: exactly `x > 0.0f ? x : 0.0f`, so negatives, -0.0 and
// NaN all give +0.0. Written as a mask of the comparison result because
// compilers turn the ternary into a compare-and-branch that mispredicts on
// random-sign activations; the mask form is branch-free and vectorizes.
inline float relu_exact(float x) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) &
                              -static_cast<std::uint32_t>(x > 0.0f));
}

// out = a - b (shapes must match).
Tensor subtract(const Tensor& a, const Tensor& b);

// Maximum absolute elementwise difference.
double max_abs_diff(const Tensor& a, const Tensor& b);

// Population s.d. of (a - b) over all elements, without materializing the
// difference tensor. This is the sigma_{Y_{K->L}} measurement primitive.
double stddev_of_diff(const Tensor& a, const Tensor& b);

}  // namespace mupod
