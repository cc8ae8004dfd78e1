#include "tensor/tensor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mupod {

Tensor::Tensor(const Shape& shape, float fill)
    : shape_(shape),
      data_(static_cast<std::size_t>(std::max<std::int64_t>(shape.numel(), 0)), fill) {}

std::int64_t Tensor::index(int n, int c, int h, int w) const {
  assert(shape_.rank() == 4);
  assert(n >= 0 && n < shape_.n() && c >= 0 && c < shape_.c());
  assert(h >= 0 && h < shape_.h() && w >= 0 && w < shape_.w());
  return ((static_cast<std::int64_t>(n) * shape_.c() + c) * shape_.h() + h) * shape_.w() + w;
}

float& Tensor::at(int n, int c, int h, int w) { return data_[static_cast<std::size_t>(index(n, c, h, w))]; }
float Tensor::at(int n, int c, int h, int w) const { return data_[static_cast<std::size_t>(index(n, c, h, w))]; }

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::reshape(const Shape& s) {
  assert(s.numel() == shape_.numel());
  shape_ = s;
}

void Tensor::resize(const Shape& s) {
  shape_ = s;
  data_.resize(static_cast<std::size_t>(std::max<std::int64_t>(s.numel(), 0)));
}

void Tensor::apply(const std::function<float(float)>& f) {
  for (float& v : data_) v = f(v);
}

Tensor& Tensor::operator+=(const Tensor& o) {
  assert(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& o) {
  assert(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

bool Tensor::all_finite() const {
  for (float v : data_)
    if (!std::isfinite(v)) return false;
  return true;
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

float Tensor::min() const {
  float m = data_.empty() ? 0.0f : data_[0];
  for (float v : data_) m = std::min(m, v);
  return m;
}

float Tensor::max() const {
  float m = data_.empty() ? 0.0f : data_[0];
  for (float v : data_) m = std::max(m, v);
  return m;
}

double Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return s;
}

double Tensor::mean() const { return data_.empty() ? 0.0 : sum() / static_cast<double>(data_.size()); }

double Tensor::stddev() const {
  if (data_.empty()) return 0.0;
  const double mu = mean();
  double acc = 0.0;
  for (float v : data_) {
    const double d = v - mu;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(data_.size()));
}

int Tensor::argmax_row(int n) const {
  assert(shape_.rank() >= 2);
  std::int64_t row = shape_.numel() / shape_.dim(0);
  const float* p = data_.data() + static_cast<std::int64_t>(n) * row;
  int best = 0;
  float bv = p[0];
  for (std::int64_t i = 1; i < row; ++i) {
    if (p[i] > bv) {
      bv = p[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

Tensor subtract(const Tensor& a, const Tensor& b) {
  assert(a.same_shape(b));
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) out[i] = a[i] - b[i];
  return out;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  assert(a.same_shape(b));
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) m = std::max(m, static_cast<double>(std::fabs(a[i] - b[i])));
  return m;
}

double stddev_of_diff(const Tensor& a, const Tensor& b) {
  assert(a.same_shape(b));
  const std::int64_t n = a.numel();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) sum += static_cast<double>(a[i]) - b[i];
  const double mu = sum / static_cast<double>(n);
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = (static_cast<double>(a[i]) - b[i]) - mu;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(n));
}

}  // namespace mupod
