// Concrete layer implementations: the operator set required by the eight
// CNN topologies of the paper's evaluation (AlexNet, NiN, GoogleNet,
// VGG-19, ResNet-50/152, SqueezeNet, MobileNet).
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace mupod {

// Store epilogues of the dot-product layers (tensor/qgemm.hpp). The
// compiled executor (compile/compiled_network.hpp) passes them to the
// explicit entry points below; the virtual forward runs the float path
// with no fusion.
struct QLayerBinding;
struct FloatFusion;

// ---------------------------------------------------------------------------
// Input placeholder. Holds the per-image (C, H, W) shape.
class InputLayer final : public Layer {
 public:
  InputLayer(int c, int h, int w) : c_(c), h_(h), w_(w) {}
  LayerKind kind() const override { return LayerKind::kInput; }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;
  int channels() const { return c_; }
  int height() const { return h_; }
  int width() const { return w_; }

 private:
  int c_, h_, w_;
};

// ---------------------------------------------------------------------------
// 2-D convolution, NCHW activations, OIHW weights, optional groups
// (groups == in_channels gives a depthwise convolution, as in MobileNet).
class Conv2DLayer final : public Layer {
 public:
  struct Config {
    int in_channels = 0;
    int out_channels = 0;
    int kernel_h = 3;
    int kernel_w = 3;
    int stride = 1;
    int pad = 0;
    int groups = 1;
    bool has_bias = true;
  };

  explicit Conv2DLayer(const Config& cfg);

  LayerKind kind() const override { return LayerKind::kConv; }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;
  bool analyzable() const override { return true; }
  LayerCost cost(std::span<const Shape> in) const override;

  const Tensor* weights() const override { return &weights_; }
  Tensor* mutable_weights() override { return &weights_; }
  const Tensor* bias() const override { return cfg_.has_bias ? &bias_ : nullptr; }
  Tensor* mutable_bias() override { return cfg_.has_bias ? &bias_ : nullptr; }

  const Config& config() const { return cfg_; }

  // Float forward with the fused store epilogue `fu` (folded norm affine,
  // then ReLU), bitwise identical to running those layers separately.
  void forward(const FloatFusion& fu, const Tensor& x, Tensor& out) const;
  // Integer forward on the lowered operands and store epilogue in `q`.
  void forward_integer(const QLayerBinding& q, const Tensor& x, Tensor& out) const;

 private:
  Config cfg_;
  Tensor weights_;  // (out_c, in_c/groups, kh, kw)
  Tensor bias_;     // (out_c) stored as rank-1
};

// ---------------------------------------------------------------------------
// Fully connected layer. Flattens each image of a rank-4 input.
class InnerProductLayer final : public Layer {
 public:
  InnerProductLayer(int in_features, int out_features, bool has_bias = true);

  LayerKind kind() const override { return LayerKind::kInnerProduct; }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;
  bool analyzable() const override { return true; }
  LayerCost cost(std::span<const Shape> in) const override;

  const Tensor* weights() const override { return &weights_; }
  Tensor* mutable_weights() override { return &weights_; }
  const Tensor* bias() const override { return has_bias_ ? &bias_ : nullptr; }
  Tensor* mutable_bias() override { return has_bias_ ? &bias_ : nullptr; }

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

  // Float forward with a fused ReLU store (`fu.relu`; a norm never
  // follows an inner product).
  void forward(const FloatFusion& fu, const Tensor& x, Tensor& out) const;
  // Integer forward on the lowered operands and store epilogue in `q`.
  void forward_integer(const QLayerBinding& q, const Tensor& x, Tensor& out) const;

 private:
  int in_features_, out_features_;
  bool has_bias_;
  Tensor weights_;  // (out, in)
  Tensor bias_;     // (out)
};

// ---------------------------------------------------------------------------
class ReLULayer final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kReLU; }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;
};

// ---------------------------------------------------------------------------
// Max / average pooling. `global` pools each channel plane to 1x1.
class PoolLayer final : public Layer {
 public:
  enum class Mode { kMax, kAvg };
  struct Config {
    Mode mode = Mode::kMax;
    int kernel = 2;
    int stride = 2;
    int pad = 0;
    bool global = false;
    // Caffe-style ceil-mode output sizing (AlexNet/GoogleNet use it).
    bool ceil_mode = true;
  };

  explicit PoolLayer(const Config& cfg) : cfg_(cfg) {}
  LayerKind kind() const override {
    return cfg_.mode == Mode::kMax ? LayerKind::kMaxPool : LayerKind::kAvgPool;
  }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;
  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
};

// ---------------------------------------------------------------------------
// Inference-mode batch norm folded with the scale layer:
// y[c] = x[c] * scale[c] + shift[c].
class BatchNormScaleLayer final : public Layer {
 public:
  explicit BatchNormScaleLayer(int channels);

  LayerKind kind() const override { return LayerKind::kBatchNormScale; }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;

  Tensor& scale() { return scale_; }
  Tensor& shift() { return shift_; }
  const Tensor& scale() const { return scale_; }
  const Tensor& shift() const { return shift_; }

 private:
  int channels_;
  Tensor scale_;  // (C)
  Tensor shift_;  // (C)
};

// ---------------------------------------------------------------------------
// Elementwise sum of all inputs (ResNet shortcut joins).
class EltwiseAddLayer final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kEltwiseAdd; }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;
};

// ---------------------------------------------------------------------------
// Channel-axis concatenation (GoogleNet inception joins, SqueezeNet fire).
class ConcatLayer final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kConcat; }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;
};

// ---------------------------------------------------------------------------
// Local response normalization across channels (AlexNet, GoogleNet).
class LRNLayer final : public Layer {
 public:
  struct Config {
    int local_size = 5;
    float alpha = 1e-4f;
    float beta = 0.75f;
    float k = 1.0f;
  };
  explicit LRNLayer(const Config& cfg) : cfg_(cfg) {}
  LayerKind kind() const override { return LayerKind::kLRN; }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;
  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
};

// ---------------------------------------------------------------------------
// Softmax over the class axis of an (N, C) or (N, C, 1, 1) tensor.
class SoftmaxLayer final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kSoftmax; }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;
};

// ---------------------------------------------------------------------------
// Reshape (N, C, H, W) -> (N, C*H*W).
class FlattenLayer final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kFlatten; }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;
};

// ---------------------------------------------------------------------------
// Inference-mode dropout: identity (kept so Caffe-style net definitions
// round-trip through the netdef parser).
class DropoutLayer final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kDropout; }
  Shape output_shape(std::span<const Shape> in) const override;
  void forward(std::span<const Tensor* const> in, Tensor& out) const override;
};

}  // namespace mupod
