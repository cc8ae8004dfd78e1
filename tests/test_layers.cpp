#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

namespace mupod {
namespace {

Tensor run(const Layer& layer, const std::vector<const Tensor*>& in) {
  std::vector<Shape> shapes;
  for (const Tensor* t : in) shapes.push_back(t->shape());
  Tensor out(layer.output_shape(shapes));
  layer.forward(in, out);
  return out;
}

LayerCost cost_of(const Layer& layer, const Shape& in) {
  const Shape shapes[1] = {in};
  return layer.cost(shapes);
}

Shape out_shape_of(const Layer& layer, const Shape& in) {
  const Shape shapes[1] = {in};
  return layer.output_shape(shapes);
}

// ---------------------------------------------------------------------------
// Conv2D

TEST(Conv2D, IdentityKernel) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 1;
  cfg.kernel_h = cfg.kernel_w = 1;
  Conv2DLayer conv(cfg);
  conv.mutable_weights()->fill(1.0f);

  Tensor x(Shape({1, 1, 3, 3}));
  for (int i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  const Tensor y = run(conv, {&x});
  EXPECT_EQ(y.shape(), x.shape());
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(y[i], static_cast<float>(i));
}

TEST(Conv2D, SumKernelWithPadding) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 1;
  cfg.kernel_h = cfg.kernel_w = 3;
  cfg.pad = 1;
  Conv2DLayer conv(cfg);
  conv.mutable_weights()->fill(1.0f);

  Tensor x(Shape({1, 1, 3, 3}), 1.0f);
  const Tensor y = run(conv, {&x});
  // Center pixel sees all 9 ones; corners see 4.
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 6.0f);
}

TEST(Conv2D, Stride) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 1;
  cfg.kernel_h = cfg.kernel_w = 2;
  cfg.stride = 2;
  Conv2DLayer conv(cfg);
  conv.mutable_weights()->fill(0.25f);

  Tensor x(Shape({1, 1, 4, 4}));
  for (int i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  const Tensor y = run(conv, {&x});
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
  // Mean of {0,1,4,5} = 2.5
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 2.5f);
  // Mean of {10,11,14,15} = 12.5
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 12.5f);
}

TEST(Conv2D, Bias) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 2;
  cfg.kernel_h = cfg.kernel_w = 1;
  Conv2DLayer conv(cfg);
  conv.mutable_weights()->fill(0.0f);
  (*conv.mutable_bias())[0] = 1.5f;
  (*conv.mutable_bias())[1] = -2.0f;

  Tensor x(Shape({1, 1, 2, 2}), 7.0f);
  const Tensor y = run(conv, {&x});
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -2.0f);
}

TEST(Conv2D, MultiChannelAccumulation) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 1;
  cfg.kernel_h = cfg.kernel_w = 1;
  Conv2DLayer conv(cfg);
  // w = [1, 2, 3] over channels.
  for (int c = 0; c < 3; ++c) (*conv.mutable_weights())[c] = static_cast<float>(c + 1);

  Tensor x(Shape({1, 3, 1, 1}));
  x[0] = 10.0f;
  x[1] = 20.0f;
  x[2] = 30.0f;
  const Tensor y = run(conv, {&x});
  EXPECT_FLOAT_EQ(y[0], 10.0f + 40.0f + 90.0f);
}

TEST(Conv2D, GroupedIsBlockDiagonal) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 2;
  cfg.kernel_h = cfg.kernel_w = 1;
  cfg.groups = 2;
  Conv2DLayer conv(cfg);
  conv.mutable_weights()->fill(1.0f);  // each output sees only its own group

  Tensor x(Shape({1, 2, 1, 1}));
  x[0] = 3.0f;
  x[1] = 5.0f;
  const Tensor y = run(conv, {&x});
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 5.0f);
}

TEST(Conv2D, DepthwiseCost) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 8;
  cfg.kernel_h = cfg.kernel_w = 3;
  cfg.pad = 1;
  cfg.groups = 8;
  Conv2DLayer conv(cfg);
  const Shape in({1, 8, 4, 4});
  const LayerCost c = cost_of(conv, in);
  EXPECT_EQ(c.input_elems, 8 * 4 * 4);
  // 8 output channels * 16 positions * (1 in-channel-per-group * 9 taps).
  EXPECT_EQ(c.macs, 8 * 16 * 9);
}

TEST(Conv2D, CostMatchesFormula) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 10;
  cfg.kernel_h = cfg.kernel_w = 5;
  cfg.stride = 1;
  cfg.pad = 2;
  Conv2DLayer conv(cfg);
  const Shape in({1, 3, 16, 16});
  const LayerCost c = cost_of(conv, in);
  EXPECT_EQ(c.input_elems, 3 * 16 * 16);
  EXPECT_EQ(c.macs, 10LL * 16 * 16 * 3 * 5 * 5);
}

// ---------------------------------------------------------------------------
// InnerProduct

TEST(InnerProduct, MatVec) {
  InnerProductLayer fc(3, 2);
  // W = [[1,0,2],[0,1,0]], b = [0.5, -0.5]
  Tensor& w = *fc.mutable_weights();
  w[0] = 1.0f; w[1] = 0.0f; w[2] = 2.0f;
  w[3] = 0.0f; w[4] = 1.0f; w[5] = 0.0f;
  (*fc.mutable_bias())[0] = 0.5f;
  (*fc.mutable_bias())[1] = -0.5f;

  Tensor x(Shape({1, 3}));
  x[0] = 1.0f; x[1] = 2.0f; x[2] = 3.0f;
  const Tensor y = run(fc, {&x});
  EXPECT_FLOAT_EQ(y[0], 1.0f + 6.0f + 0.5f);
  EXPECT_FLOAT_EQ(y[1], 2.0f - 0.5f);
}

TEST(InnerProduct, FlattensRank4Input) {
  InnerProductLayer fc(4, 1);
  fc.mutable_weights()->fill(1.0f);
  Tensor x(Shape({2, 1, 2, 2}), 1.0f);
  const Tensor y = run(fc, {&x});
  EXPECT_EQ(y.shape(), Shape({2, 1}));
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[1], 4.0f);
}

TEST(InnerProduct, Cost) {
  InnerProductLayer fc(128, 10);
  const LayerCost c = cost_of(fc, Shape({1, 128}));
  EXPECT_EQ(c.input_elems, 128);
  EXPECT_EQ(c.macs, 1280);
}

// ---------------------------------------------------------------------------
// ReLU / Softmax / Flatten / Dropout

TEST(ReLU, ClampsNegatives) {
  ReLULayer relu;
  Tensor x(Shape({4}));
  x[0] = -1.0f; x[1] = 0.0f; x[2] = 2.0f; x[3] = -0.5f;
  const Tensor y = run(relu, {&x});
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

// The values where a rewritten comparison could differ from the reference
// expression: NaNs of both signs (and a payload), signed zeros, infinities,
// denormals, and the smallest normals.
std::vector<float> special_values() {
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float fmin = std::numeric_limits<float>::min();
  std::uint32_t payload_bits = 0x7fc01234u;
  float payload_nan;
  std::memcpy(&payload_nan, &payload_bits, sizeof payload_nan);
  return {qnan, -qnan, payload_nan, 0.0f, -0.0f, inf, -inf, tiny, -tiny, 3 * tiny, -3 * tiny,
          fmin / 2, -fmin / 2, fmin, -fmin, 1.5f, -1.5f, std::numeric_limits<float>::max(),
          std::numeric_limits<float>::lowest()};
}

bool same_bytes(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(ReLU, SpecialValuesMatchReferenceBytes) {
  const std::vector<float> sv = special_values();
  // Long enough for the vector body and a scalar tail of any width.
  Tensor x(Shape({67}));
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = sv[static_cast<std::size_t>(i) % sv.size()];
  const Tensor y = run(ReLULayer(), {&x});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float want = x[i] > 0.0f ? x[i] : 0.0f;
    EXPECT_TRUE(same_bytes(y[i], want)) << "element " << i << " input " << x[i];
    EXPECT_TRUE(same_bytes(relu_exact(x[i]), want)) << "input " << x[i];
  }
}

TEST(MaxPool, SpecialValuesMatchReferenceBytes) {
  const std::vector<float> sv = special_values();
  // Every window mixes specials in a different order; NaN-only and
  // signed-zero-only windows come from the repetition.
  Tensor x(Shape({2, 3, 7, 9}));
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = sv[static_cast<std::size_t>((i * 7 + i / 5) % static_cast<std::int64_t>(sv.size()))];
  for (const auto& [kernel, stride, pad, global] :
       {std::tuple{2, 2, 0, false}, std::tuple{3, 2, 1, false}, std::tuple{3, 1, 0, false},
        std::tuple{1, 1, 0, true}}) {
    PoolLayer::Config cfg;
    cfg.mode = PoolLayer::Mode::kMax;
    cfg.kernel = kernel;
    cfg.stride = stride;
    cfg.pad = pad;
    cfg.global = global;
    const PoolLayer pool(cfg);
    const Tensor y = run(pool, {&x});
    const int H = x.shape().h(), W = x.shape().w(), OH = y.shape().h(), OW = y.shape().w();
    for (int n = 0; n < 2; ++n)
      for (int c = 0; c < 3; ++c)
        for (int oh = 0; oh < OH; ++oh)
          for (int ow = 0; ow < OW; ++ow) {
            // Reference: std::max folded from -inf in row-major window order.
            const int h0 = global ? 0 : std::max(oh * stride - pad, 0);
            const int w0 = global ? 0 : std::max(ow * stride - pad, 0);
            const int h1 = global ? H : std::min(oh * stride - pad + kernel, H);
            const int w1 = global ? W : std::min(ow * stride - pad + kernel, W);
            float want = -std::numeric_limits<float>::infinity();
            for (int h = h0; h < h1; ++h)
              for (int w = w0; w < w1; ++w) want = std::max(want, x.at(n, c, h, w));
            EXPECT_TRUE(same_bytes(y.at(n, c, oh, ow), want))
                << "kernel " << kernel << " stride " << stride << " pad " << pad << " at (" << n
                << "," << c << "," << oh << "," << ow << ")";
          }
  }
}

TEST(Softmax, NormalizesRows) {
  SoftmaxLayer sm;
  Tensor x(Shape({2, 3}));
  x[0] = 1.0f; x[1] = 2.0f; x[2] = 3.0f;
  x[3] = 1000.0f; x[4] = 1000.0f; x[5] = 1000.0f;  // overflow-safety check
  const Tensor y = run(sm, {&x});
  double s0 = y[0] + y[1] + y[2];
  EXPECT_NEAR(s0, 1.0, 1e-6);
  EXPECT_GT(y[2], y[1]);
  EXPECT_NEAR(y[3], 1.0 / 3.0, 1e-6);
}

TEST(Flatten, CollapsesSpatialDims) {
  FlattenLayer fl;
  Tensor x(Shape({2, 3, 4, 5}));
  const Tensor y = run(fl, {&x});
  EXPECT_EQ(y.shape(), Shape({2, 60}));
}

TEST(Dropout, IdentityAtInference) {
  DropoutLayer d;
  Tensor x(Shape({8}), 3.0f);
  const Tensor y = run(d, {&x});
  for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(y[i], 3.0f);
}

// ---------------------------------------------------------------------------
// Pooling

TEST(MaxPool, PicksWindowMax) {
  PoolLayer::Config cfg;
  cfg.mode = PoolLayer::Mode::kMax;
  cfg.kernel = 2;
  cfg.stride = 2;
  cfg.ceil_mode = false;
  PoolLayer pool(cfg);
  Tensor x(Shape({1, 1, 2, 4}));
  x[0] = 1.0f; x[1] = 2.0f; x[2] = 5.0f; x[3] = 4.0f;
  x[4] = 0.0f; x[5] = -1.0f; x[6] = 6.0f; x[7] = 3.0f;
  const Tensor y = run(pool, {&x});
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 6.0f);
}

TEST(AvgPool, AveragesWindow) {
  PoolLayer::Config cfg;
  cfg.mode = PoolLayer::Mode::kAvg;
  cfg.kernel = 2;
  cfg.stride = 2;
  cfg.ceil_mode = false;
  PoolLayer pool(cfg);
  Tensor x(Shape({1, 1, 2, 2}));
  x[0] = 1.0f; x[1] = 2.0f; x[2] = 3.0f; x[3] = 6.0f;
  const Tensor y = run(pool, {&x});
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(Pool, CeilModeAddsPartialWindow) {
  PoolLayer::Config cfg;
  cfg.mode = PoolLayer::Mode::kMax;
  cfg.kernel = 3;
  cfg.stride = 2;
  cfg.ceil_mode = true;
  PoolLayer pool(cfg);
  // Caffe-style: (5 - 3)/2 ceil + 1 = 2.
  EXPECT_EQ(out_shape_of(pool, Shape({1, 1, 5, 5})), Shape({1, 1, 2, 2}));
  cfg.ceil_mode = false;
  PoolLayer floor_pool(cfg);
  EXPECT_EQ(out_shape_of(floor_pool, Shape({1, 1, 5, 5})), Shape({1, 1, 2, 2}));
  // Difference shows at 6: ceil (6-3)/2+1 = 2.5 -> 3, floor -> 2.
  EXPECT_EQ(out_shape_of(pool, Shape({1, 1, 6, 6})), Shape({1, 1, 3, 3}));
  EXPECT_EQ(out_shape_of(floor_pool, Shape({1, 1, 6, 6})), Shape({1, 1, 2, 2}));
}

TEST(GlobalAvgPool, PoolsPlaneToOne) {
  PoolLayer::Config cfg;
  cfg.mode = PoolLayer::Mode::kAvg;
  cfg.global = true;
  PoolLayer pool(cfg);
  Tensor x(Shape({1, 2, 2, 2}));
  for (int i = 0; i < 4; ++i) x[i] = 1.0f;       // channel 0: all 1
  for (int i = 4; i < 8; ++i) x[i] = static_cast<float>(i);  // 4,5,6,7
  const Tensor y = run(pool, {&x});
  EXPECT_EQ(y.shape(), Shape({1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 5.5f);
}

TEST(MaxPool, ErrorPreservation) {
  // Paper Sec. III-C: max pooling passes a sub-sample of the input error,
  // so an input perturbed by +eps everywhere shifts the output by +eps.
  PoolLayer::Config cfg;
  cfg.mode = PoolLayer::Mode::kMax;
  cfg.kernel = 2;
  cfg.stride = 2;
  cfg.ceil_mode = false;
  PoolLayer pool(cfg);
  Tensor x(Shape({1, 1, 4, 4}));
  for (int i = 0; i < 16; ++i) x[i] = static_cast<float>(i % 5);
  Tensor xp = x;
  xp.apply([](float v) { return v + 0.125f; });
  const Tensor y = run(pool, {&x});
  const Tensor yp = run(pool, {&xp});
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(yp[i] - y[i], 0.125f, 1e-6);
}

// ---------------------------------------------------------------------------
// BatchNormScale / LRN

TEST(BatchNormScale, PerChannelAffine) {
  BatchNormScaleLayer bn(2);
  bn.scale()[0] = 2.0f;
  bn.scale()[1] = 0.5f;
  bn.shift()[0] = 1.0f;
  bn.shift()[1] = 0.0f;
  Tensor x(Shape({1, 2, 1, 2}), 4.0f);
  const Tensor y = run(bn, {&x});
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 9.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0, 1), 2.0f);
}

TEST(LRN, SuppressesLargeNeighborhoods) {
  LRNLayer::Config cfg;
  LRNLayer lrn(cfg);
  Tensor x(Shape({1, 8, 2, 2}), 10.0f);
  const Tensor y = run(lrn, {&x});
  // All positive input: output strictly less than input (denominator > 1).
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_LT(y[i], 10.0f);
    EXPECT_GT(y[i], 0.0f);
  }
}

TEST(LRN, IdentityWhenAlphaZero) {
  LRNLayer::Config cfg;
  cfg.alpha = 0.0f;
  LRNLayer lrn(cfg);
  Tensor x(Shape({1, 4, 2, 2}), 3.0f);
  const Tensor y = run(lrn, {&x});
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], 3.0f, 1e-6);
}

// ---------------------------------------------------------------------------
// Eltwise / Concat

TEST(EltwiseAdd, SumsInputs) {
  EltwiseAddLayer add;
  Tensor a(Shape({1, 2, 1, 1}), 1.0f);
  Tensor b(Shape({1, 2, 1, 1}), 2.0f);
  Tensor c(Shape({1, 2, 1, 1}), 4.0f);
  const Tensor y = run(add, {&a, &b, &c});
  EXPECT_FLOAT_EQ(y[0], 7.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(Concat, StacksChannels) {
  ConcatLayer cat;
  Tensor a(Shape({2, 1, 1, 2}), 1.0f);
  Tensor b(Shape({2, 2, 1, 2}), 2.0f);
  const Tensor y = run(cat, {&a, &b});
  EXPECT_EQ(y.shape(), Shape({2, 3, 1, 2}));
  // Per image: first channel from a, next two from b.
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(1, 2, 0, 1), 2.0f);
}

}  // namespace
}  // namespace mupod
