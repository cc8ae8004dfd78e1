// Equivalence of the production convolution (direct and patch-view GEMM
// paths) against a straightforward reference implementation, swept over a
// parameter grid that straddles the GEMM-path cutoff.
#include <gtest/gtest.h>

#include <vector>

#include "conv_reference.hpp"
#include "nn/layers.hpp"
#include "stats/rng.hpp"

namespace mupod {
namespace {

struct ConvCase {
  int in_c, out_c, k, stride, pad, groups, h, w;
};

class ConvEquivalence : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvEquivalence, MatchesReference) {
  const ConvCase& c = GetParam();
  Conv2DLayer::Config cfg;
  cfg.in_channels = c.in_c;
  cfg.out_channels = c.out_c;
  cfg.kernel_h = cfg.kernel_w = c.k;
  cfg.stride = c.stride;
  cfg.pad = c.pad;
  cfg.groups = c.groups;
  Conv2DLayer conv(cfg);

  Rng rng(c.in_c * 1000 + c.out_c * 100 + c.k * 10 + c.stride);
  for (std::int64_t i = 0; i < conv.mutable_weights()->numel(); ++i)
    (*conv.mutable_weights())[i] = static_cast<float>(rng.gaussian());
  for (std::int64_t i = 0; i < conv.mutable_bias()->numel(); ++i)
    (*conv.mutable_bias())[i] = static_cast<float>(rng.gaussian(0.0, 0.1));

  Tensor x(Shape({3, c.in_c, c.h, c.w}));
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());

  const Shape shapes[1] = {x.shape()};
  Tensor fast(conv.output_shape(shapes));
  const Tensor* ins[1] = {&x};
  conv.forward(ins, fast);
  const Tensor ref = reference_conv(conv, x);

  ASSERT_EQ(fast.shape(), ref.shape());
  EXPECT_LT(max_abs_diff(fast, ref), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvEquivalence,
    ::testing::Values(
        // GEMM path (use_gemm in src/nn/conv.cpp: every ocg >= 4, and a
        // pointwise conv with ocg >= 2 or k_dim >= 2).
        ConvCase{8, 16, 3, 1, 1, 1, 12, 12},    //
        ConvCase{6, 12, 5, 1, 2, 1, 16, 16},    //
        ConvCase{8, 16, 3, 2, 1, 1, 15, 15},    // stride with odd extent
        ConvCase{12, 8, 3, 1, 0, 2, 10, 10},    // grouped GEMM
        ConvCase{4, 16, 7, 2, 3, 1, 28, 28},    // AlexNet-ish stem
        ConvCase{16, 8, 1, 1, 0, 1, 6, 6},      // 1x1 (pointwise)
        ConvCase{4, 4, 3, 1, 1, 1, 3, 3},       // tiny spatial, kernel == extent
        ConvCase{3, 5, 5, 3, 2, 1, 11, 13},     // non-square, odd stride
        // Direct path (depthwise, ocg 1-3 below the spatial thresholds).
        ConvCase{8, 8, 3, 1, 1, 8, 12, 12},     // depthwise
        ConvCase{8, 2, 3, 1, 1, 2, 8, 8},       // one output channel per group
        ConvCase{4, 4, 3, 1, 1, 2, 8, 8},       // ocg 2, 3x3
        ConvCase{4, 6, 5, 1, 2, 2, 8, 8},       // ocg 3, 5x5
        // MobileNet's depthwise tail: 3x3 pad 1 at 1x1, 2x2 and 4x4
        // inputs, where every output reads both clipped kernel columns.
        ConvCase{256, 256, 3, 1, 1, 256, 1, 1},
        ConvCase{256, 256, 3, 2, 1, 256, 1, 1},
        ConvCase{128, 128, 3, 1, 1, 128, 2, 2},
        ConvCase{128, 128, 3, 2, 1, 128, 2, 2},
        ConvCase{64, 64, 3, 2, 1, 64, 4, 4},
        // Edge geometry.
        ConvCase{2, 8, 3, 1, 2, 1, 4, 4},       // pad > kernel/2
        ConvCase{2, 8, 4, 4, 0, 1, 8, 8}),      // stride == kernel
    [](const auto& info) {
      const auto& c = info.param;
      return "ic" + std::to_string(c.in_c) + "oc" + std::to_string(c.out_c) + "k" +
             std::to_string(c.k) + "s" + std::to_string(c.stride) + "p" + std::to_string(c.pad) +
             "g" + std::to_string(c.groups) + "h" + std::to_string(c.h) + "w" +
             std::to_string(c.w);
    });

}  // namespace
}  // namespace mupod
