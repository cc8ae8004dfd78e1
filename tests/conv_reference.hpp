// Test-only naive reference convolution: direct loops, double
// accumulation, no blocking or im2col. The production conv paths
// (tests/test_conv_reference.cpp, tests/test_gemm.cpp) are checked
// against it.
#pragma once

#include <cstdint>

#include "nn/layers.hpp"

namespace mupod {

inline Tensor reference_conv(const Conv2DLayer& conv, const Tensor& x) {
  const auto& cfg = conv.config();
  const Shape shapes[1] = {x.shape()};
  Tensor y(conv.output_shape(shapes));
  const int N = x.shape().n(), H = x.shape().h(), W = x.shape().w();
  const int OC = y.shape().c(), OH = y.shape().h(), OW = y.shape().w();
  const int icg = cfg.in_channels / cfg.groups;
  const int ocg = OC / cfg.groups;
  const Tensor& wt = *conv.weights();
  const Tensor* bias = conv.bias();

  for (int n = 0; n < N; ++n)
    for (int oc = 0; oc < OC; ++oc) {
      const int g = oc / ocg;
      for (int oh = 0; oh < OH; ++oh)
        for (int ow = 0; ow < OW; ++ow) {
          double acc = bias != nullptr ? (*bias)[oc] : 0.0f;
          for (int ic = 0; ic < icg; ++ic)
            for (int kh = 0; kh < cfg.kernel_h; ++kh)
              for (int kw = 0; kw < cfg.kernel_w; ++kw) {
                const int ih = oh * cfg.stride - cfg.pad + kh;
                const int iw = ow * cfg.stride - cfg.pad + kw;
                if (ih < 0 || ih >= H || iw < 0 || iw >= W) continue;
                const std::int64_t widx =
                    ((static_cast<std::int64_t>(oc) * icg + ic) * cfg.kernel_h + kh) *
                        cfg.kernel_w + kw;
                acc += static_cast<double>(x.at(n, g * icg + ic, ih, iw)) * wt[widx];
              }
          y.at(n, oc, oh, ow) = static_cast<float>(acc);
        }
    }
  return y;
}

}  // namespace mupod
