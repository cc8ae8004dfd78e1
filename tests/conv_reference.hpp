// Test-only references for the convolution paths:
//   * reference_conv: direct loops, double accumulation, no blocking or
//     patch matrix; the production conv paths
//     (tests/test_conv_reference.cpp, tests/test_gemm.cpp) are checked
//     against it;
//   * im2col_ref: the materialized patch matrix of one image group,
//     built independently of the patch views in src/tensor, which the
//     GEMMs' patch entry points (gemm_patches, qgemm_patches) must equal
//     byte for byte (tests/test_gemm.cpp, tests/test_qgemm_property.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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

// col[(c, kh, kw)][(oh, ow)] = x[c][oh*stride - pad + kh][ow*stride - pad + kw],
// zero in the padding; x is C x H x W.
template <typename T>
void im2col_ref(const T* x, int C, int H, int W, int KH, int KW, int stride, int pad, int OH,
                int OW, std::vector<T>& col) {
  col.assign(static_cast<std::size_t>(C) * KH * KW * OH * OW, T(0));
  std::size_t idx = 0;
  for (int c = 0; c < C; ++c)
    for (int kh = 0; kh < KH; ++kh)
      for (int kw = 0; kw < KW; ++kw)
        for (int oh = 0; oh < OH; ++oh)
          for (int ow = 0; ow < OW; ++ow, ++idx) {
            const int ih = oh * stride - pad + kh, iw = ow * stride - pad + kw;
            if (ih >= 0 && ih < H && iw >= 0 && iw < W)
              col[idx] = x[(static_cast<std::size_t>(c) * H + ih) * W + iw];
          }
}

}  // namespace mupod
