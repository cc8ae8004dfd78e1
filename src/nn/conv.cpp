#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

#include "nn/layers.hpp"
#include "tensor/gemm.hpp"
#include "tensor/parallel.hpp"
#include "tensor/qgemm.hpp"

namespace mupod {

// ---------------------------------------------------------------------------
// InputLayer

Shape InputLayer::output_shape(std::span<const Shape> in) const {
  // The executor substitutes the actual batch input; with no feed this
  // reports the canonical per-image shape with N = 1.
  if (!in.empty()) return in[0];
  return Shape({1, c_, h_, w_});
}

void InputLayer::forward(std::span<const Tensor* const> in, Tensor& out) const {
  assert(in.size() == 1);
  out = *in[0];
}

// ---------------------------------------------------------------------------
// Conv2DLayer

Conv2DLayer::Conv2DLayer(const Config& cfg)
    : cfg_(cfg),
      weights_(Shape({cfg.out_channels, cfg.in_channels / cfg.groups, cfg.kernel_h, cfg.kernel_w})),
      bias_(Shape({cfg.out_channels})) {
  assert(cfg.in_channels > 0 && cfg.out_channels > 0);
  assert(cfg.groups >= 1 && cfg.in_channels % cfg.groups == 0 &&
         cfg.out_channels % cfg.groups == 0);
  assert(cfg.kernel_h > 0 && cfg.kernel_w > 0 && cfg.stride > 0 && cfg.pad >= 0);
}

Shape Conv2DLayer::output_shape(std::span<const Shape> in) const {
  assert(in.size() == 1 && in[0].rank() == 4);
  assert(in[0].c() == cfg_.in_channels);
  const int oh = (in[0].h() + 2 * cfg_.pad - cfg_.kernel_h) / cfg_.stride + 1;
  const int ow = (in[0].w() + 2 * cfg_.pad - cfg_.kernel_w) / cfg_.stride + 1;
  assert(oh > 0 && ow > 0);
  return Shape({in[0].n(), cfg_.out_channels, oh, ow});
}

namespace {

// Runs body(n, g) for every (image, group) job of a conv's GEMM path.
// With enough jobs to fill the pool the outer loop parallelises and each
// GEMM runs serial (nested); for small batches — the serving case — the
// outer loop is serial and the GEMM fans its tile tasks across the
// workers instead. Both give bitwise identical results (see the
// determinism contract in tensor/gemm.hpp).
template <typename F>
void for_each_image_group(int N, int groups, const F& body) {
  const std::int64_t jobs = static_cast<std::int64_t>(N) * groups;
  const auto run = [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t idx = b; idx < e; ++idx)
      body(static_cast<int>(idx / groups), static_cast<int>(idx % groups));
  };
  if (jobs >= parallel_worker_count() && jobs > 1)
    parallel_for_chunked(0, jobs, run);
  else
    run(0, jobs);
}

// The patch matrix of one image group (icg channels of H x W at ximg)
// under this conv's kernel, stride and pad.
ConvPatches patches_of(const Conv2DLayer::Config& cfg, const void* ximg, int icg, int H, int W,
                       int OH, int OW) {
  return {ximg, icg, H, W, cfg.kernel_h, cfg.kernel_w, cfg.stride, cfg.pad, OH, OW};
}

// Integer conv: quantize-on-load once, then per (image, group) one qgemm
// whose packers read B straight from the quantized image (qgemm_patches;
// a pointwise conv's image already is B) and whose epilogue adds the
// accumulator-scale bias and stores. Every conv shape takes this route
// in integer mode (no direct-path crossover: the MACs must run in integer
// arithmetic, and a depthwise qgemm is still exact, just not optimal).
template <typename T>
void conv_forward_integer(const Conv2DLayer::Config& cfg, const QLayerBinding& q,
                          const Tensor& x, Tensor& out) {
  const int N = x.shape().n(), C = x.shape().c(), H = x.shape().h(), W = x.shape().w();
  const int OC = out.shape().c(), OH = out.shape().h(), OW = out.shape().w();
  const int groups = cfg.groups;
  const int icg = C / groups;
  const int ocg = OC / groups;
  const std::int64_t x_img = static_cast<std::int64_t>(C) * H * W;
  const std::int64_t y_img = static_cast<std::int64_t>(OC) * OH * OW;
  const std::int64_t k_dim = static_cast<std::int64_t>(icg) * cfg.kernel_h * cfg.kernel_w;
  const std::int64_t spatial = static_cast<std::int64_t>(OH) * OW;
  const bool is_pointwise =
      cfg.kernel_h == 1 && cfg.kernel_w == 1 && cfg.stride == 1 && cfg.pad == 0;

  const T* xq = static_cast<const T*>(quantize_on_load(q, x));
  const T* wq = static_cast<const T*>(q.weights);
  float* ydata = out.data();

  for_each_image_group(N, groups, [&](int n, int g) {
    const T* ximg = xq + n * x_img + static_cast<std::int64_t>(g) * icg * H * W;
    const std::int64_t y_off = n * y_img + static_cast<std::int64_t>(g) * ocg * spatial;
    QGemmEpilogue ep = q.ep;
    ep.bias_row = q.bias != nullptr ? q.bias + static_cast<std::int64_t>(g) * ocg : nullptr;
    // A requantizing store writes `type` integers (the fused region's
    // carrier), a dequantizing one floats.
    void* yg = ep.quant_store ? static_cast<void*>(reinterpret_cast<T*>(ydata) + y_off)
                              : static_cast<void*>(ydata + y_off);
    const T* wg = wq + static_cast<std::int64_t>(g) * ocg * k_dim;
    if (is_pointwise)
      qgemm(q.type, ocg, spatial, k_dim, wg, k_dim, ximg, spatial, yg, spatial, ep);
    else
      qgemm_patches(q.type, ocg, wg, k_dim, patches_of(cfg, ximg, icg, H, W, OH, OW), yg,
                    spatial, ep);
  });
}

}  // namespace

const void* quantize_on_load(const QLayerBinding& q, const Tensor& x) {
  if (q.in_quantized) return x.data();
  const std::int64_t numel = x.numel();
  const std::size_t bytes = qtype_bytes(q.type);
  unsigned char* xq = GemmScratch::local().qact(static_cast<std::size_t>(numel) * bytes);
  std::atomic<std::int64_t> sat{0};
  const auto body = [&](std::int64_t b, std::int64_t e) {
    const std::int64_t s = quantize_to(q.type, x.data() + b, e - b, q.act_step, q.act_lo,
                                       q.act_hi, xq + static_cast<std::size_t>(b) * bytes);
    if (s != 0) sat.fetch_add(s, std::memory_order_relaxed);
  };
  if (numel >= (1 << 14))
    parallel_for_chunked(0, numel, body);
  else
    body(0, numel);
  const std::int64_t total = sat.load(std::memory_order_relaxed);
  if (total != 0 && q.ep.saturated != nullptr)
    q.ep.saturated->fetch_add(total, std::memory_order_relaxed);
  return xq;
}

void Conv2DLayer::forward_integer(const QLayerBinding& q, const Tensor& x, Tensor& out) const {
  switch (q.type) {
    case QType::kInt8: conv_forward_integer<std::int8_t>(cfg_, q, x, out); break;
    case QType::kInt16: conv_forward_integer<std::int16_t>(cfg_, q, x, out); break;
    case QType::kInt32: conv_forward_integer<std::int32_t>(cfg_, q, x, out); break;
  }
}

void Conv2DLayer::forward(std::span<const Tensor* const> in, Tensor& out) const {
  forward(FloatFusion{}, *in[0], out);
}

void Conv2DLayer::forward(const FloatFusion& fu, const Tensor& x, Tensor& out) const {
  const int N = x.shape().n(), C = x.shape().c(), H = x.shape().h(), W = x.shape().w();
  const int OC = out.shape().c(), OH = out.shape().h(), OW = out.shape().w();
  const int KH = cfg_.kernel_h, KW = cfg_.kernel_w;
  const int stride = cfg_.stride, pad = cfg_.pad;
  const int groups = cfg_.groups;
  const int icg = C / groups;   // input channels per group
  const int ocg = OC / groups;  // output channels per group

  // Fused float epilogue (folded norm affine and/or ReLU); empty unless
  // the compiled executor passes one.
  const bool fu_relu = fu.relu;
  const float* fu_scale = fu.scale;
  const float* fu_shift = fu.shift;
  // Per-output-plane epilogue: the exact BatchNormScaleLayer expression
  // followed by the exact ReLULayer expression, so fused == separate
  // layers bitwise. `oc` is the global output channel.
  const auto fuse_plane = [&](float* yplane, std::int64_t count, int oc) {
    if (fu_scale != nullptr) {
      const float a = fu_scale[oc];
      const float b = fu_shift[oc];
      for (std::int64_t i = 0; i < count; ++i) yplane[i] = yplane[i] * a + b;
    }
    if (fu_relu)
      for (std::int64_t i = 0; i < count; ++i) yplane[i] = relu_exact(yplane[i]);
  };

  const float* wdata = weights_.data();
  const float* bdata = cfg_.has_bias ? bias_.data() : nullptr;
  const float* xdata = x.data();
  float* ydata = out.data();

  const std::int64_t x_img = static_cast<std::int64_t>(C) * H * W;
  const std::int64_t y_img = static_cast<std::int64_t>(OC) * OH * OW;

  const std::int64_t k_dim = static_cast<std::int64_t>(icg) * KH * KW;
  const std::int64_t spatial = static_cast<std::int64_t>(OH) * OW;

  // A 1x1/stride-1/pad-0 conv is already a GEMM over the input planes —
  // no patch expansion needed (OH*OW == H*W).
  const bool is_pointwise = KH == 1 && KW == 1 && stride == 1 && pad == 0;

  // GEMM vs direct crossover, fit when the GEMM path still materialized
  // the patch matrix (contested-shape sweep, icg x ocg x K x HW,
  // docs/method.md §11): GEMM for pointwise convs from ocg >= 2 or icg >= 2 or spatial
  // >= 512, for patch convs from ocg >= 4, for ocg == 3 with a kernel
  // area <= 9 or spatial >= 256, for ocg == 2 with a kernel area <= 9 and
  // spatial >= 1024; the direct loop for the rest, depthwise included. Re-measured
  // with the patch-packed GEMM at four groups (BM_ConvCrossover vs
  // BM_ConvCrossoverGemm in bench_micro_kernels), the GEMM wins every
  // direct shape, 1.8-3.5x; but forced everywhere it makes MobileNet's
  // convs 1.6x slower, as one GEMM call per group of a 1x1 or 2x2 image
  // costs more than the direct loop (docs/method.md §11). A shape that
  // switches paths also changes its summation order, so its float bits.
  bool use_gemm;
  if (is_pointwise) {
    use_gemm = ocg >= 2 || k_dim >= 2 || spatial >= 512;
  } else {
    const std::int64_t karea = static_cast<std::int64_t>(KH) * KW;
    use_gemm = ocg >= 4 || (ocg == 3 && (karea <= 9 || spatial >= 256)) ||
               (ocg == 2 && karea <= 9 && spatial >= 1024);
  }

  if (use_gemm) {
    // One blocked GEMM per (image, group): Y[ocg x OH*OW] =
    // W[ocg x k_dim] · B[k_dim x OH*OW], B the image planes of a
    // pointwise conv, else the patch matrix read straight from the image.
    for_each_image_group(N, groups, [&](int n, int g) {
      const float* ximg = xdata + n * x_img + static_cast<std::int64_t>(g) * icg * H * W;
      float* yg = ydata + n * y_img + static_cast<std::int64_t>(g) * ocg * spatial;
      const float* wg = wdata + static_cast<std::int64_t>(g) * ocg * k_dim;
      float beta = 0.0f;
      if (bdata != nullptr) {
        for (int oc_local = 0; oc_local < ocg; ++oc_local) {
          float* yrow = yg + static_cast<std::int64_t>(oc_local) * spatial;
          std::fill(yrow, yrow + spatial, bdata[g * ocg + oc_local]);
        }
        beta = 1.0f;
      }
      // ReLU-only fusion runs inside the GEMM store (zero extra pass);
      // a folded norm needs the per-channel affine first, so it takes
      // the post-loop with the ReLU behind it.
      const bool relu = fu_relu && fu_scale == nullptr;
      if (is_pointwise)
        gemm(ocg, spatial, k_dim, wg, k_dim, ximg, spatial, beta, yg, spatial,
             /*trans_b=*/false, relu);
      else
        gemm_patches(ocg, wg, k_dim, patches_of(cfg_, ximg, icg, H, W, OH, OW), beta, yg,
                     spatial, relu);
      if (fu_scale != nullptr)
        for (int oc_local = 0; oc_local < ocg; ++oc_local)
          fuse_plane(yg + static_cast<std::int64_t>(oc_local) * spatial, spatial,
                     g * ocg + oc_local);
    });
    return;
  }

  // Direct path, parallel over (image, output channel) pairs.
  parallel_for_chunked(0, static_cast<std::int64_t>(N) * OC, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t idx = b; idx < e; ++idx) {
      const int n = static_cast<int>(idx / OC);
      const int oc = static_cast<int>(idx % OC);
      const int g = oc / ocg;
      const float* wfilt = wdata + static_cast<std::int64_t>(oc) * icg * KH * KW;
      const float bias = bdata != nullptr ? bdata[oc] : 0.0f;
      float* yplane = ydata + n * y_img + static_cast<std::int64_t>(oc) * OH * OW;
      const float* ximg = xdata + n * x_img + static_cast<std::int64_t>(g) * icg * H * W;
      for (int oh = 0; oh < OH; ++oh) {
        const int ih0 = oh * stride - pad;
        for (int ow = 0; ow < OW; ++ow) {
          const int iw0 = ow * stride - pad;
          float acc = bias;
          for (int ic = 0; ic < icg; ++ic) {
            const float* xplane = ximg + static_cast<std::int64_t>(ic) * H * W;
            const float* wplane = wfilt + static_cast<std::int64_t>(ic) * KH * KW;
            for (int kh = 0; kh < KH; ++kh) {
              const int ih = ih0 + kh;
              if (ih < 0 || ih >= H) continue;
              const float* xrow = xplane + static_cast<std::int64_t>(ih) * W;
              const float* wrow = wplane + static_cast<std::int64_t>(kh) * KW;
              // Clip the kernel-column range instead of testing per tap.
              int kw_lo = iw0 < 0 ? -iw0 : 0;
              int kw_hi = KW;
              if (iw0 + KW > W) kw_hi = W - iw0;
              for (int kw = kw_lo; kw < kw_hi; ++kw) {
                acc += xrow[iw0 + kw] * wrow[kw];
              }
            }
          }
          yplane[static_cast<std::int64_t>(oh) * OW + ow] = acc;
        }
      }
      fuse_plane(yplane, static_cast<std::int64_t>(OH) * OW, oc);
    }
  });
}

LayerCost Conv2DLayer::cost(std::span<const Shape> in) const {
  LayerCost c;
  c.input_elems = in[0].numel() / in[0].n();
  const Shape out = output_shape(in);
  const std::int64_t per_out =
      static_cast<std::int64_t>(cfg_.in_channels / cfg_.groups) * cfg_.kernel_h * cfg_.kernel_w;
  c.macs = out.numel() / out.n() * per_out;
  return c;
}

}  // namespace mupod
