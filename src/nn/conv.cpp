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

// Fills rows [kb, ke) of the column-major patch matrix `col` of shape
// [icg*KH*KW rows, OH*OW cols]: col[k][j] = input value the k-th kernel
// tap sees at output position j (0 where the tap falls in padding). The
// integer path never materializes it (qgemm_patches packs from the image).
void im2col_rows(const float* ximg, int H, int W, int KH, int KW, int stride, int pad,
                 int OH, int OW, float* col, std::int64_t kb, std::int64_t ke) {
  const std::int64_t cols = static_cast<std::int64_t>(OH) * OW;
  for (std::int64_t k = kb; k < ke; ++k) {
    const int ic = static_cast<int>(k / (KH * KW));
    const int rem = static_cast<int>(k % (KH * KW));
    const int kh = rem / KW;
    const int kw = rem % KW;
    const float* xplane = ximg + static_cast<std::int64_t>(ic) * H * W;
    float* crow = col + k * cols;
    for (int oh = 0; oh < OH; ++oh) {
      const int ih = oh * stride - pad + kh;
      float* cptr = crow + static_cast<std::int64_t>(oh) * OW;
      if (ih < 0 || ih >= H) {
        std::fill(cptr, cptr + OW, 0.0f);
        continue;
      }
      const float* xrow = xplane + static_cast<std::int64_t>(ih) * W;
      for (int ow = 0; ow < OW; ++ow) {
        const int iw = ow * stride - pad + kw;
        cptr[ow] = (iw >= 0 && iw < W) ? xrow[iw] : 0.0f;
      }
    }
  }
}

// Expands one image group into the patch matrix. Parallelises over rows
// when the expansion is big enough to amortize a pool dispatch (a no-op
// serial fallback when already inside a parallel region, so the batched
// outer loop can stay parallel over images).
void im2col_group(const float* ximg, int icg, int H, int W, int KH, int KW, int stride, int pad,
                  int OH, int OW, float* col) {
  const std::int64_t rows = static_cast<std::int64_t>(icg) * KH * KW;
  const std::int64_t cols = static_cast<std::int64_t>(OH) * OW;
  if (rows * cols >= (1 << 14)) {
    parallel_for_chunked(0, rows, [&](std::int64_t kb, std::int64_t ke) {
      im2col_rows(ximg, H, W, KH, KW, stride, pad, OH, OW, col, kb, ke);
    });
  } else {
    im2col_rows(ximg, H, W, KH, KW, stride, pad, OH, OW, col, 0, rows);
  }
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

  // Same outer-parallel vs tile-fan-out split as the float GEMM path;
  // both give bitwise identical results (integer accumulation is exact).
  const std::int64_t jobs = static_cast<std::int64_t>(N) * groups;
  const auto body = [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t idx = b; idx < e; ++idx) {
      const int n = static_cast<int>(idx / groups);
      const int g = static_cast<int>(idx % groups);
      const T* ximg = xq + n * x_img + static_cast<std::int64_t>(g) * icg * H * W;
      const std::int64_t y_off = n * y_img + static_cast<std::int64_t>(g) * ocg * spatial;
      QGemmEpilogue ep = q.ep;
      ep.bias_row = q.bias != nullptr ? q.bias + static_cast<std::int64_t>(g) * ocg : nullptr;
      // A requantizing store writes `type` integers (the fused region's
      // carrier), a dequantizing one floats.
      void* yg = ep.quant_store ? static_cast<void*>(reinterpret_cast<T*>(ydata) + y_off)
                                : static_cast<void*>(ydata + y_off);
      const T* wg = wq + static_cast<std::int64_t>(g) * ocg * k_dim;
      if (is_pointwise) {
        qgemm(q.type, ocg, spatial, k_dim, wg, k_dim, ximg, spatial, yg, spatial, ep);
      } else {
        const QPatchB patches{ximg, icg, H, W, cfg.kernel_h, cfg.kernel_w, cfg.stride, cfg.pad,
                              OH, OW};
        qgemm_patches(q.type, ocg, wg, k_dim, patches, yg, spatial, ep);
      }
    }
  };
  if (jobs >= parallel_worker_count() && jobs > 1)
    parallel_for_chunked(0, jobs, body);
  else
    body(0, jobs);
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

  // GEMM vs direct crossover, re-derived from the contested-shape sweep in
  // bench_micro_kernels (icg x ocg x K x HW grid, min-of-N; methodology and
  // full table in docs/method.md §11). What the measurements show:
  //   * Pointwise convs pay no im2col, so the packed kernel wins from
  //     ocg >= 2 or icg >= 2 onward (1.2-26x), and even the 1->1 channel
  //     case once spatial reaches ~512 (1.7x at 32x32). Below that the
  //     direct loop is ~7% faster — keep it.
  //   * Patch-expanded convs amortize im2col over ocg output rows: ocg >= 4
  //     wins at every measured shape (1.5-3.9x for 3x3/5x5), ocg == 3 wins
  //     for 3x3 everywhere (>= 1.38x) but for larger kernel areas only once
  //     spatial >= 256 (5x5 is break-even at 8x8). ocg == 2 with a 3x3
  //     kernel flips past spatial >= 1024 (1.06-1.46x at 32x32).
  //   * Depthwise (ocg == 1, patch-expanded) always loses (0.4-0.8x):
  //     im2col inflates reads 9-25x with only one output row to reuse the
  //     panel — the direct loop keeps it.
  bool use_gemm;
  if (is_pointwise) {
    use_gemm = ocg >= 2 || k_dim >= 2 || spatial >= 512;
  } else {
    const std::int64_t karea = static_cast<std::int64_t>(KH) * KW;
    use_gemm = ocg >= 4 || (ocg == 3 && (karea <= 9 || spatial >= 256)) ||
               (ocg == 2 && karea <= 9 && spatial >= 1024);
  }

  if (use_gemm) {
    // im2col (skipped for pointwise) followed by one blocked GEMM per
    // (image, group): Y[ocg x OH*OW] = W[ocg x k_dim] · col[k_dim x OH*OW].
    // With enough (image, group) jobs to fill the pool the outer loop
    // parallelises and each GEMM runs serial (nested); for small batches —
    // the serving case — the outer loop is serial and the GEMM fans its
    // tile tasks across the workers instead. Both give bitwise identical
    // results (see the determinism contract in tensor/gemm.hpp).
    const std::int64_t jobs = static_cast<std::int64_t>(N) * groups;
    const auto body = [&](std::int64_t b, std::int64_t e) {
      GemmScratch& scratch = GemmScratch::local();
      for (std::int64_t idx = b; idx < e; ++idx) {
        const int n = static_cast<int>(idx / groups);
        const int g = static_cast<int>(idx % groups);
        const float* ximg = xdata + n * x_img + static_cast<std::int64_t>(g) * icg * H * W;
        const float* bmat = ximg;
        if (!is_pointwise) {
          float* col = scratch.col(static_cast<std::size_t>(k_dim * spatial));
          im2col_group(ximg, icg, H, W, KH, KW, stride, pad, OH, OW, col);
          bmat = col;
        }
        float* yg = ydata + n * y_img + static_cast<std::int64_t>(g) * ocg * spatial;
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
        gemm(ocg, spatial, k_dim, wdata + static_cast<std::int64_t>(g) * ocg * k_dim, k_dim,
             bmat, spatial, beta, yg, spatial, /*trans_b=*/false,
             /*relu=*/fu_relu && fu_scale == nullptr);
        if (fu_scale != nullptr)
          for (int oc_local = 0; oc_local < ocg; ++oc_local)
            fuse_plane(yg + static_cast<std::int64_t>(oc_local) * spatial, spatial,
                       g * ocg + oc_local);
      }
    };
    if (jobs >= parallel_worker_count() && jobs > 1)
      parallel_for_chunked(0, jobs, body);
    else
      body(0, jobs);
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
