// The register-blocked packed GEMM (src/tensor/gemm.cpp) against a naive
// triple-loop reference, its patch-view entry against the materialized
// patch matrix, the conv/fc layers that consume it, and the determinism
// contract the plan-service suite depends on. Lives in the
// `sanitize`-labeled binary so run_sanitized_tests.sh covers the packing
// and tile-task paths under both ASan and TSan (the TSan run pins
// MUPOD_THREADS=4 so the tile parallelism actually crosses threads).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "conv_reference.hpp"
#include "kernel_isas.hpp"
#include "nn/layers.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

// Naive reference: C = A·B + beta*C with double accumulation.
void ref_gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a, std::int64_t lda,
              const float* b, std::int64_t ldb, float beta, float* c, std::int64_t ldc,
              bool trans_b) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float bv = trans_b ? b[j * ldb + kk] : b[kk * ldb + j];
        acc += static_cast<double>(a[i * lda + kk]) * bv;
      }
      float& out = c[i * ldc + j];
      out = static_cast<float>(acc + (beta == 0.0f ? 0.0 : static_cast<double>(beta) * out));
    }
}

// No padding bytes: gtest names each case by dumping the struct's bytes,
// so padding would make the test names differ from run to run. trans_b
// is an int32 (0/1) rather than a bool for that reason.
struct GemmCase {
  std::int64_t m, n, k;
  float beta;
  std::int32_t trans_b;
};
static_assert(sizeof(GemmCase) == 3 * sizeof(std::int64_t) + 2 * sizeof(std::int32_t));

class GemmVsReference : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmVsReference, Matches) {
  const GemmCase& p = GetParam();
  const std::int64_t lda = p.k, ldb = p.trans_b ? p.k : p.n, ldc = p.n;
  const std::vector<float> a = random_vec(static_cast<std::size_t>(p.m * p.k), 1);
  const std::vector<float> b =
      random_vec(static_cast<std::size_t>(p.k * p.n), 2);
  std::vector<float> c = random_vec(static_cast<std::size_t>(p.m * p.n), 3);
  std::vector<float> c_ref = c;

  gemm(p.m, p.n, p.k, a.data(), lda, b.data(), ldb, p.beta, c.data(), ldc, p.trans_b);
  ref_gemm(p.m, p.n, p.k, a.data(), lda, b.data(), ldb, p.beta, c_ref.data(), ldc, p.trans_b);

  // Scale the tolerance with the reduction length: each float accumulation
  // step contributes O(eps * |partial sum|).
  const double tol = 1e-4 * std::max<double>(1.0, std::sqrt(static_cast<double>(p.k)));
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(c[i], c_ref[i], tol) << "element " << i << " of " << p.m << "x" << p.n << "x"
                                     << p.k;
}

std::vector<GemmCase> gemm_cases() {
  const GemmBlocking bl = gemm_blocking();
  std::vector<GemmCase> cases = {
      // Degenerate extents.
      {1, 1, 1, 0.0f, false},
      {1, 257, 3, 0.0f, false},
      {257, 1, 5, 1.0f, false},  // the batch-1 inner-product (GEMV) shape
      {3, 4, 1, 0.5f, false},
      // Non-multiples of MR/NR straddling one register tile.
      {bl.mr - 1, bl.nr - 1, 7, 0.0f, false},
      {bl.mr + 1, bl.nr + 1, 33, 1.0f, false},
      {2 * bl.mr + 3, 3 * bl.nr - 5, 64, 0.0f, true},
      // Straddling the cache blocks: KC boundary, MC boundary, NC boundary.
      {5, 9, bl.kc + 17, 1.0f, false},
      {bl.mc + bl.mr / 2, 31, bl.kc - 1, 0.0f, false},
      {9, bl.nc + bl.nr / 2, 40, 0.0f, true},
      // A mid-size everything-at-once shape.
      {130, 70, 300, 0.5f, true},
  };
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmVsReference, ::testing::ValuesIn(gemm_cases()));

TEST(Gemm, KZeroAppliesBetaOnly) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  gemm(2, 2, 0, nullptr, 1, nullptr, 1, 0.5f, c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
  gemm(2, 2, 0, nullptr, 1, nullptr, 1, 0.0f, c.data(), 2);
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  // beta == 0 must never read C, so NaNs in the output buffer are erased.
  const std::vector<float> a = random_vec(4 * 8, 4);
  const std::vector<float> b = random_vec(8 * 4, 5);
  std::vector<float> c(16, std::numeric_limits<float>::quiet_NaN());
  gemm(4, 4, 8, a.data(), 8, b.data(), 4, 0.0f, c.data(), 4);
  for (float v : c) EXPECT_TRUE(std::isfinite(v));
}

TEST(Gemm, RepeatCallsAreBitIdentical) {
  const std::vector<float> a = random_vec(100 * 300, 6);
  const std::vector<float> b = random_vec(300 * 90, 7);
  std::vector<float> c1(100 * 90, 0.0f), c2(100 * 90, 0.0f);
  gemm(100, 90, 300, a.data(), 300, b.data(), 90, 0.0f, c1.data(), 90);
  gemm(100, 90, 300, a.data(), 300, b.data(), 90, 0.0f, c2.data(), 90);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// Layer-level parity: the production conv/FC paths (blocked GEMM, and the
// direct conv loop where the use_gemm gate picks it) against naive
// double-accumulation references. The test names date from when the
// reference was the pre-GEMM scalar path.

Conv2DLayer make_conv(const Conv2DLayer::Config& cfg, std::uint64_t seed) {
  Conv2DLayer conv(cfg);
  Rng rng(seed);
  for (std::int64_t i = 0; i < conv.mutable_weights()->numel(); ++i)
    (*conv.mutable_weights())[i] = static_cast<float>(rng.gaussian());
  if (conv.mutable_bias() != nullptr)
    for (std::int64_t i = 0; i < conv.mutable_bias()->numel(); ++i)
      (*conv.mutable_bias())[i] = static_cast<float>(rng.gaussian(0.0, 0.1));
  return conv;
}

struct ConvParityCase {
  int in_c, out_c, k, stride, pad, groups, h, w, batch;
};

class ConvPathParity : public ::testing::TestWithParam<ConvParityCase> {};

TEST_P(ConvPathParity, BlockedMatchesLegacy) {
  const ConvParityCase& p = GetParam();
  Conv2DLayer::Config cfg;
  cfg.in_channels = p.in_c;
  cfg.out_channels = p.out_c;
  cfg.kernel_h = cfg.kernel_w = p.k;
  cfg.stride = p.stride;
  cfg.pad = p.pad;
  cfg.groups = p.groups;
  const Conv2DLayer conv = make_conv(cfg, 11 * p.in_c + p.out_c);

  Tensor x(Shape({p.batch, p.in_c, p.h, p.w}));
  Rng rng(99);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());

  const Shape shapes[1] = {x.shape()};
  const Tensor* ins[1] = {&x};
  Tensor y_blocked(conv.output_shape(shapes));
  conv.forward(ins, y_blocked);
  const Tensor y_ref = reference_conv(conv, x);

  for (std::int64_t i = 0; i < y_blocked.numel(); ++i)
    ASSERT_NEAR(y_blocked[i], y_ref[i], 1e-4) << "element " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvPathParity,
    ::testing::Values(ConvParityCase{8, 16, 3, 1, 1, 1, 12, 12, 2},   // padded 3x3
                      ConvParityCase{16, 32, 5, 2, 2, 1, 17, 17, 1},  // strided 5x5, odd extent
                      ConvParityCase{16, 16, 1, 1, 0, 1, 9, 9, 2},    // pointwise fast path
                      ConvParityCase{12, 24, 3, 1, 1, 4, 10, 10, 2},  // grouped
                      ConvParityCase{16, 16, 3, 1, 1, 16, 8, 8, 1},   // depthwise (direct)
                      ConvParityCase{6, 10, 3, 2, 0, 2, 15, 11, 3},   // grouped + strided,
                                                                      // non-square
                      ConvParityCase{32, 48, 3, 1, 1, 1, 16, 16, 1}   // straddles KC in k_dim
                      ));

TEST(InnerProductParity, BlockedMatchesLegacyAcrossBatch) {
  InnerProductLayer fc(137, 75);  // non-multiples of every tile size
  Rng rng(21);
  for (std::int64_t i = 0; i < fc.mutable_weights()->numel(); ++i)
    (*fc.mutable_weights())[i] = static_cast<float>(rng.gaussian());
  for (std::int64_t i = 0; i < fc.mutable_bias()->numel(); ++i)
    (*fc.mutable_bias())[i] = static_cast<float>(rng.gaussian());

  for (const int batch : {1, 2, 9}) {
    Tensor x(Shape({batch, 137}));
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());
    const Shape shapes[1] = {x.shape()};
    const Tensor* ins[1] = {&x};
    Tensor y_blocked(fc.output_shape(shapes));
    fc.forward(ins, y_blocked);
    // Naive reference: one double-accumulated dot product per output.
    const float* w = fc.weights()->data();
    const float* b = fc.bias()->data();
    for (int n = 0; n < batch; ++n)
      for (int o = 0; o < 75; ++o) {
        double ref = b[o];
        for (int i = 0; i < 137; ++i)
          ref += static_cast<double>(x[static_cast<std::int64_t>(n) * 137 + i]) * w[o * 137 + i];
        ASSERT_NEAR(y_blocked[static_cast<std::int64_t>(n) * 75 + o], ref, 1e-4)
            << "batch " << batch << " row " << n << " output " << o;
      }
  }
}

// ---------------------------------------------------------------------------
// Determinism: the contract PR 2's bit-identical-run suite leans on.

TEST(GemmDeterminism, ForwardTwiceIsBitIdentical) {
  ZooOptions zo;
  zo.calibration_images = 4;
  zo.head_images = 0;
  ZooModel model = build_tiny_cnn(zo);
  Tensor x(Shape({2, model.channels, model.height, model.width}));
  Rng rng(5);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());

  const Tensor y1 = model.net.forward(x);
  const Tensor y2 = model.net.forward(x);
  ASSERT_EQ(y1.numel(), y2.numel());
  EXPECT_EQ(0, std::memcmp(y1.data(), y2.data(),
                           static_cast<std::size_t>(y1.numel()) * sizeof(float)));
}

// Batched and single-image forwards decompose the work differently (outer
// image/group fan-out vs inner tile fan-out), but the fixed per-tile
// accumulation order means each image's result must be bitwise identical
// either way.
TEST(GemmDeterminism, BatchDecompositionInvariant) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 16;
  cfg.out_channels = 24;
  cfg.kernel_h = cfg.kernel_w = 3;
  cfg.pad = 1;
  const Conv2DLayer conv = make_conv(cfg, 31);

  const int batch = 3;
  Tensor x(Shape({batch, 16, 14, 14}));
  Rng rng(32);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());

  const Shape shapes[1] = {x.shape()};
  const Tensor* ins[1] = {&x};
  Tensor y_batch(conv.output_shape(shapes));
  conv.forward(ins, y_batch);

  const std::int64_t img_in = x.numel() / batch;
  const std::int64_t img_out = y_batch.numel() / batch;
  for (int n = 0; n < batch; ++n) {
    Tensor xi(Shape({1, 16, 14, 14}));
    std::memcpy(xi.data(), x.data() + n * img_in, static_cast<std::size_t>(img_in) * sizeof(float));
    const Shape si[1] = {xi.shape()};
    const Tensor* ii[1] = {&xi};
    Tensor yi(conv.output_shape(si));
    conv.forward(ii, yi);
    EXPECT_EQ(0, std::memcmp(yi.data(), y_batch.data() + n * img_out,
                             static_cast<std::size_t>(img_out) * sizeof(float)))
        << "image " << n;
  }
}

// ---------------------------------------------------------------------------
// Edge tiles. Every tile kind — full, row edge (fewer than MR valid rows),
// column edge (fewer than NR valid columns) and n == 1 — runs the
// registry's one full-tile kernel on the zero-padded strips, so an
// element's bits do not depend on its tile. The reference below replays
// gemm()'s tile schedule serially with that kernel on every tile; the
// battery after it checks the consequence the server relies on.

// The sweep both batteries share: m across two row strips and a row
// edge, n across column edges and full strips, k across one and two KC
// panels, every beta store path, ReLU on and off. Stops at the first
// failed case.
template <typename F>
void sweep_tile_kinds(const F& f) {
  const GemmBlocking bl = gemm_blocking();
  for (std::int64_t m = 1; m <= 2 * bl.mr + 1; ++m)
    for (std::int64_t n : {1, bl.nr - 1, bl.nr, bl.nr + 1, 2 * bl.nr + 3})
      for (std::int64_t k : {1, 7, bl.kc, bl.kc + 5})
        for (float beta : {0.0f, 1.0f, 0.5f})
          for (bool relu : {false, true}) {
            if (::testing::Test::HasFatalFailure()) return;
            f(m, n, k, beta, relu);
          }
}

// Serial replay of gemm()'s arithmetic: per KC panel (beta on the first,
// 1 after), per MR x NR tile, pack zero-padded strips, run the full-tile
// kernel into a padded tile preloaded with C, copy back the valid part,
// clamp on the last panel.
void tiled_reference(const KernelRegistry& reg, std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, const float* b, float beta, float* c, bool relu) {
  const int mr = reg.mr, nr = reg.nr, kcmax = gemm_blocking().kc;
  std::vector<float> ap(static_cast<std::size_t>(kcmax * mr));
  std::vector<float> bp(static_cast<std::size_t>(kcmax * nr));
  std::vector<float> tile(static_cast<std::size_t>(mr * nr));
  for (std::int64_t pc = 0; pc < k; pc += kcmax) {
    const int kc = static_cast<int>(std::min<std::int64_t>(kcmax, k - pc));
    const float beta_pc = pc == 0 ? beta : 1.0f;
    for (std::int64_t i0 = 0; i0 < m; i0 += mr) {
      const int mr_cur = static_cast<int>(std::min<std::int64_t>(mr, m - i0));
      for (std::int64_t j0 = 0; j0 < n; j0 += nr) {
        const int nr_cur = static_cast<int>(std::min<std::int64_t>(nr, n - j0));
        for (int kk = 0; kk < kc; ++kk) {
          for (int r = 0; r < mr; ++r)
            ap[static_cast<std::size_t>(kk * mr + r)] = r < mr_cur ? a[(i0 + r) * k + pc + kk] : 0.0f;
          for (int cc = 0; cc < nr; ++cc)
            bp[static_cast<std::size_t>(kk * nr + cc)] =
                cc < nr_cur ? b[(pc + kk) * n + j0 + cc] : 0.0f;
        }
        float* ct = c + i0 * n + j0;
        for (int r = 0; r < mr; ++r)
          for (int cc = 0; cc < nr; ++cc)
            tile[static_cast<std::size_t>(r * nr + cc)] =
                r < mr_cur && cc < nr_cur ? ct[r * n + cc] : 0.0f;
        reg.sgemm_micro(kc, ap.data(), bp.data(), tile.data(), nr, beta_pc);
        for (int r = 0; r < mr_cur; ++r)
          for (int cc = 0; cc < nr_cur; ++cc) {
            float v = tile[static_cast<std::size_t>(r * nr + cc)];
            if (relu && pc + kcmax >= k) v = v > 0.0f ? v : 0.0f;
            ct[r * n + cc] = v;
          }
      }
    }
  }
}

TEST(GemmEdgeTiles, BitwiseEqualToPaddedFullTileUnderEveryIsa) {
  IsaGuard guard;
  for (KernelIsa isa : available_isas()) {
    set_kernel_isa(isa);
    const KernelRegistry& reg = kernel_registry();
    ASSERT_EQ(reg.mr, gemm_blocking().mr);
    sweep_tile_kinds([&](std::int64_t m, std::int64_t n, std::int64_t k, float beta, bool relu) {
      const std::uint64_t seed = static_cast<std::uint64_t>(m * 1000 + n * 10 + k);
      const std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), seed);
      const std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), seed + 1);
      std::vector<float> c = random_vec(static_cast<std::size_t>(m * n), seed + 2);
      std::vector<float> want = c;
      gemm(m, n, k, a.data(), k, b.data(), n, beta, c.data(), n, false, relu);
      tiled_reference(reg, m, n, k, a.data(), b.data(), beta, want.data(), relu);
      ASSERT_EQ(0, std::memcmp(c.data(), want.data(), c.size() * sizeof(float)))
          << kernel_isa_name(isa) << " m=" << m << " n=" << n << " k=" << k << " beta=" << beta
          << " relu=" << relu;
    });
  }
}

// What the batched server relies on: a row of C equals the row computed
// alone (m = 1), a column the column computed alone (n = 1, the GEMV),
// and a row of X·Wᵀ (trans_b, the batched inner product) equals W·x (the
// batch-1 inner product). memcmp under every ISA.
TEST(GemmEdgeTiles, RowsAndColumnsEqualThemComputedAlone) {
  IsaGuard guard;
  for (KernelIsa isa : available_isas()) {
    set_kernel_isa(isa);
    sweep_tile_kinds([&](std::int64_t m, std::int64_t n, std::int64_t k, float beta, bool relu) {
      const std::uint64_t seed = static_cast<std::uint64_t>(m * 1000 + n * 10 + k) + 77;
      const std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), seed);
      const std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), seed + 1);
      const std::vector<float> c0 = random_vec(static_cast<std::size_t>(m * n), seed + 2);
      const auto where = [&](const char* what, std::int64_t i) {
        return ::testing::Message() << kernel_isa_name(isa) << " " << what << " " << i
                                    << " m=" << m << " n=" << n << " k=" << k
                                    << " beta=" << beta << " relu=" << relu;
      };

      // C = A·B against each row alone and each column alone.
      std::vector<float> c = c0;
      gemm(m, n, k, a.data(), k, b.data(), n, beta, c.data(), n, false, relu);
      for (std::int64_t i = 0; i < m; ++i) {
        std::vector<float> row(c0.begin() + i * n, c0.begin() + (i + 1) * n);
        gemm(1, n, k, a.data() + i * k, k, b.data(), n, beta, row.data(), n, false, relu);
        ASSERT_EQ(0, std::memcmp(row.data(), c.data() + i * n, row.size() * sizeof(float)))
            << where("row", i);
      }
      for (std::int64_t j = 0; j < n; ++j) {
        std::vector<float> col = c0;
        gemm(m, 1, k, a.data(), k, b.data() + j, n, beta, col.data() + j, n, false, relu);
        for (std::int64_t i = 0; i < m; ++i)
          ASSERT_EQ(0, std::memcmp(&col[static_cast<std::size_t>(i * n + j)],
                                   &c[static_cast<std::size_t>(i * n + j)], sizeof(float)))
              << where("column", j);
      }

      // Y = X·Wᵀ, X = A (m x k), W = Bᵀ read as n x k rows: row i is W·x_i.
      const std::vector<float> w = random_vec(static_cast<std::size_t>(n * k), seed + 3);
      std::vector<float> y = c0;
      gemm(m, n, k, a.data(), k, w.data(), k, beta, y.data(), n, true, relu);
      for (std::int64_t i = 0; i < m; ++i) {
        std::vector<float> wx(c0.begin() + i * n, c0.begin() + (i + 1) * n);
        gemm(n, 1, k, w.data(), k, a.data() + i * k, 1, beta, wx.data(), 1, false, relu);
        ASSERT_EQ(0, std::memcmp(wx.data(), y.data() + i * n, wx.size() * sizeof(float)))
            << where("W·x row", i);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Patch view: gemm_patches packs each B strip straight from a
// zero-bordered copy of the image. Every packed strip must hold the
// values of the materialized patch matrix in the same order, so the
// product equals gemm on im2col_ref byte for byte, under every ISA.
// Output widths below, at and off a multiple of NR make strips span
// output rows; stride 4 and pad 2 stress the bordered copy's slack;
// k_dim > KC packs B over several panels; each image group after the
// first sits at an offset into the image.

TEST(GemmPatches, BitwiseEqualToMaterializedPatchMatrixUnderEveryIsa) {
  IsaGuard guard;
  int multi_panel = 0;
  for (KernelIsa isa : available_isas()) {
    set_kernel_isa(isa);
    const int nr = gemm_blocking().nr;
    const int kc = gemm_blocking().kc;
    std::uint64_t seed = 9100;
    for (const int K : {1, 2, 3, 5, 7, 11})
      for (const int stride : {1, 2, 4})
        for (const int pad : {0, 1, 2})
          for (const int OW : {3, nr, 2 * nr + 3})
            for (const int cig : {1, 3, 30}) {
              const int groups = 2, m = 7, OH = 3;
              const int H = (OH - 1) * stride + K - 2 * pad;
              const int W = (OW - 1) * stride + K - 2 * pad;
              if (H < 1 || W < 1) continue;
              const std::int64_t k_dim = static_cast<std::int64_t>(cig) * K * K;
              const std::int64_t n = static_cast<std::int64_t>(OH) * OW;
              const std::vector<float> x = random_vec(
                  static_cast<std::size_t>(groups) * cig * H * W, ++seed);
              const std::vector<float> a = random_vec(static_cast<std::size_t>(m * k_dim), ++seed);
              const std::vector<float> c0 = random_vec(static_cast<std::size_t>(m * n), ++seed);
              std::vector<float> col;
              for (int g = 0; g < groups; ++g) {
                const float* ximg = x.data() + static_cast<std::int64_t>(g) * cig * H * W;
                im2col_ref(ximg, cig, H, W, K, K, stride, pad, OH, OW, col);
                const ConvPatches patches{ximg, cig, H, W, K, K, stride, pad, OH, OW};
                for (const float beta : {0.0f, 1.0f})
                  for (const bool relu : {false, true}) {
                    std::vector<float> want = c0, got = c0;
                    gemm(m, n, k_dim, a.data(), k_dim, col.data(), n, beta, want.data(), n,
                         false, relu);
                    gemm_patches(m, a.data(), k_dim, patches, beta, got.data(), n, relu);
                    ASSERT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(float)))
                        << kernel_isa_name(isa) << " K=" << K << " stride=" << stride
                        << " pad=" << pad << " OW=" << OW << " cig=" << cig << " g=" << g
                        << " beta=" << beta << " relu=" << relu;
                  }
              }
              multi_panel += k_dim > kc;
            }
  }
  EXPECT_GT(multi_panel, 0);
}

// ---------------------------------------------------------------------------
// Scratch arena + instrumentation

TEST(GemmScratchArena, GrowsOnceAndReportsBytes) {
  // Force an allocation large enough to be new.
  GemmScratch& s = GemmScratch::local();
  (void)s.packed_b(1 << 12);
  const std::int64_t after_first = gemm_scratch_bytes();
  EXPECT_GE(after_first, static_cast<std::int64_t>((1 << 12) * sizeof(float)));
  EXPECT_GT(s.bytes(), 0u);

  // Same-size reuse must not grow the arena.
  (void)s.packed_b(1 << 12);
  EXPECT_EQ(gemm_scratch_bytes(), after_first);
}

TEST(GemmMetrics, CountersAndScratchGauge) {
  metrics().reset();
  set_metrics_enabled(true);

  const std::vector<float> a = random_vec(40 * 600, 8);
  const std::vector<float> b = random_vec(600 * 50, 9);
  std::vector<float> c(40 * 50, 0.0f);
  gemm(40, 50, 600, a.data(), 600, b.data(), 50, 0.0f, c.data(), 50);

  // Trip a fresh scratch growth while metrics are on so the gauge is set.
  (void)GemmScratch::local().packed_b(
      static_cast<std::size_t>(gemm_scratch_bytes()) / sizeof(float) + 4096);

  const MetricsSnapshot snap = metrics().snapshot();
  set_metrics_enabled(false);

  EXPECT_GE(snap.counter("gemm.calls"), 1);
  EXPECT_GE(snap.counter("gemm.flops"), 2LL * 40 * 50 * 600);
  const GemmBlocking bl = gemm_blocking();
  const std::int64_t want_tiles = ((40 + bl.mr - 1) / bl.mr) * ((50 + bl.nr - 1) / bl.nr) *
                                  ((600 + bl.kc - 1) / bl.kc);
  EXPECT_GE(snap.counter("gemm.tiles"), want_tiles);

  std::int64_t gauge = -1;
  for (const auto& g : snap.gauges)
    if (g.name == "tensor.scratch.bytes") gauge = g.value;
  EXPECT_GT(gauge, 0) << "tensor.scratch.bytes gauge not set";
  EXPECT_EQ(gauge, gemm_scratch_bytes());
}

}  // namespace
}  // namespace mupod
