// Property battery for the integer GEMM backend (src/tensor/qgemm.cpp).
//
// The kernels are EXACT: int8 accumulates in int32 (products bounded by
// 2^14, k far below the 2^17 overflow horizon here), int16 in int32 when
// the epilogue's derived operand bounds prove k*max|A|*max|B| + max|bias|
// + 2^(t-1) < 2^31 and in int64 otherwise, int32 in int64 — so unlike the
// float GEMM tests there is no tolerance anywhere: every comparison
// against the naive int64 reference is ASSERT_EQ or memcmp.
// Covered here:
//   * randomized GEMM vs naive int64 reference across edge shapes (M=1,
//     K=1, ragged tiles around the kQMr x kQNr micro-tile), both operand
//     orientations (trans_b), both bias axes, both store epilogues;
//   * saturating requantize-on-store exactness (apply_requant is the
//     committed scalar contract) and saturation counting;
//   * quantize-on-load saturation at the +-2^(I+F) grid boundaries and
//     bit-compatibility with quant/fixed_point's quantize_tensor;
//   * the int32-accumulator path and its SIMD store epilogue under every
//     available ISA: narrow-range int16 operands, calls just under and
//     just over the bound, requantize shifts t = 1 and t = 30 at the
//     clamp edges (saturation counts included), both bias axes, full and
//     ragged tiles;
//   * the patch-view conv (B packed straight from the image) against a
//     materialized im2col reference, memcmp, over strides, pads, output
//     widths and groups;
//   * bitwise determinism across worker counts;
//   * the metamorphic emulated-vs-executed check: a conv layer run with
//     the float kQuantize emulation and through the integer path agree to
//     within one accumulator step (the requantize ULP) per output.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "compile/compiled_network.hpp"
#include "compile/graph_compiler.hpp"
#include "nn/layers.hpp"
#include "obs/metrics.hpp"
#include "quant/fixed_point.hpp"
#include "quant/qexec.hpp"
#include "stats/rng.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/parallel.hpp"
#include "tensor/qgemm.hpp"

namespace mupod {
namespace {

// Random integers spanning the full representable range of `bits`-wide
// signed operands (inclusive of the extremes, to stress saturation).
std::vector<std::int32_t> random_ints(std::size_t n, int bits, std::uint64_t seed) {
  std::vector<std::int32_t> v(n);
  Rng rng(seed);
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  for (auto& x : v)
    x = static_cast<std::int32_t>(lo + static_cast<std::int64_t>(rng.uniform_index(
                                           static_cast<std::uint64_t>(hi - lo + 1))));
  return v;
}

template <typename T>
std::vector<T> narrow(const std::vector<std::int32_t>& v) {
  std::vector<T> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = static_cast<T>(v[i]);
  return out;
}

// Naive reference accumulating in int64 — the ground truth every kernel
// instantiation must match bit-for-bit.
void ref_qgemm(std::int64_t m, std::int64_t n, std::int64_t k, const std::int32_t* a,
               std::int64_t lda, const std::int32_t* b, std::int64_t ldb, bool trans_b,
               std::vector<std::int64_t>& acc) {
  acc.assign(static_cast<std::size_t>(m * n), 0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t s = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const std::int64_t bv = trans_b ? b[j * ldb + kk] : b[kk * ldb + j];
        s += static_cast<std::int64_t>(a[i * lda + kk]) * bv;
      }
      acc[static_cast<std::size_t>(i * n + j)] = s;
    }
}

// No padding bytes: gtest names each case by dumping the struct's bytes,
// so padding would make the test names differ from run to run. trans_b
// is an int32 (0/1) rather than a bool for that reason.
struct QCase {
  std::int64_t m, n, k;
  std::int32_t trans_b;
  std::int32_t bias;  // 0 = none, 1 = bias_row, 2 = bias_col
};
static_assert(sizeof(QCase) == 3 * sizeof(std::int64_t) + 2 * sizeof(std::int32_t));

// Shapes chosen around the kQMr x kQNr = 4 x 16 micro-tile: degenerate
// extents, exact multiples, and ragged remainders on both axes. Large
// enough cases cross the serial-MAC cutoff so tile tasks really fan out.
std::vector<QCase> qgemm_cases() {
  std::vector<QCase> cases = {
      {1, 1, 1, false, 0},
      {1, 1, 1, true, 1},
      {1, 257, 3, false, 2},
      {257, 1, 5, false, 1},  // GEMV shape (batch-1 inner product)
      {3, 4, 1, true, 0},     // K = 1
      {kQMr, kQNr, 7, false, 1},
      {kQMr + 1, kQNr + 1, 9, false, 2},      // one past a full tile
      {3 * kQMr - 1, 2 * kQNr - 3, 33, true, 1},  // ragged both axes
      {2 * kQMr, 4 * kQNr, 64, false, 0},
      {37, 53, 129, true, 2},
      {64, 96, 256, false, 1},  // big enough to cross the parallel cutoff
  };
  return cases;
}

template <typename T>
void run_dequant_case(QType type, const QCase& p, std::uint64_t seed) {
  const int bits = qtype_bits(type) == 32 ? 15 : qtype_bits(type);  // keep int32 ops modest
  const std::int64_t lda = p.k, ldb = p.trans_b ? p.k : p.n, ldc = p.n;
  const auto a32 = random_ints(static_cast<std::size_t>(p.m * p.k), bits, seed);
  const auto b32 = random_ints(static_cast<std::size_t>(p.k * p.n), bits, seed + 1);
  const auto a = narrow<T>(a32);
  const auto b = narrow<T>(b32);

  std::vector<std::int64_t> bias;
  QGemmEpilogue ep;
  ep.scale = 1.0 / 64.0;
  if (p.bias == 1) {
    bias.resize(static_cast<std::size_t>(p.m));
    Rng rng(seed + 2);
    for (auto& v : bias) v = static_cast<std::int64_t>(rng.uniform_index(100000)) - 50000;
    ep.bias_row = bias.data();
  } else if (p.bias == 2) {
    bias.resize(static_cast<std::size_t>(p.n));
    Rng rng(seed + 3);
    for (auto& v : bias) v = static_cast<std::int64_t>(rng.uniform_index(100000)) - 50000;
    ep.bias_col = bias.data();
  }

  std::vector<float> c(static_cast<std::size_t>(p.m * p.n), -1.0f);
  qgemm(type, p.m, p.n, p.k, a.data(), lda, b.data(), ldb, c.data(), ldc, ep, p.trans_b);

  std::vector<std::int64_t> acc;
  ref_qgemm(p.m, p.n, p.k, a32.data(), lda, b32.data(), ldb, p.trans_b, acc);
  for (std::int64_t i = 0; i < p.m; ++i)
    for (std::int64_t j = 0; j < p.n; ++j) {
      std::int64_t v = acc[static_cast<std::size_t>(i * p.n + j)];
      if (p.bias == 1) v += bias[static_cast<std::size_t>(i)];
      if (p.bias == 2) v += bias[static_cast<std::size_t>(j)];
      const float want = static_cast<float>(static_cast<double>(v) * ep.scale);
      ASSERT_EQ(c[static_cast<std::size_t>(i * ldc + j)], want)
          << qtype_name(type) << " " << p.m << "x" << p.n << "x" << p.k << " at (" << i << ","
          << j << ")";
    }
}

class QGemmVsReference : public ::testing::TestWithParam<QCase> {};

TEST_P(QGemmVsReference, DequantStoreExactInt8) {
  run_dequant_case<std::int8_t>(QType::kInt8, GetParam(), 11);
}

TEST_P(QGemmVsReference, DequantStoreExactInt16) {
  run_dequant_case<std::int16_t>(QType::kInt16, GetParam(), 22);
}

TEST_P(QGemmVsReference, DequantStoreExactInt32) {
  run_dequant_case<std::int32_t>(QType::kInt32, GetParam(), 33);
}

TEST_P(QGemmVsReference, RequantStoreExactInt16) {
  const QCase& p = GetParam();
  const std::int64_t lda = p.k, ldb = p.trans_b ? p.k : p.n, ldc = p.n;
  const auto a32 = random_ints(static_cast<std::size_t>(p.m * p.k), 16, 44);
  const auto b32 = random_ints(static_cast<std::size_t>(p.k * p.n), 16, 45);
  const auto a = narrow<std::int16_t>(a32);
  const auto b = narrow<std::int16_t>(b32);

  QGemmEpilogue ep;
  ep.quant_store = true;
  ep.requant = make_requant(0.0003721);  // an arbitrary awkward scale
  ep.lo = -32768;
  ep.hi = 32767;
  std::atomic<std::int64_t> sat{0};
  ep.saturated = &sat;

  std::vector<std::int16_t> c(static_cast<std::size_t>(p.m * p.n), -1);
  qgemm(QType::kInt16, p.m, p.n, p.k, a.data(), lda, b.data(), ldb, c.data(), ldc, ep, p.trans_b);

  std::vector<std::int64_t> acc;
  ref_qgemm(p.m, p.n, p.k, a32.data(), lda, b32.data(), ldb, p.trans_b, acc);
  std::int64_t want_sat = 0;
  for (std::int64_t i = 0; i < p.m; ++i)
    for (std::int64_t j = 0; j < p.n; ++j) {
      std::int32_t q = apply_requant(acc[static_cast<std::size_t>(i * p.n + j)], ep.requant);
      if (q < ep.lo) { q = ep.lo; ++want_sat; }
      if (q > ep.hi) { q = ep.hi; ++want_sat; }
      ASSERT_EQ(c[static_cast<std::size_t>(i * ldc + j)], static_cast<std::int16_t>(q))
          << p.m << "x" << p.n << "x" << p.k << " at (" << i << "," << j << ")";
    }
  EXPECT_EQ(sat.load(), want_sat);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QGemmVsReference, ::testing::ValuesIn(qgemm_cases()));

// ---------------------------------------------------------------------------
// Requantize saturation: a multiplier big enough to push accumulators past
// the clamp must clip every element and count every clip.
TEST(QGemmRequant, SaturatesAtClampBoundaries) {
  const std::int64_t m = 3, n = 17, k = 4;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k), 100);
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n), 100);  // acc = 4 * 10000 = 40000
  QGemmEpilogue ep;
  ep.quant_store = true;
  ep.requant = make_requant(1.0);  // identity: q = acc = 40000, way past int8
  ep.lo = -128;
  ep.hi = 127;
  std::atomic<std::int64_t> sat{0};
  ep.saturated = &sat;
  std::vector<std::int8_t> c(static_cast<std::size_t>(m * n), 0);
  qgemm(QType::kInt8, m, n, k, a.data(), k, b.data(), n, c.data(), n, ep);
  for (std::int8_t v : c) EXPECT_EQ(v, 127);
  EXPECT_EQ(sat.load(), m * n);

  // Mirror image: negative accumulators clamp at lo.
  for (auto& v : a) v = -100;
  sat.store(0);
  qgemm(QType::kInt8, m, n, k, a.data(), k, b.data(), n, c.data(), n, ep);
  for (std::int8_t v : c) EXPECT_EQ(v, -128);
  EXPECT_EQ(sat.load(), m * n);
}

// make_requant + apply_requant realize round-to-nearest of acc * real
// within one ULP of the q31 representation, and exactly for powers of two.
TEST(QGemmRequant, PowerOfTwoMultipliersAreExact) {
  for (int sh = -8; sh <= 8; ++sh) {
    const double real = std::exp2(static_cast<double>(sh));
    const QRequant rq = make_requant(real);
    for (std::int64_t acc : {0ll, 1ll, -1ll, 255ll, -255ll, 4095ll, -4096ll, 123456ll}) {
      const double want_d = static_cast<double>(acc) * real;
      // Ties round toward +inf (add-half-then-floor), matching the kernel.
      const std::int64_t want = static_cast<std::int64_t>(std::floor(want_d + 0.5));
      ASSERT_EQ(apply_requant(acc, rq), static_cast<std::int32_t>(want))
          << "acc=" << acc << " shift=" << sh;
    }
  }
}

// ---------------------------------------------------------------------------
// quantize_to: bit-compatible with quantize_tensor on the same grid, and
// saturating exactly at the +-2^(I+F) boundary counts.
TEST(QuantizeTo, MatchesQuantizeTensorOnTheGrid) {
  FixedPointFormat fmt;
  fmt.integer_bits = 3;
  fmt.fraction_bits = 4;  // step 1/16, range [-4, 4 - 1/16]
  const int bits = fmt.total_bits();
  const std::int32_t hi = (1 << (bits - 1)) - 1;
  const std::int32_t lo = -(1 << (bits - 1));

  Tensor t(Shape({1, 1, 8, 16}));
  Rng rng(99);
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(-6.0, 6.0));  // past both boundaries
  t[0] = 0.0f;
  t[1] = 1e9f;    // deep saturation high
  t[2] = -1e9f;   // deep saturation low
  t[3] = 4.0f - 1.0f / 16.0f;   // exactly max_value
  t[4] = -4.0f;                 // exactly min_value
  t[5] = 4.0f;                  // one step past max -> saturates

  std::vector<std::int16_t> q(static_cast<std::size_t>(t.numel()));
  const std::int64_t sat =
      quantize_to(QType::kInt16, t.data(), t.numel(), fmt.step(), lo, hi, q.data());

  Tensor emulated = t;
  quantize_tensor(emulated, fmt);
  std::int64_t want_sat = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    ASSERT_EQ(static_cast<double>(q[static_cast<std::size_t>(i)]) * fmt.step(),
              static_cast<double>(emulated[i]))
        << "element " << i << " value " << t[i];
    const double grid = std::nearbyint(static_cast<double>(t[i]) / fmt.step());
    if (grid > hi || grid < lo) ++want_sat;
  }
  EXPECT_EQ(sat, want_sat);
  EXPECT_GE(sat, 3);  // the hand-planted boundary values alone
}

// ---------------------------------------------------------------------------
// Bitwise determinism across worker counts — integer addition is
// associative, so this is an equality on bytes, not a tolerance.
TEST(QGemmDeterminism, BitIdenticalAcrossWorkerCounts) {
  const std::int64_t m = 61, n = 83, k = 210;  // ragged, above the MAC cutoff
  const auto a32 = random_ints(static_cast<std::size_t>(m * k), 16, 7);
  const auto b32 = random_ints(static_cast<std::size_t>(k * n), 16, 8);
  const auto a = narrow<std::int16_t>(a32);
  const auto b = narrow<std::int16_t>(b32);
  QGemmEpilogue ep;
  ep.scale = 1.0 / 1024.0;

  std::vector<std::vector<float>> results;
  for (const int workers : {1, 2, 4}) {
    set_parallel_worker_count(workers);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    qgemm(QType::kInt16, m, n, k, a.data(), k, b.data(), n, c.data(), n, ep);
    results.push_back(std::move(c));
  }
  set_parallel_worker_count(0);  // restore the default pool
  for (std::size_t w = 1; w < results.size(); ++w)
    for (std::size_t i = 0; i < results[0].size(); ++i)
      ASSERT_EQ(results[0][i], results[w][i]) << "worker config " << w << " element " << i;
}

// ---------------------------------------------------------------------------
// Per-ISA bit equality. Integer kernels compute exact products in modular
// arithmetic, so EVERY compiled ISA variant (scalar templates, AVX2
// vpmaddwd pair kernel, vpmaddubsw quad fast path, GEMV dot kernels) must
// produce byte-identical outputs — across ISAs AND worker counts
// simultaneously. memcmp, not tolerance.

struct IsaGuard {
  KernelIsa saved = kernel_isa();
  ~IsaGuard() { set_kernel_isa(saved); }
};

std::vector<KernelIsa> available_isas() {
  std::vector<KernelIsa> v;
  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx2Fma})
    if (kernel_isa_available(isa)) v.push_back(isa);
  return v;
}

template <typename T>
void run_isa_equality_case(QType type, std::int64_t m, std::int64_t n, std::int64_t k,
                           int bits, bool trans_b, std::uint64_t seed) {
  const std::int64_t lda = k, ldb = trans_b ? k : n, ldc = n;
  const auto a32 = random_ints(static_cast<std::size_t>(m * k), bits, seed);
  const auto b32 = random_ints(static_cast<std::size_t>(k * n), bits, seed + 1);
  const auto a = narrow<T>(a32);
  const auto b = narrow<T>(b32);
  QGemmEpilogue ep;
  ep.quant_store = true;
  ep.requant = make_requant(0.0007391);
  ep.lo = -(std::int32_t{1} << (bits - 1));
  ep.hi = (std::int32_t{1} << (bits - 1)) - 1;

  IsaGuard guard;
  set_kernel_isa(KernelIsa::kScalar);
  std::vector<T> want(static_cast<std::size_t>(m * n), T(-1));
  qgemm(type, m, n, k, a.data(), lda, b.data(), ldb, want.data(), ldc, ep, trans_b);

  for (KernelIsa isa : available_isas()) {
    for (const int workers : {1, 3}) {
      set_kernel_isa(isa);
      set_parallel_worker_count(workers);
      std::vector<T> got(static_cast<std::size_t>(m * n), T(-2));
      qgemm(type, m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc, ep, trans_b);
      set_parallel_worker_count(0);
      ASSERT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(T)))
          << kernel_isa_name(isa) << " workers=" << workers << " " << qtype_name(type) << " "
          << m << "x" << n << "x" << k << " bits=" << bits;
    }
  }
}

TEST(QGemmKernelIsa, Int8ByteIdenticalAcrossIsasAndWorkers) {
  // Full-range int8 -> the vpmaddwd pair kernel (quad path ineligible).
  run_isa_equality_case<std::int8_t>(QType::kInt8, 37, 53, 129, 8, false, 101);
  run_isa_equality_case<std::int8_t>(QType::kInt8, 61, 83, 210, 8, true, 102);
  run_isa_equality_case<std::int8_t>(QType::kInt8, 5, 17, 1, 8, false, 103);  // K = 1
}

TEST(QGemmKernelIsa, Int8MaddubsFastPathByteIdentical) {
  // 7-bit B operands (|b| <= 64) select the vpmaddubsw offset-trick
  // kernel on AVX2; its -128*colsum compensation must cancel exactly.
  run_isa_equality_case<std::int8_t>(QType::kInt8, 37, 53, 129, 7, false, 201);
  run_isa_equality_case<std::int8_t>(QType::kInt8, 29, 31, 64, 5, true, 202);
  run_isa_equality_case<std::int8_t>(QType::kInt8, 4, 16, 257, 7, false, 203);  // odd k tail
}

TEST(QGemmKernelIsa, MaddubsEligibilityDispatchesAsCounted) {
  // Guard against the fast path silently decaying: with AVX2 available,
  // a 7-bit B operand must route through the maddubs kernel and a
  // full-range one through the pair kernel, visible in the dispatch
  // counters.
  if (!kernel_isa_available(KernelIsa::kAvx2)) GTEST_SKIP() << "AVX2 kernels not compiled/usable";
  IsaGuard guard;
  set_kernel_isa(KernelIsa::kAvx2);
  metrics().reset();
  set_metrics_enabled(true);
  const std::int64_t m = 8, n = 32, k = 40;
  const auto a = narrow<std::int8_t>(random_ints(static_cast<std::size_t>(m * k), 8, 71));
  const auto b7 = narrow<std::int8_t>(random_ints(static_cast<std::size_t>(k * n), 7, 72));
  const auto b8 = narrow<std::int8_t>(random_ints(static_cast<std::size_t>(k * n), 8, 73));
  QGemmEpilogue ep;
  ep.scale = 1.0 / 64.0;
  std::vector<float> c(static_cast<std::size_t>(m * n));
  qgemm(QType::kInt8, m, n, k, a.data(), k, b7.data(), n, c.data(), n, ep);
  EXPECT_EQ(metrics().counter("kernel.qgemm.maddubs").value(), 1);
  qgemm(QType::kInt8, m, n, k, a.data(), k, b8.data(), n, c.data(), n, ep);
  // b8 spans the full int8 range (seeded wide), so it must take the pair
  // kernel unless the draw landed entirely inside [-64, 64].
  EXPECT_EQ(metrics().counter("kernel.qgemm.maddubs").value() +
                metrics().counter("kernel.qgemm.madd").value(),
            2);
  set_metrics_enabled(false);
}

TEST(QGemmKernelIsa, Int8GemvByteIdentical) {
  // n == 1 takes the qdot8 row-dot path on AVX2 (the batch-1 FC shape).
  run_isa_equality_case<std::int8_t>(QType::kInt8, 257, 1, 300, 8, false, 301);
  run_isa_equality_case<std::int8_t>(QType::kInt8, 1000, 1, 1024, 8, false, 302);
}

TEST(QGemmKernelIsa, Int16ByteIdenticalAcrossIsasAndWorkers) {
  // Full-range int16 INCLUDING -32768: the driver must detect it and
  // fall back to the exact path, still byte-identical.
  run_isa_equality_case<std::int16_t>(QType::kInt16, 37, 53, 129, 16, false, 401);
  run_isa_equality_case<std::int16_t>(QType::kInt16, 61, 83, 210, 16, true, 402);
  // 15-bit operands cannot hit the vpmaddwd corner -> SIMD path runs.
  run_isa_equality_case<std::int16_t>(QType::kInt16, 37, 53, 129, 15, false, 403);
  run_isa_equality_case<std::int16_t>(QType::kInt16, 257, 1, 300, 15, false, 404);  // GEMV
}

TEST(QGemmKernelIsa, QuantizeToByteIdenticalAcrossIsas) {
  // The vectorized quantize-on-load must match the scalar grid contract
  // bit-for-bit, including NaN -> 0, saturation clamps, and the count.
  const std::int64_t n = 1003;  // odd: exercises the vector tail
  std::vector<float> x(static_cast<std::size_t>(n));
  Rng rng(777);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-600.0, 600.0));
  x[0] = std::numeric_limits<float>::quiet_NaN();
  x[1] = std::numeric_limits<float>::infinity();
  x[2] = -std::numeric_limits<float>::infinity();
  x[3] = 0.5f;   // rounds to even: 0
  x[4] = 1.5f;   // rounds to even: 2
  x[5] = -0.5f;
  const double step = 1.0 / 8.0;

  IsaGuard guard;
  for (QType type : {QType::kInt8, QType::kInt16}) {
    const int bits = qtype_bits(type);
    const std::int32_t hi = (std::int32_t{1} << (bits - 1)) - 1;
    const std::int32_t lo = -(std::int32_t{1} << (bits - 1));
    set_kernel_isa(KernelIsa::kScalar);
    std::vector<std::int16_t> want16(static_cast<std::size_t>(n));
    std::vector<std::int8_t> want8(static_cast<std::size_t>(n));
    void* want = type == QType::kInt8 ? static_cast<void*>(want8.data())
                                      : static_cast<void*>(want16.data());
    const std::int64_t want_sat = quantize_to(type, x.data(), n, step, lo, hi, want);

    for (KernelIsa isa : available_isas()) {
      set_kernel_isa(isa);
      std::vector<std::int16_t> got16(static_cast<std::size_t>(n), 99);
      std::vector<std::int8_t> got8(static_cast<std::size_t>(n), 99);
      void* got = type == QType::kInt8 ? static_cast<void*>(got8.data())
                                       : static_cast<void*>(got16.data());
      const std::int64_t got_sat = quantize_to(type, x.data(), n, step, lo, hi, got);
      EXPECT_EQ(got_sat, want_sat) << kernel_isa_name(isa) << " " << qtype_name(type);
      ASSERT_EQ(0, std::memcmp(want, got, static_cast<std::size_t>(n) * qtype_bytes(type)))
          << kernel_isa_name(isa) << " " << qtype_name(type);
    }
  }
}

// ---------------------------------------------------------------------------
// int32 accumulators and the SIMD store epilogue. The operand bounds
// (ep.a_max, ep.bias_max) let int16 calls accumulate in int32 and full
// tiles store through the registry's int32 entry; whichever path runs,
// every output byte and the saturation count must equal the naive int64
// reference — under every available ISA and worker count.

// The reference store of every element: bias, then the dequantize or the
// requantize + ReLU + clamp, all in int64.
template <typename T>
std::vector<unsigned char> ref_store(std::int64_t m, std::int64_t n,
                                     const std::vector<std::int64_t>& acc,
                                     const QGemmEpilogue& ep, std::int64_t* sat) {
  const std::size_t elem = ep.quant_store ? sizeof(T) : sizeof(float);
  std::vector<unsigned char> out(static_cast<std::size_t>(m * n) * elem);
  *sat = 0;
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t v = acc[static_cast<std::size_t>(i * n + j)];
      if (ep.bias_row != nullptr) v += ep.bias_row[i];
      else if (ep.bias_col != nullptr) v += ep.bias_col[j];
      unsigned char* dst = out.data() + static_cast<std::size_t>(i * n + j) * elem;
      if (!ep.quant_store) {
        float f = static_cast<float>(static_cast<double>(v) * ep.scale);
        if (ep.relu) f = f > 0.0f ? f : 0.0f;
        std::memcpy(dst, &f, sizeof f);
      } else {
        std::int32_t q = apply_requant(v, ep.requant);
        if (ep.relu) q = std::max(q, 0);
        const std::int32_t qc = std::min(std::max(q, ep.lo), ep.hi);
        *sat += qc != q;
        const T t = static_cast<T>(qc);
        std::memcpy(dst, &t, sizeof t);
      }
    }
  return out;
}

// Runs the call under every available ISA at 1 and 3 workers; memcmp
// against the reference, saturation counts equal.
template <typename T>
void expect_exact_everywhere(const std::string& what, std::int64_t m, std::int64_t n,
                             std::int64_t k, const std::vector<std::int32_t>& a32,
                             const std::vector<std::int32_t>& b32, bool trans_b,
                             QGemmEpilogue ep) {
  const QType type = sizeof(T) == 1 ? QType::kInt8 : QType::kInt16;
  const std::int64_t ldb = trans_b ? k : n;
  std::vector<std::int64_t> acc;
  ref_qgemm(m, n, k, a32.data(), k, b32.data(), ldb, trans_b, acc);
  std::int64_t want_sat = 0;
  const std::vector<unsigned char> want = ref_store<T>(m, n, acc, ep, &want_sat);
  const auto a = narrow<T>(a32);
  const auto b = narrow<T>(b32);

  IsaGuard guard;
  for (KernelIsa isa : available_isas()) {
    for (const int workers : {1, 3}) {
      set_kernel_isa(isa);
      set_parallel_worker_count(workers);
      std::atomic<std::int64_t> sat{0};
      ep.saturated = &sat;
      std::vector<unsigned char> got(want.size(), 0xAB);
      qgemm(type, m, n, k, a.data(), k, b.data(), ldb, got.data(), n, ep, trans_b);
      set_parallel_worker_count(0);
      ASSERT_EQ(0, std::memcmp(want.data(), got.data(), want.size()))
          << what << " " << kernel_isa_name(isa) << " workers=" << workers << " " << m << "x"
          << n << "x" << k;
      EXPECT_EQ(sat.load(), want_sat) << what << " " << kernel_isa_name(isa);
    }
  }
}

std::vector<std::int64_t> random_bias(std::size_t n, std::int64_t span, std::uint64_t seed) {
  std::vector<std::int64_t> v(n);
  Rng rng(seed);
  for (auto& x : v)
    x = static_cast<std::int64_t>(rng.uniform_index(static_cast<std::uint64_t>(2 * span + 1))) -
        span;
  return v;
}

std::int64_t max_abs(const std::vector<std::int64_t>& v) {
  std::int64_t m = 0;
  for (std::int64_t x : v) m = std::max(m, x < 0 ? -x : x);
  return m;
}

TEST(QGemmAcc32, NarrowInt16MatchesReferenceUnderEveryIsa) {
  // 8-bit A (the weights' range) x 10-bit B (activations) in int16
  // carriers: k * 128 * 512 stays far below 2^31, so the bound holds and
  // the pair32 kernel with the SIMD store runs on AVX2.
  struct Shape {
    std::int64_t m, n, k;
  };
  const Shape shapes[] = {{kQMr, kQNr, 40},           // one full tile
                          {2 * kQMr, 2 * kQNr, 129},  // full tiles, odd k
                          {7, 21, 33},                // ragged both axes
                          {13, 45, 64},
                          {64, 96, 256}};  // crosses the parallel cutoff
  std::uint64_t seed = 900;
  for (const Shape& s : shapes) {
    for (const bool trans_b : {false, true}) {
      for (int bias_axis = 0; bias_axis < 3; ++bias_axis) {
        for (int store = 0; store < 3; ++store) {
          const auto a32 = random_ints(static_cast<std::size_t>(s.m * s.k), 8, ++seed);
          const auto b32 = random_ints(static_cast<std::size_t>(s.k * s.n), 10, ++seed);
          const auto bias = random_bias(static_cast<std::size_t>(bias_axis == 1 ? s.m : s.n),
                                        50000, ++seed);
          QGemmEpilogue ep;
          ep.a_max = 128;
          if (bias_axis == 1) ep.bias_row = bias.data();
          if (bias_axis == 2) ep.bias_col = bias.data();
          if (bias_axis != 0) ep.bias_max = max_abs(bias);
          if (store == 0) {
            ep.scale = 1.0 / 4096.0;
          } else if (store == 1) {
            ep.scale = 1.0 / 4096.0;
            ep.relu = true;
          } else {
            ep.quant_store = true;
            ep.requant = make_requant(1.0 / 512.0);  // t = 9
            ep.lo = -512;
            ep.hi = 511;
            ep.relu = true;
          }
          expect_exact_everywhere<std::int16_t>(
              "narrow int16 bias=" + std::to_string(bias_axis) + " store=" +
                  std::to_string(store) + " trans_b=" + std::to_string(trans_b),
              s.m, s.n, s.k, a32, b32, trans_b, ep);
        }
      }
    }
  }
}

TEST(QGemmAcc32, CallsJustUnderAndJustOverTheBoundStayExact) {
  // k = 2 pairs of 32767 * 32767 sum to 2^31 - 131070; the bias closes
  // the gap to 2^31 - 1 (under: int32 path, the last representable value)
  // or to 2^31 (over: the int64 path must run). Both signs, full tile.
  const std::int64_t m = kQMr, n = kQNr, k = 2;
  const std::int64_t prod = 2 * std::int64_t{32767} * 32767;
  for (const int sign : {1, -1}) {
    for (const int t : {0, 1}) {  // dequantize, then requantize with t = 1
      const std::int64_t half = t > 0 ? 1 : 0;
      for (const std::int64_t over : {0, 1}) {
        const std::int64_t gap = (std::int64_t{1} << 31) - 1 - prod - half + over;
        const std::vector<std::int32_t> a32(static_cast<std::size_t>(m * k), sign * 32767);
        const std::vector<std::int32_t> b32(static_cast<std::size_t>(k * n), 32767);
        const std::vector<std::int64_t> bias(static_cast<std::size_t>(m), sign * gap);
        QGemmEpilogue ep;
        ep.a_max = 32767;
        ep.bias_row = bias.data();
        ep.bias_max = gap;
        if (t == 0) {
          ep.scale = 1.0 / 65536.0;
        } else {
          ep.quant_store = true;
          ep.requant = make_requant(0.5);
          ep.lo = -32768;
          ep.hi = 32767;
        }
        expect_exact_everywhere<std::int16_t>(
            "bound edge sign=" + std::to_string(sign) + " t=" + std::to_string(t) +
                " over=" + std::to_string(over),
            m, n, k, a32, b32, false, ep);
      }
    }
  }
  // The vpmaddwd corner: (-32768)^2 pairs sum to exactly 2^31, which the
  // bound rejects (it is not < 2^31); the exact int64 result must come out.
  const std::vector<std::int32_t> a32(static_cast<std::size_t>(m * k), -32768);
  const std::vector<std::int32_t> b32(static_cast<std::size_t>(k * n), -32768);
  QGemmEpilogue ep;
  ep.a_max = 32768;
  ep.scale = 1.0 / 65536.0;
  expect_exact_everywhere<std::int16_t>("-32768 corner", m, n, k, a32, b32, false, ep);
}

TEST(QGemmAcc32, ProvenBoundTakesThePairKernelEvenWithMinInt16) {
  // A B operand holding -32768 sends an unbounded int16 call to the plain
  // layout (the int64 pair kernel cannot exclude the corner); with a_max
  // proving the bound, the int32 pair kernel takes it — counted as madd,
  // like every int16 pair call.
  if (!kernel_isa_available(KernelIsa::kAvx2)) GTEST_SKIP() << "AVX2 kernels not compiled/usable";
  IsaGuard guard;
  set_kernel_isa(KernelIsa::kAvx2);
  const std::int64_t m = 8, n = 32, k = 64;
  const auto a32 = random_ints(static_cast<std::size_t>(m * k), 8, 1201);
  auto b32 = random_ints(static_cast<std::size_t>(k * n), 16, 1202);
  b32[5] = -32768;
  const auto a = narrow<std::int16_t>(a32);
  const auto b = narrow<std::int16_t>(b32);
  QGemmEpilogue ep;
  ep.scale = 1.0 / 65536.0;
  std::vector<float> c(static_cast<std::size_t>(m * n));
  metrics().reset();
  set_metrics_enabled(true);
  qgemm(QType::kInt16, m, n, k, a.data(), k, b.data(), n, c.data(), n, ep);
  EXPECT_EQ(metrics().counter("kernel.qgemm.scalar").value(), 1);
  ep.a_max = 128;  // 64 * 128 * 32768 = 2^28
  qgemm(QType::kInt16, m, n, k, a.data(), k, b.data(), n, c.data(), n, ep);
  EXPECT_EQ(metrics().counter("kernel.qgemm.madd").value(), 1);
  set_metrics_enabled(false);
  expect_exact_everywhere<std::int16_t>("min int16 with bound", m, n, k, a32, b32, false, ep);
}

TEST(QGemmAcc32, RequantShiftEdgesCountSaturationsLikeStoreTile) {
  // The accumulators are tiny (2-bit A, one B entry of 1: acc in
  // [-2, 1]); the per-column bias places v = acc + bias on the rounding
  // and clamp edges of shift t — q*2^t - 2^(t-1) rounds up to q, and
  // q*2^t + 2^(t-1) - 8 still to q — for q around lo and hi. t = 30 allows |q| <= 1 only (v + 2^29 < 2^31); the
  // largest v there leaves k * a_max * max|B| = 6 below the bound.
  struct Edge {
    int t;
    std::int32_t lo, hi;
  };
  for (const Edge e : {Edge{1, -128, 127}, Edge{1, -32768, 32767}, Edge{30, -1, 0}}) {
    std::vector<std::int64_t> vs;
    const std::int64_t step = std::int64_t{1} << e.t;
    const std::int64_t half = step / 2;
    const std::int64_t qmax = e.t == 30 ? 1 : e.hi + 2;
    for (const std::int64_t q : {std::int64_t{e.lo} - 2, std::int64_t{e.lo} - 1,
                                 std::int64_t{e.lo}, std::int64_t{e.lo} + 1,
                                 std::int64_t{e.hi} - 1, std::int64_t{e.hi},
                                 std::int64_t{e.hi} + 1, std::int64_t{e.hi} + 2,
                                 std::int64_t{-1}, std::int64_t{0}, std::int64_t{1}}) {
      if (q > qmax || q < -qmax) continue;
      vs.push_back(q * step - half);
      vs.push_back(q * step + half - 8);  // leaves room for |acc| <= 2
    }
    for (const bool ragged : {false, true}) {
      for (const bool relu : {false, true}) {
        const std::int64_t n = ragged ? static_cast<std::int64_t>(vs.size()) : 2 * kQNr;
        const std::int64_t m = ragged ? kQMr + 3 : kQMr;
        const std::int64_t k = 3;
        std::vector<std::int64_t> bias(static_cast<std::size_t>(n));
        for (std::size_t j = 0; j < bias.size(); ++j) bias[j] = vs[j % vs.size()];
        const auto a32 = random_ints(static_cast<std::size_t>(m * k), 2, 1300 + e.t);
        std::vector<std::int32_t> b32(static_cast<std::size_t>(k * n), 0);
        b32[0] = 1;
        QGemmEpilogue ep;
        ep.a_max = 2;
        ep.bias_col = bias.data();
        ep.bias_max = max_abs(bias);
        ep.quant_store = true;
        ep.requant = make_requant(std::ldexp(1.0, -e.t));
        ep.lo = e.lo;
        ep.hi = e.hi;
        ep.relu = relu;
        const std::string what = "t=" + std::to_string(e.t) + " hi=" + std::to_string(e.hi) +
                                 " ragged=" + std::to_string(ragged) +
                                 " relu=" + std::to_string(relu);
        if (e.hi > 127)
          expect_exact_everywhere<std::int16_t>(what, m, n, k, a32, b32, false, ep);
        else
          expect_exact_everywhere<std::int8_t>(what, m, n, k, a32, b32, false, ep);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Patch-view conv: Conv2DLayer::forward_integer packs B straight from the
// quantized image. It must equal, byte for byte, the same qgemm run on a
// materialized im2col matrix (built here, independently), per (image,
// group), under every available ISA.

template <typename T>
void im2col_ref(const T* x, int C, int H, int W, int K, int stride, int pad, int OH, int OW,
                std::vector<T>& col) {
  col.assign(static_cast<std::size_t>(C) * K * K * OH * OW, T(0));
  std::size_t idx = 0;
  for (int c = 0; c < C; ++c)
    for (int kh = 0; kh < K; ++kh)
      for (int kw = 0; kw < K; ++kw)
        for (int oh = 0; oh < OH; ++oh)
          for (int ow = 0; ow < OW; ++ow, ++idx) {
            const int ih = oh * stride - pad + kh, iw = ow * stride - pad + kw;
            if (ih >= 0 && ih < H && iw >= 0 && iw < W)
              col[idx] = x[(static_cast<std::size_t>(c) * H + ih) * W + iw];
          }
}

template <typename T>
void run_patch_conv_case(int act_bits, bool bounded, bool requant, int stride, int pad, int OW,
                         int groups, std::uint64_t seed) {
  const int K = 3, cig = 2, ocg = 5, N = 2, OH = OW == 1 ? 1 : 3;
  const int H = (OH - 1) * stride + K - 2 * pad;
  const int W = (OW - 1) * stride + K - 2 * pad;
  if (H < 1 || W < 1) return;  // a 1x1 output with pad 2 has no input
  Conv2DLayer::Config cfg;
  cfg.in_channels = cig * groups;
  cfg.out_channels = ocg * groups;
  cfg.kernel_h = cfg.kernel_w = K;
  cfg.stride = stride;
  cfg.pad = pad;
  cfg.groups = groups;
  const Conv2DLayer conv(cfg);
  const QType type = sizeof(T) == 1 ? QType::kInt8 : QType::kInt16;
  const std::int64_t k_dim = static_cast<std::int64_t>(cig) * K * K;

  const auto w = narrow<T>(random_ints(static_cast<std::size_t>(cfg.out_channels * k_dim),
                                       sizeof(T) == 1 ? 8 : 9, seed));
  const auto bias = random_bias(static_cast<std::size_t>(cfg.out_channels), 3000, seed + 1);
  QLayerBinding q;
  q.type = type;
  q.weights = w.data();
  q.bias = bias.data();
  q.act_step = 1.0 / 16.0;
  q.act_lo = -(1 << (act_bits - 1));
  q.act_hi = (1 << (act_bits - 1)) - 1;
  q.ep.relu = true;
  if (bounded) {
    q.ep.a_max = sizeof(T) == 1 ? 128 : 256;
    q.ep.bias_max = max_abs(bias);
  }
  if (requant) {
    q.ep.quant_store = true;
    q.ep.requant = make_requant(1.0 / 64.0);
    q.ep.lo = q.act_lo;
    q.ep.hi = q.act_hi;
  } else {
    q.ep.scale = 1.0 / 1024.0;
  }

  Tensor x(Shape({N, cfg.in_channels, H, W}));
  Rng rng(seed + 2);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(-0.6, 0.6) * (q.act_hi + 1) * q.act_step);
  const Shape ys = conv.output_shape(std::vector<Shape>{x.shape()});
  ASSERT_EQ(ys.w(), OW);

  // Reference: the same quantize-on-load, a materialized patch matrix,
  // and the same qgemm per (image, group).
  std::vector<T> xq(static_cast<std::size_t>(x.numel()));
  quantize_to(type, x.data(), x.numel(), q.act_step, q.act_lo, q.act_hi, xq.data());
  Tensor want(ys);
  const std::int64_t spatial = static_cast<std::int64_t>(OH) * OW;
  std::vector<T> col;
  for (int n = 0; n < N; ++n)
    for (int g = 0; g < groups; ++g) {
      const T* ximg = xq.data() + (static_cast<std::int64_t>(n) * cfg.in_channels + g * cig) * H * W;
      im2col_ref(ximg, cig, H, W, K, stride, pad, OH, OW, col);
      QGemmEpilogue ep = q.ep;
      ep.bias_row = bias.data() + g * ocg;
      const std::int64_t y_off = (static_cast<std::int64_t>(n) * cfg.out_channels + g * ocg) * spatial;
      void* yg = requant ? static_cast<void*>(reinterpret_cast<T*>(want.data()) + y_off)
                         : static_cast<void*>(want.data() + y_off);
      qgemm(type, ocg, spatial, k_dim, w.data() + g * ocg * k_dim, k_dim, col.data(), spatial, yg,
            spatial, ep);
    }
  const std::size_t bytes = requant ? static_cast<std::size_t>(want.numel()) * sizeof(T)
                                    : static_cast<std::size_t>(want.numel()) * sizeof(float);

  IsaGuard guard;
  for (KernelIsa isa : available_isas()) {
    set_kernel_isa(isa);
    Tensor got(ys);
    std::memset(got.data(), 0xAB, static_cast<std::size_t>(got.numel()) * sizeof(float));
    std::atomic<std::int64_t> sat{0};
    QLayerBinding qb = q;
    qb.ep.saturated = &sat;
    conv.forward_integer(qb, x, got);
    ASSERT_EQ(0, std::memcmp(want.data(), got.data(), bytes))
        << kernel_isa_name(isa) << " " << qtype_name(type) << " act_bits=" << act_bits
        << " bounded=" << bounded << " requant=" << requant << " stride=" << stride
        << " pad=" << pad << " OW=" << OW << " groups=" << groups;
  }
}

TEST(QConvPatches, FusedGatherMatchesMaterializedIm2col) {
  // OW 4 and 8 split a 16-column strip across output rows; 16 and 32 keep
  // it in one (the direct rows of a stride-1 conv); a 1x1 output is the
  // n == 1 GEMV.
  std::uint64_t seed = 1400;
  for (const int stride : {1, 2})
    for (const int pad : {0, 1, 2})
      for (const int OW : {1, 4, 8, 16, 32})
        for (const int groups : {1, 3}) {
          for (const bool requant : {false, true}) {
            ++seed;
            run_patch_conv_case<std::int8_t>(7, true, requant, stride, pad, OW, groups, seed);
            run_patch_conv_case<std::int8_t>(8, true, requant, stride, pad, OW, groups, seed);
            run_patch_conv_case<std::int16_t>(10, true, requant, stride, pad, OW, groups, seed);
            run_patch_conv_case<std::int16_t>(10, false, requant, stride, pad, OW, groups, seed);
          }
        }
}

// ---------------------------------------------------------------------------
// Metamorphic emulated-vs-executed agreement on a real conv layer.
//
// The float pipeline EMULATES a format by rounding the input and
// computing in fp32; the integer path quantizes input AND weights and
// accumulates exactly. With the weights already on their own grid
// (quantize_weights_uniform semantics baked into the lowering) the two
// computations differ only by (a) fp32 rounding of the emulated MACs and
// (b) the final dequantize multiply — both bounded well below one
// accumulator step acc_scale = act_step * w_step for the coarse formats
// used here. The assertion is |emulated - integer| <= acc_scale per
// output element: one ULP of the requantize grid.
TEST(QExecMetamorphic, ConvEmulatedAndIntegerAgreeWithinOneStep) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 8;
  cfg.kernel_h = 3;
  cfg.kernel_w = 3;
  cfg.stride = 1;
  cfg.pad = 1;
  Conv2DLayer conv(cfg);

  // Coarse formats keep acc_scale far above fp32 noise: act 2.4 (step
  // 1/16), weights 6 total bits.
  FixedPointFormat act_fmt;
  act_fmt.integer_bits = 2;
  act_fmt.fraction_bits = 4;
  const int weight_bits = 6;

  Rng rng(314);
  Tensor* w = conv.mutable_weights();
  for (std::int64_t i = 0; i < w->numel(); ++i)
    (*w)[i] = static_cast<float>(rng.gaussian(0.0, 0.3));
  Tensor* bias = conv.mutable_bias();
  for (std::int64_t i = 0; i < bias->numel(); ++i)
    (*bias)[i] = static_cast<float>(rng.gaussian(0.0, 0.1));

  Tensor x(Shape({2, 3, 9, 9}));
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(-1.5, 1.5));

  // Build a one-layer network so the lowering derives the weight format
  // exactly as quantize_weights_uniform would.
  Network net("one_conv");
  const int in_id = net.add_input("data", 3, 9, 9);
  const int conv_id = net.add("conv", std::make_unique<Conv2DLayer>(cfg), std::vector<int>{in_id});
  {
    Layer& l = net.layer(conv_id);
    *l.mutable_weights() = *conv.weights();
    *l.mutable_bias() = *conv.bias();
  }
  net.finalize();

  const CompiledNetwork qnet =
      GraphCompiler(CompileOptions::unfused(weight_bits)).compile(net, {conv_id}, {act_fmt});
  ASSERT_EQ(qnet.coverage().lowered, 1);
  const QLayerLowering& L = qnet.steps()[static_cast<std::size_t>(qnet.step_of_src(conv_id))].lw;
  const double acc_scale = act_fmt.step() * L.w_fmt.step();

  // Emulated: round input and weights onto their grids, compute in fp32.
  Tensor x_emu = x;
  quantize_tensor(x_emu, act_fmt);
  Network emu_net("one_conv_emu");
  const int ein = emu_net.add_input("data", 3, 9, 9);
  const int econv = emu_net.add("conv", std::make_unique<Conv2DLayer>(cfg), std::vector<int>{ein});
  {
    Layer& l = emu_net.layer(econv);
    *l.mutable_weights() = *conv.weights();
    *l.mutable_bias() = *conv.bias();
  }
  emu_net.finalize();
  emu_net.quantize_weights_uniform(weight_bits);
  const Tensor y_emulated = emu_net.forward(x_emu);

  const Tensor y_integer = qnet.forward(x);

  ASSERT_EQ(y_emulated.numel(), y_integer.numel());
  for (std::int64_t i = 0; i < y_emulated.numel(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(y_emulated[i]) - y_integer[i]), acc_scale)
        << "output " << i << ": emulated " << y_emulated[i] << " vs integer " << y_integer[i];
}

// The unfused integer-executed forward is itself bit-identical across
// worker counts (quantize-on-load chunks + qgemm tiles).
TEST(QExecDeterminism, QuantizedForwardBitIdenticalAcrossWorkers) {
  Conv2DLayer::Config cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 12;
  cfg.kernel_h = 3;
  cfg.kernel_w = 3;
  cfg.pad = 1;

  Network net("det_conv");
  const int in_id = net.add_input("data", 4, 16, 16);
  const int conv_id = net.add("conv", std::make_unique<Conv2DLayer>(cfg), std::vector<int>{in_id});
  Rng rng(2718);
  {
    Layer& l = net.layer(conv_id);
    Tensor* w = l.mutable_weights();
    for (std::int64_t i = 0; i < w->numel(); ++i)
      (*w)[i] = static_cast<float>(rng.gaussian(0.0, 0.2));
  }
  net.finalize();

  FixedPointFormat fmt;
  fmt.integer_bits = 4;
  fmt.fraction_bits = 8;
  const CompiledNetwork qnet =
      GraphCompiler(CompileOptions::unfused(16)).compile(net, {conv_id}, {fmt});

  Tensor x(Shape({4, 4, 16, 16}));
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.gaussian());

  std::vector<Tensor> ys;
  for (const int workers : {1, 3}) {
    set_parallel_worker_count(workers);
    ys.push_back(qnet.forward(x));
  }
  set_parallel_worker_count(0);
  ASSERT_EQ(ys[0].numel(), ys[1].numel());
  for (std::int64_t i = 0; i < ys[0].numel(); ++i)
    ASSERT_EQ(ys[0][i], ys[1][i]) << "element " << i;
}

}  // namespace
}  // namespace mupod
