// Kernel registry + runtime ISA dispatch (src/tensor/kernels/): the name
// round-trip and env-override parsing, availability clamping, registry
// geometry vs gemm_blocking(), the tensor.kernel.isa gauge, and the
// per-ISA SGEMM contracts — scalar-vs-SIMD agreement within the
// documented float bound, and bitwise determinism across worker counts
// within each fixed ISA. (Bitwise INTEGER equality across ISAs is
// asserted in test_qgemm_property.cpp, next to the exact-int64 battery.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "kernel_isas.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/parallel.hpp"

namespace mupod {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

TEST(KernelDispatch, NamesAndParseRoundTrip) {
  for (KernelIsa isa : kAllIsas) {
    KernelIsa parsed;
    ASSERT_TRUE(parse_kernel_isa(kernel_isa_name(isa), &parsed)) << kernel_isa_name(isa);
    EXPECT_EQ(parsed, isa);
  }
  KernelIsa parsed;
  EXPECT_TRUE(parse_kernel_isa("avx2_fma", &parsed));
  EXPECT_EQ(parsed, KernelIsa::kAvx2Fma);
  EXPECT_TRUE(parse_kernel_isa("fma", &parsed));
  EXPECT_EQ(parsed, KernelIsa::kAvx2Fma);
  EXPECT_FALSE(parse_kernel_isa("avx2", &parsed));  // the retired no-FMA tier
  EXPECT_FALSE(parse_kernel_isa("avx512", &parsed));
  EXPECT_FALSE(parse_kernel_isa("", &parsed));
  EXPECT_FALSE(parse_kernel_isa(nullptr, &parsed));
}

TEST(KernelDispatch, DetectedAndActiveIsasAreRunnable) {
  EXPECT_TRUE(kernel_isa_available(KernelIsa::kScalar));  // on every target
  EXPECT_TRUE(kernel_isa_available(detected_kernel_isa()));
  EXPECT_TRUE(kernel_isa_available(kernel_isa()));
}

TEST(KernelDispatch, ForcingAnIsaClampsToAvailable) {
  IsaGuard guard;
  for (KernelIsa want : kAllIsas) {
    set_kernel_isa(want);
    if (kernel_isa_available(want))
      EXPECT_EQ(kernel_isa(), want);
    else
      EXPECT_EQ(kernel_isa(), detected_kernel_isa());
  }
}

TEST(KernelDispatch, RegistryGeometryDrivesBlocking) {
  IsaGuard guard;
  for (KernelIsa isa : available_isas()) {
    set_kernel_isa(isa);
    const KernelRegistry& reg = kernel_registry();
    EXPECT_EQ(reg.isa, isa);
    ASSERT_NE(reg.sgemm_micro, nullptr);
    EXPECT_GE(reg.mr, 1);
    EXPECT_LE(reg.mr, kMaxMr);
    EXPECT_GE(reg.nr, 1);
    EXPECT_LE(reg.nr, kMaxNr);
    const GemmBlocking bl = gemm_blocking();
    EXPECT_EQ(bl.mr, reg.mr);
    EXPECT_EQ(bl.nr, reg.nr);
    EXPECT_EQ(bl.mc, 24 * reg.mr);
    EXPECT_EQ(bl.nc, 64 * reg.nr);
    if (isa == KernelIsa::kScalar) {
      // The generic qgemm templates ARE the scalar integer path.
      EXPECT_EQ(reg.qmicro_pair32, nullptr);
      EXPECT_EQ(reg.qstore_tile32, nullptr);
      EXPECT_EQ(reg.qdot8, nullptr);
      EXPECT_EQ(reg.quantize8, nullptr);
    } else {
      EXPECT_NE(reg.qmicro_pair32, nullptr);
      EXPECT_NE(reg.qmicro8_maddubs, nullptr);
      EXPECT_NE(reg.qmicro_pair64, nullptr);
      EXPECT_NE(reg.qpack_pair8, nullptr);
      EXPECT_NE(reg.qpack_pair16, nullptr);
      EXPECT_NE(reg.qpack_quad8, nullptr);
      EXPECT_NE(reg.qrange8, nullptr);
      EXPECT_NE(reg.qrange16, nullptr);
      EXPECT_NE(reg.qstore_tile32, nullptr);
      EXPECT_NE(reg.qdot8, nullptr);
      EXPECT_NE(reg.qdot16, nullptr);
      EXPECT_NE(reg.quantize8, nullptr);
      EXPECT_NE(reg.quantize16, nullptr);
    }
  }
}

TEST(KernelDispatch, IsaGaugeMirrorsActiveIsa) {
  IsaGuard guard;
  metrics().reset();
  set_metrics_enabled(true);
  for (KernelIsa isa : available_isas()) {
    set_kernel_isa(isa);
    const MetricsSnapshot snap = metrics().snapshot();
    std::int64_t gauge = -1;
    for (const auto& g : snap.gauges)
      if (g.name == "tensor.kernel.isa") gauge = g.value;
    EXPECT_EQ(gauge, static_cast<std::int64_t>(isa)) << kernel_isa_name(isa);
  }
  set_metrics_enabled(false);
}

// ---------------------------------------------------------------------------
// Per-ISA SGEMM agreement. The ISAs accumulate in different orders /
// with FMA contraction, so this is a tolerance check, not equality: each
// kernel's per-element error vs the exact (double) sum is bounded by
// ~eps * sqrt(k) * |row|·|col| for random +-1-scale data, so two kernels
// differ by at most twice the reference-test bound. Documented in
// docs/method.md §16.
TEST(KernelDispatch, SgemmAgreesAcrossIsasWithinBound) {
  const std::vector<KernelIsa> isas = available_isas();
  struct Case {
    std::int64_t m, n, k;
    float beta;
    bool trans_b;
  };
  const std::vector<Case> cases = {
      {1, 1, 9, 0.0f, false},   {257, 1, 33, 1.0f, false}, {7, 23, 65, 0.5f, true},
      {67, 45, 210, 0.0f, false}, {130, 70, 300, 0.5f, true},
  };
  IsaGuard guard;
  for (const Case& p : cases) {
    const std::int64_t lda = p.k, ldb = p.trans_b ? p.k : p.n, ldc = p.n;
    const std::vector<float> a = random_vec(static_cast<std::size_t>(p.m * p.k), 11);
    const std::vector<float> b = random_vec(static_cast<std::size_t>(p.k * p.n), 12);
    const std::vector<float> c0 = random_vec(static_cast<std::size_t>(p.m * p.n), 13);

    set_kernel_isa(KernelIsa::kScalar);
    std::vector<float> c_scalar = c0;
    gemm(p.m, p.n, p.k, a.data(), lda, b.data(), ldb, p.beta, c_scalar.data(), ldc, p.trans_b);

    const double tol = 2e-4 * std::max<double>(1.0, std::sqrt(static_cast<double>(p.k)));
    for (KernelIsa isa : isas) {
      if (isa == KernelIsa::kScalar) continue;
      set_kernel_isa(isa);
      std::vector<float> c = c0;
      gemm(p.m, p.n, p.k, a.data(), lda, b.data(), ldb, p.beta, c.data(), ldc, p.trans_b);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_NEAR(c[i], c_scalar[i], tol)
            << kernel_isa_name(isa) << " " << p.m << "x" << p.n << "x" << p.k << " element "
            << i;
    }
  }
}

// Within a fixed ISA the float GEMM stays bitwise independent of the
// worker count (one task per output tile per KC step, fixed k order).
TEST(KernelDispatch, SgemmBitIdenticalAcrossWorkersPerIsa) {
  const std::int64_t m = 61, n = 83, k = 300;  // ragged, above the MAC cutoff
  const std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), 21);
  const std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), 22);
  IsaGuard guard;
  for (KernelIsa isa : available_isas()) {
    set_kernel_isa(isa);
    std::vector<std::vector<float>> results;
    for (const int workers : {1, 2, 4}) {
      set_parallel_worker_count(workers);
      std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
      gemm(m, n, k, a.data(), k, b.data(), n, 0.0f, c.data(), n);
      results.push_back(std::move(c));
    }
    set_parallel_worker_count(0);
    for (std::size_t w = 1; w < results.size(); ++w)
      ASSERT_EQ(0, std::memcmp(results[0].data(), results[w].data(),
                               results[0].size() * sizeof(float)))
          << kernel_isa_name(isa) << " worker config " << w;
  }
}

}  // namespace
}  // namespace mupod
