// AVX2 micro-kernels (compiled with -mavx2, NO -mfma — the mul+add SGEMM
// entry here must stay contraction-free so kAvx2 float results are
// reproducible independent of compiler fusion decisions; the FMA variant
// lives in kernels_avx2_fma.cpp).
//
// Integer exactness argument (docs/method.md §16): every kernel below
// computes the same products as the scalar reference and adds them in
// modular int32/int64 arithmetic, which is associative and commutative —
// so any SIMD accumulation order is bitwise identical to the scalar
// ascending-k loop.
//
//  * qmicro8 (k-pair): operands are sign-extended int8 pairs packed as
//    int16; vpmaddwd products are <= 127*127 = 16129 and pair sums
//    <= 32258 < 2^31 per step, accumulated in int32 — exact for ALL
//    int8 inputs.
//  * qmicro8_maddubs (k-quad): vpmaddubsw computes u8*s8 with signed
//    16-bit SATURATION; the packers offset A by +128 (u8 side) and the
//    caller pre-initializes the accumulator with -128 * colsum so the
//    offset cancels in integer arithmetic. qgemm.cpp only selects this
//    kernel when every |b| <= 64 (pair sums <= 2*255*64 = 32640 < 32768:
//    no saturation) and k <= 2^16 (acc magnitude <= 2^16 * 255 * 64 +
//    compensation < 2^31: no wrap), so it is exact whenever invoked.
//  * qmicro16 (k-pair): vpmaddwd pair sums are exact in int32 except the
//    single corner where both pairs are (-32768)*(-32768); qgemm.cpp
//    scans B for -32768 and falls back to the plain layout, so the corner
//    is unreachable here. Pair sums are widened to int64 before
//    accumulation (matches the scalar int64 accumulator bit-for-bit).
#include "tensor/kernels/kernels_internal.hpp"

#ifdef MUPOD_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <cmath>

namespace mupod {
namespace {

// ---------------------------------------------------------------------------
// SGEMM 6x16 micro-kernel, explicit mul + add (this TU has no -mfma, so
// the compiler cannot contract these into fmadd).

constexpr int MR = 6;
constexpr int NR = 16;

void sgemm_micro_avx2(int kc, const float* __restrict ap, const float* __restrict bp,
                      float* __restrict c, std::int64_t ldc, float beta) {
  __m256 acc[MR][2];
  for (int r = 0; r < MR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + static_cast<std::ptrdiff_t>(kk) * NR);
    const __m256 b1 = _mm256_loadu_ps(bp + static_cast<std::ptrdiff_t>(kk) * NR + 8);
    const float* ak = ap + static_cast<std::ptrdiff_t>(kk) * MR;
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(ak + r);
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(av, b0));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(av, b1));
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = c + r * ldc;
    if (beta == 0.0f) {
      _mm256_storeu_ps(crow, acc[r][0]);
      _mm256_storeu_ps(crow + 8, acc[r][1]);
    } else if (beta == 1.0f) {
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]));
      _mm256_storeu_ps(crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]));
    } else {
      const __m256 vb = _mm256_set1_ps(beta);
      _mm256_storeu_ps(crow,
                       _mm256_add_ps(_mm256_mul_ps(vb, _mm256_loadu_ps(crow)), acc[r][0]));
      _mm256_storeu_ps(
          crow + 8, _mm256_add_ps(_mm256_mul_ps(vb, _mm256_loadu_ps(crow + 8)), acc[r][1]));
    }
  }
}

// ---------------------------------------------------------------------------
// int8 k-pair kernel: exact for all inputs.
// ap[p*4 + r] = (int32) two sign-extended int16s (a[2p,r], a[2p+1,r]);
// bp, per pair p, 32 int16s: cols 0..7 interleaved then cols 8..15.

void qmicro8_madd_avx2(std::int64_t k_pairs, const std::int32_t* __restrict ap,
                       const std::int16_t* __restrict bp, std::int32_t* __restrict acc) {
  __m256i vacc[kQMr][2];
  for (int r = 0; r < kQMr; ++r) {
    vacc[r][0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + r * kQNr));
    vacc[r][1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + r * kQNr + 8));
  }
  for (std::int64_t p = 0; p < k_pairs; ++p) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + p * 2 * kQNr));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + p * 2 * kQNr + 16));
    const std::int32_t* apk = ap + p * kQMr;
    for (int r = 0; r < kQMr; ++r) {
      const __m256i va = _mm256_set1_epi32(apk[r]);
      vacc[r][0] = _mm256_add_epi32(vacc[r][0], _mm256_madd_epi16(b0, va));
      vacc[r][1] = _mm256_add_epi32(vacc[r][1], _mm256_madd_epi16(b1, va));
    }
  }
  for (int r = 0; r < kQMr; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kQNr), vacc[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kQNr + 8), vacc[r][1]);
  }
}

// ---------------------------------------------------------------------------
// int8 k-quad kernel (u8 x s8 offset trick). ap[q*4 + r] = 4 offset bytes
// (a + 128) of rows' k-quad; bp, per quad q, 64 int8s: cols 0..7 as 4
// consecutive-k bytes each, then cols 8..15. Caller guarantees
// no-saturation / no-wrap preconditions and compensation-initializes acc.

void qmicro8_maddubs_avx2(std::int64_t k_quads, const std::int32_t* __restrict ap,
                          const std::int8_t* __restrict bp, std::int32_t* __restrict acc) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i vacc[kQMr][2];
  for (int r = 0; r < kQMr; ++r) {
    vacc[r][0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + r * kQNr));
    vacc[r][1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + r * kQNr + 8));
  }
  for (std::int64_t q = 0; q < k_quads; ++q) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + q * 4 * kQNr));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + q * 4 * kQNr + 32));
    const std::int32_t* apk = ap + q * kQMr;
    for (int r = 0; r < kQMr; ++r) {
      const __m256i va = _mm256_set1_epi32(apk[r]);
      // u8 (A+128) x s8 (B) pairs -> s16, then pair-sum to s32 via ones.
      const __m256i p0 = _mm256_maddubs_epi16(va, b0);
      const __m256i p1 = _mm256_maddubs_epi16(va, b1);
      vacc[r][0] = _mm256_add_epi32(vacc[r][0], _mm256_madd_epi16(p0, ones));
      vacc[r][1] = _mm256_add_epi32(vacc[r][1], _mm256_madd_epi16(p1, ones));
    }
  }
  for (int r = 0; r < kQMr; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kQNr), vacc[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kQNr + 8), vacc[r][1]);
  }
}

// ---------------------------------------------------------------------------
// int16 k-pair kernel: vpmaddwd pair sums widened to int64. Same packed
// layouts as qmicro8's pair layout, with real int16 operand values.

void qmicro16_madd_avx2(std::int64_t k_pairs, const std::int32_t* __restrict ap,
                        const std::int16_t* __restrict bp, std::int64_t* __restrict acc) {
  for (int r = 0; r < kQMr; ++r) {
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + r * kQNr));
    __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + r * kQNr + 4));
    __m256i a2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + r * kQNr + 8));
    __m256i a3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + r * kQNr + 12));
    for (std::int64_t p = 0; p < k_pairs; ++p) {
      const __m256i b0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + p * 2 * kQNr));
      const __m256i b1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + p * 2 * kQNr + 16));
      const __m256i va = _mm256_set1_epi32(ap[p * kQMr + r]);
      const __m256i m0 = _mm256_madd_epi16(b0, va);  // cols 0..7 pair sums (s32)
      const __m256i m1 = _mm256_madd_epi16(b1, va);  // cols 8..15
      a0 = _mm256_add_epi64(a0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m0)));
      a1 = _mm256_add_epi64(a1, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(m0, 1)));
      a2 = _mm256_add_epi64(a2, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m1)));
      a3 = _mm256_add_epi64(a3, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(m1, 1)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kQNr), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kQNr + 4), a1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kQNr + 8), a2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kQNr + 12), a3);
  }
}

// ---------------------------------------------------------------------------
// GEMV dot products (contiguous rows, no packing).

std::int32_t hsum_epi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

std::int64_t hsum_epi64(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  const __m128i hi = _mm_unpackhi_epi64(s, s);
  return _mm_cvtsi128_si64(_mm_add_epi64(s, hi));
}

std::int32_t qdot8_avx2(std::int64_t k, const std::int8_t* __restrict a,
                        const std::int8_t* __restrict x) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 16 <= k; i += 16) {
    const __m256i va =
        _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i vx =
        _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vx));
  }
  std::int32_t s = hsum_epi32(acc);
  for (; i < k; ++i) {
    s = static_cast<std::int32_t>(static_cast<std::uint32_t>(s) +
                                  static_cast<std::uint32_t>(static_cast<std::int32_t>(a[i]) *
                                                             static_cast<std::int32_t>(x[i])));
  }
  return s;
}

std::int64_t qdot16_avx2(std::int64_t k, const std::int16_t* __restrict a,
                         const std::int16_t* __restrict x) {
  __m256i accA = _mm256_setzero_si256();
  __m256i accB = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 16 <= k; i += 16) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i m = _mm256_madd_epi16(va, vx);
    accA = _mm256_add_epi64(accA, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m)));
    accB = _mm256_add_epi64(accB, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(m, 1)));
  }
  std::int64_t s = hsum_epi64(_mm256_add_epi64(accA, accB));
  for (; i < k; ++i) {
    s += static_cast<std::int64_t>(a[i]) * static_cast<std::int64_t>(x[i]);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Vectorized saturating quantize-on-load. Bit-compatible with the scalar
// quantize_to: x * inv_step is exact in the power-of-two grid (so float
// multiply == the scalar double multiply after rounding), vroundps
// nearest-even == nearbyint under default rounding, NaN -> 0 via the
// ordered-compare mask, clamp counts from pre-clamp compares.

std::int64_t quantize8_avx2(const float* __restrict x, std::int64_t n, float inv_step,
                            std::int32_t lo, std::int32_t hi, std::int8_t* __restrict out) {
  const __m256 vinv = _mm256_set1_ps(inv_step);
  const __m256 vlo = _mm256_set1_ps(static_cast<float>(lo));
  const __m256 vhi = _mm256_set1_ps(static_cast<float>(hi));
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::int64_t sat = 0;
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256 v[4];
    for (int j = 0; j < 4; ++j) {
      __m256 r = _mm256_mul_ps(_mm256_loadu_ps(x + i + 8 * j), vinv);
      r = _mm256_and_ps(r, _mm256_cmp_ps(r, r, _CMP_ORD_Q));  // NaN -> 0
      r = _mm256_round_ps(r, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
      sat += __builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(r, vhi, _CMP_GT_OQ))));
      sat += __builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(r, vlo, _CMP_LT_OQ))));
      v[j] = _mm256_min_ps(_mm256_max_ps(r, vlo), vhi);
    }
    const __m256i i0 = _mm256_cvtps_epi32(v[0]);
    const __m256i i1 = _mm256_cvtps_epi32(v[1]);
    const __m256i i2 = _mm256_cvtps_epi32(v[2]);
    const __m256i i3 = _mm256_cvtps_epi32(v[3]);
    // packs are saturating s32->s16->s8 but post-clamp values fit exactly.
    const __m256i p01 = _mm256_packs_epi32(i0, i1);
    const __m256i p23 = _mm256_packs_epi32(i2, i3);
    const __m256i packed = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(p01, p23), perm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), packed);
  }
  for (; i < n; ++i) {
    // Tail mirrors qgemm.cpp's quantize_to_t branch-for-branch.
    double q = std::nearbyint(static_cast<double>(x[i]) * static_cast<double>(inv_step));
    if (q > hi) {
      q = hi;
      ++sat;
    } else if (q < lo) {
      q = lo;
      ++sat;
    } else if (!(q == q)) {
      q = 0.0;
    }
    out[i] = static_cast<std::int8_t>(static_cast<std::int32_t>(q));
  }
  return sat;
}

std::int64_t quantize16_avx2(const float* __restrict x, std::int64_t n, float inv_step,
                             std::int32_t lo, std::int32_t hi, std::int16_t* __restrict out) {
  const __m256 vinv = _mm256_set1_ps(inv_step);
  const __m256 vlo = _mm256_set1_ps(static_cast<float>(lo));
  const __m256 vhi = _mm256_set1_ps(static_cast<float>(hi));
  std::int64_t sat = 0;
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256 v[2];
    for (int j = 0; j < 2; ++j) {
      __m256 r = _mm256_mul_ps(_mm256_loadu_ps(x + i + 8 * j), vinv);
      r = _mm256_and_ps(r, _mm256_cmp_ps(r, r, _CMP_ORD_Q));
      r = _mm256_round_ps(r, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
      sat += __builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(r, vhi, _CMP_GT_OQ))));
      sat += __builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(r, vlo, _CMP_LT_OQ))));
      v[j] = _mm256_min_ps(_mm256_max_ps(r, vlo), vhi);
    }
    const __m256i i0 = _mm256_cvtps_epi32(v[0]);
    const __m256i i1 = _mm256_cvtps_epi32(v[1]);
    const __m256i packed =
        _mm256_permute4x64_epi64(_mm256_packs_epi32(i0, i1), _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), packed);
  }
  for (; i < n; ++i) {
    double q = std::nearbyint(static_cast<double>(x[i]) * static_cast<double>(inv_step));
    if (q > hi) {
      q = hi;
      ++sat;
    } else if (q < lo) {
      q = lo;
      ++sat;
    } else if (!(q == q)) {
      q = 0.0;
    }
    out[i] = static_cast<std::int16_t>(static_cast<std::int32_t>(q));
  }
  return sat;
}

}  // namespace

namespace internal {

const KernelRegistry& avx2_kernel_registry() {
  static const KernelRegistry reg{
      KernelIsa::kAvx2,
      MR,
      NR,
      &sgemm_micro_avx2,
      &sgemm_micro_avx2,
      &qmicro8_madd_avx2,
      &qmicro8_maddubs_avx2,
      &qmicro16_madd_avx2,
      &qdot8_avx2,
      &qdot16_avx2,
      &quantize8_avx2,
      &quantize16_avx2,
  };
  return reg;
}

const KernelRegistry& avx2_fma_kernel_registry() {
  // Same integer kernels (exactness is ISA-wide); only the SGEMM
  // micro-kernel differs (vfmadd231ps, defined in kernels_avx2_fma.cpp).
  static const KernelRegistry reg{
      KernelIsa::kAvx2Fma,
      MR,
      NR,
      &sgemm_micro_6x16_fma,
      &sgemm_micro_avx2,
      &qmicro8_madd_avx2,
      &qmicro8_maddubs_avx2,
      &qmicro16_madd_avx2,
      &qdot8_avx2,
      &qdot16_avx2,
      &quantize8_avx2,
      &quantize16_avx2,
  };
  return reg;
}

}  // namespace internal
}  // namespace mupod

#endif  // MUPOD_HAVE_AVX2_KERNELS
