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
//  * qmicro_pair32 (k-pair, int32 accumulators): operands are int8 or
//    int16 values packed as int16 pairs. For int8 operands vpmaddwd pair
//    sums are <= 2 * 128 * 128 and any k below 2^17 stays exact. int16
//    operands run here only when qgemm.cpp has proven
//    k * max|A| * max|B| + max|bias| + 2^(t-1) < 2^31 for the call, which
//    bounds every partial sum and also excludes the one vpmaddwd overflow
//    corner (both pairs (-32768)*(-32768) sum to 2^31).
//  * qmicro8_maddubs (k-quad): vpmaddubsw computes u8*s8 with signed
//    16-bit SATURATION; the packers offset A by +128 (u8 side) and the
//    caller pre-initializes the accumulator with -128 * colsum so the
//    offset cancels in integer arithmetic. qgemm.cpp only selects this
//    kernel when every |b| <= 64 (pair sums <= 2*255*64 = 32640 < 32768:
//    no saturation) and k <= 2^16 (acc magnitude <= 2^16 * 255 * 64 +
//    compensation < 2^31: no wrap), so it is exact whenever invoked.
//  * qmicro_pair64 (k-pair, int64 accumulators): the int16 calls without
//    that bound. vpmaddwd pair sums are exact in int32 except the
//    (-32768)^2 corner; qgemm.cpp scans B for -32768 and falls back to
//    the plain layout, so the corner is unreachable here. Pair sums are
//    widened to int64 before accumulation.
//  * qstore_tile32: with acc + bias (+ 2^(t-1)) inside int32, the int32
//    add and arithmetic shift equal store_tile's int64 ones; cvtdq2ps
//    rounds the integer to float once, exactly like float(double(v)), and
//    the power-of-two scale then multiplies exactly.
//  * the packers and range scans only move or compare values.
#include "tensor/kernels/kernels_internal.hpp"

#ifdef MUPOD_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <algorithm>
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
// k-pair kernel with int32 accumulators (int8 operands, bounded int16).
// ap[p*4 + r] = (int32) two sign-extended int16s (a[2p,r], a[2p+1,r]);
// bp, per pair p, 32 int16s: cols 0..7 interleaved then cols 8..15.

void qmicro_pair32_avx2(std::int64_t k_pairs, const std::int32_t* __restrict ap,
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
// k-pair kernel with int64 accumulators: vpmaddwd pair sums widened to
// int64. Same packed layouts as qmicro_pair32.

void qmicro_pair64_avx2(std::int64_t k_pairs, const std::int32_t* __restrict ap,
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
// B-strip packers. Each k-row is kQNr contiguous values; pairs interleave
// two rows column by column, quads transpose four rows into 4-byte
// column groups.

inline void store_pair(__m256i r0, __m256i r1, std::int16_t* __restrict dst) {
  const __m256i lo = _mm256_unpacklo_epi16(r0, r1);  // cols 0..3 | 8..11
  const __m256i hi = _mm256_unpackhi_epi16(r0, r1);  // cols 4..7 | 12..15
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), _mm256_permute2x128_si256(lo, hi, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 16),
                      _mm256_permute2x128_si256(lo, hi, 0x31));
}

inline __m256i load_row8(const std::int8_t* row) {
  return _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(row)));
}

inline __m256i load_row16(const std::int16_t* row) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
}

void qpack_pair8_avx2(std::int64_t k, const std::int8_t* const* rows, std::int16_t* bp) {
  std::int64_t kk = 0;
  for (; kk + 2 <= k; kk += 2, bp += 2 * kQNr)
    store_pair(load_row8(rows[kk]), load_row8(rows[kk + 1]), bp);
  if (kk < k) store_pair(load_row8(rows[kk]), _mm256_setzero_si256(), bp);
}

void qpack_pair16_avx2(std::int64_t k, const std::int16_t* const* rows, std::int16_t* bp) {
  std::int64_t kk = 0;
  for (; kk + 2 <= k; kk += 2, bp += 2 * kQNr)
    store_pair(load_row16(rows[kk]), load_row16(rows[kk + 1]), bp);
  if (kk < k) store_pair(load_row16(rows[kk]), _mm256_setzero_si256(), bp);
}

void qpack_quad8_avx2(std::int64_t k, const std::int8_t* const* rows, std::int8_t* bp,
                      std::int32_t* colsum) {
  __m256i sum_lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(colsum));  // cols 0..7
  __m256i sum_hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(colsum + 8));
  for (std::int64_t kk = 0; kk < k; kk += 4, bp += 4 * kQNr) {
    __m128i r[4];
    for (int t = 0; t < 4; ++t)
      r[t] = kk + t < k ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[kk + t]))
                        : _mm_setzero_si128();
    const __m128i a = _mm_unpacklo_epi8(r[0], r[1]);
    const __m128i b = _mm_unpackhi_epi8(r[0], r[1]);
    const __m128i c = _mm_unpacklo_epi8(r[2], r[3]);
    const __m128i d = _mm_unpackhi_epi8(r[2], r[3]);
    __m128i* dst = reinterpret_cast<__m128i*>(bp);
    _mm_storeu_si128(dst + 0, _mm_unpacklo_epi16(a, c));
    _mm_storeu_si128(dst + 1, _mm_unpackhi_epi16(a, c));
    _mm_storeu_si128(dst + 2, _mm_unpacklo_epi16(b, d));
    _mm_storeu_si128(dst + 3, _mm_unpackhi_epi16(b, d));
    // Four rows sum to |s| <= 512 in int16, then widen per quad.
    const __m256i s = _mm256_add_epi16(
        _mm256_add_epi16(_mm256_cvtepi8_epi16(r[0]), _mm256_cvtepi8_epi16(r[1])),
        _mm256_add_epi16(_mm256_cvtepi8_epi16(r[2]), _mm256_cvtepi8_epi16(r[3])));
    sum_lo = _mm256_add_epi32(sum_lo, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(s)));
    sum_hi = _mm256_add_epi32(sum_hi, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(s, 1)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum), sum_lo);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum + 8), sum_hi);
}

// ---------------------------------------------------------------------------
// Range scans.

template <typename T>
void widen_range(const T* v, int count, std::int32_t* mn, std::int32_t* mx) {
  for (int i = 0; i < count; ++i) {
    *mn = std::min<std::int32_t>(*mn, v[i]);
    *mx = std::max<std::int32_t>(*mx, v[i]);
  }
}

void qrange8_avx2(const std::int8_t* x, std::int64_t n, std::int32_t* mn, std::int32_t* mx) {
  __m256i vmn = _mm256_setzero_si256(), vmx = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    vmn = _mm256_min_epi8(vmn, v);
    vmx = _mm256_max_epi8(vmx, v);
  }
  alignas(32) std::int8_t lanes[2][32];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[0]), vmn);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[1]), vmx);
  widen_range(lanes[0], 64, mn, mx);
  widen_range(x + i, static_cast<int>(n - i), mn, mx);
}

void qrange16_avx2(const std::int16_t* x, std::int64_t n, std::int32_t* mn, std::int32_t* mx) {
  __m256i vmn = _mm256_setzero_si256(), vmx = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    vmn = _mm256_min_epi16(vmn, v);
    vmx = _mm256_max_epi16(vmx, v);
  }
  alignas(32) std::int16_t lanes[2][16];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[0]), vmn);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[1]), vmx);
  widen_range(lanes[0], 32, mn, mx);
  widen_range(x + i, static_cast<int>(n - i), mn, mx);
}

// ---------------------------------------------------------------------------
// int32 store epilogue of one full tile (see QTileStore).

// Low halves of 8 int64 biases (they fit int32 by the caller's bound).
inline __m256i narrow_bias8(const std::int64_t* b) {
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256i lo =
      _mm256_permutevar8x32_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(b)), idx);
  const __m256i hi = _mm256_permutevar8x32_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 4)), idx);
  return _mm256_permute2x128_si256(lo, hi, 0x20);
}

std::int64_t qstore_tile32_avx2(const std::int32_t* acc, const QTileStore& st,
                                const std::int64_t* bias_row, const std::int64_t* bias_col,
                                void* c, std::int64_t ldc) {
  __m256i bc0 = _mm256_setzero_si256(), bc1 = _mm256_setzero_si256();
  if (bias_row == nullptr && bias_col != nullptr) {
    bc0 = narrow_bias8(bias_col);
    bc1 = narrow_bias8(bias_col + 8);
  }
  const __m256i izero = _mm256_setzero_si256();
  std::int64_t sat = 0;
  for (int r = 0; r < kQMr; ++r) {
    __m256i v0 = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + r * kQNr)), bc0);
    __m256i v1 = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + r * kQNr + 8)), bc1);
    if (bias_row != nullptr) {
      const __m256i br = _mm256_set1_epi32(static_cast<std::int32_t>(bias_row[r]));
      v0 = _mm256_add_epi32(v0, br);
      v1 = _mm256_add_epi32(v1, br);
    }
    if (st.shift == 0) {
      const __m256 scale = _mm256_set1_ps(st.scale);
      __m256 f0 = _mm256_mul_ps(_mm256_cvtepi32_ps(v0), scale);
      __m256 f1 = _mm256_mul_ps(_mm256_cvtepi32_ps(v1), scale);
      if (st.relu) {
        // max(x, +0) returns the second operand unless x > 0: +0 for
        // -0 exactly as relu_exact.
        f0 = _mm256_max_ps(f0, _mm256_setzero_ps());
        f1 = _mm256_max_ps(f1, _mm256_setzero_ps());
      }
      float* crow = static_cast<float*>(c) + r * ldc;
      _mm256_storeu_ps(crow, f0);
      _mm256_storeu_ps(crow + 8, f1);
      continue;
    }
    const __m128i count = _mm_cvtsi32_si128(st.shift);
    const __m256i half = _mm256_set1_epi32(std::int32_t{1} << (st.shift - 1));
    v0 = _mm256_sra_epi32(_mm256_add_epi32(v0, half), count);
    v1 = _mm256_sra_epi32(_mm256_add_epi32(v1, half), count);
    if (st.relu) {
      v0 = _mm256_max_epi32(v0, izero);
      v1 = _mm256_max_epi32(v1, izero);
    }
    const __m256i vlo = _mm256_set1_epi32(st.lo);
    const __m256i vhi = _mm256_set1_epi32(st.hi);
    const __m256i out0 = _mm256_or_si256(_mm256_cmpgt_epi32(v0, vhi), _mm256_cmpgt_epi32(vlo, v0));
    const __m256i out1 = _mm256_or_si256(_mm256_cmpgt_epi32(v1, vhi), _mm256_cmpgt_epi32(vlo, v1));
    sat += __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(out0))));
    sat += __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(out1))));
    v0 = _mm256_min_epi32(_mm256_max_epi32(v0, vlo), vhi);
    v1 = _mm256_min_epi32(_mm256_max_epi32(v1, vlo), vhi);
    // Clamped values fit the output type, so the saturating packs are exact.
    const __m256i s16 = _mm256_permute4x64_epi64(_mm256_packs_epi32(v0, v1), _MM_SHUFFLE(3, 1, 2, 0));
    if (st.out_bytes == 2) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(static_cast<std::int16_t*>(c) + r * ldc), s16);
    } else {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(static_cast<std::int8_t*>(c) + r * ldc),
                       _mm_packs_epi16(_mm256_castsi256_si128(s16),
                                       _mm256_extracti128_si256(s16, 1)));
    }
  }
  return sat;
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
      &qmicro_pair32_avx2,
      &qmicro8_maddubs_avx2,
      &qmicro_pair64_avx2,
      &qpack_pair8_avx2,
      &qpack_pair16_avx2,
      &qpack_quad8_avx2,
      &qrange8_avx2,
      &qrange16_avx2,
      &qstore_tile32_avx2,
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
      &qmicro_pair32_avx2,
      &qmicro8_maddubs_avx2,
      &qmicro_pair64_avx2,
      &qpack_pair8_avx2,
      &qpack_pair16_avx2,
      &qpack_quad8_avx2,
      &qrange8_avx2,
      &qrange16_avx2,
      &qstore_tile32_avx2,
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
