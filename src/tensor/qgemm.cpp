#include "tensor/qgemm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <type_traits>

#include "obs/metrics.hpp"
#include "tensor/b_view.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/parallel.hpp"
#include "tensor/tensor.hpp"

namespace mupod {
namespace {

// Same pool-dispatch crossover as the float GEMM.
constexpr std::int64_t kSerialMacCutoff = 1 << 16;

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

struct QGemmCounters {
  Counter* calls;
  Counter* macs;
  Counter* tiles;
  Counter* requant_saturated;
  // Per-kernel dispatch counters: which integer kernel served each call.
  Counter* k_scalar;    // generic C++ tile path
  Counter* k_madd;      // AVX2 k-pair vpmaddwd kernel (int8 or int16)
  Counter* k_maddubs;   // AVX2 k-quad vpmaddubsw fast path
  Counter* k_gemv;      // AVX2 dot-product GEMV path (n == 1)
};

QGemmCounters& qgemm_counters() {
  static QGemmCounters c{&metrics().counter("qgemm.calls"),
                         &metrics().counter("qgemm.macs"),
                         &metrics().counter("qgemm.tiles"),
                         &metrics().counter("qgemm.requant.saturated"),
                         &metrics().counter("kernel.qgemm.scalar"),
                         &metrics().counter("kernel.qgemm.madd"),
                         &metrics().counter("kernel.qgemm.maddubs"),
                         &metrics().counter("kernel.qgemm.gemv")};
  return c;
}

void count_qgemm_kernel(Counter* QGemmCounters::*which) {
  if (metrics_enabled()) (qgemm_counters().*which)->add(1);
}

void report_requant_sat(std::int64_t total_sat, const QGemmEpilogue& ep) {
  if (total_sat != 0) {
    if (ep.saturated != nullptr) ep.saturated->fetch_add(total_sat, std::memory_order_relaxed);
    if (metrics_enabled()) qgemm_counters().requant_saturated->add(total_sat);
  }
}

// Epilogue: bias in accumulator scale, then either dequantized float
// store or saturating requantized integer store. Returns the tile's
// saturation count (summed per task, added to the sink once — keeps the
// total deterministic).
template <typename T, typename Acc>
std::int64_t store_tile(const Acc acc[kQMr][kQNr], std::int64_t i0, std::int64_t j0, int mr_cur,
                        int nr_cur, void* c, std::int64_t ldc, const QGemmEpilogue& ep) {
  std::int64_t sat = 0;
  for (int r = 0; r < mr_cur; ++r) {
    for (int cc = 0; cc < nr_cur; ++cc) {
      std::int64_t v = static_cast<std::int64_t>(acc[r][cc]);
      if (ep.bias_row != nullptr)
        v += ep.bias_row[i0 + r];
      else if (ep.bias_col != nullptr)
        v += ep.bias_col[j0 + cc];
      if (!ep.quant_store) {
        float f = static_cast<float>(static_cast<double>(v) * ep.scale);
        // Branchless: the ternary form mispredicts ~50% on random-sign
        // accumulators, costing more than the fused relu saves.
        if (ep.relu) f = relu_exact(f);
        static_cast<float*>(c)[(i0 + r) * ldc + j0 + cc] = f;
      } else {
        std::int32_t q = apply_requant(v, ep.requant);
        if (ep.relu) q = std::max(q, 0);
        // Branchless saturation: min/max compile to cmov while the
        // compare-and-assign form branches, and requantized values land
        // on both sides of the clamp range often enough to mispredict.
        const std::int32_t qc = std::min(std::max(q, ep.lo), ep.hi);
        sat += qc != q;
        static_cast<T*>(c)[(i0 + r) * ldc + j0 + cc] = static_cast<T>(qc);
      }
    }
  }
  return sat;
}

// ---------------------------------------------------------------------------
// Packed layouts. A layout fixes what one k-UNIT of a kQMr-row A strip
// and a kQNr-column B strip holds, and which micro-kernel consumes them;
// the tile driver below is the same for all of them. Each supplies:
//   Elem / Acc      operand type and accumulator type;
//   APack / BPack   strip element types: an A unit is kQMr APacks, a B
//                   unit kUnitK * kQNr BPacks;
//   kUnitK          k values per unit (odd tails are padded);
//   kColsums        whether pack_b also writes the strip's column sums;
//   pack_a          packs a kQMr-row A strip (edge rows zero-padded);
//   pack_b          packs a B strip from its k-rows (rows[kk] points at
//                   kQNr values, edge columns already zero — see the B
//                   views of tensor/b_view.hpp);
//   init            the accumulator tile before the micro-kernel;
//   micro           accumulates `units` k-units into the tile.
// Byte-exact definitions of the SIMD layouts: kernels.hpp and
// docs/method.md §16. Every layout computes the same modular-integer
// results, so which one runs never changes an output byte — the property
// battery asserts this across ISAs.

// PLAIN: one k per unit, strips hold the operand type itself; the generic
// C++ micro-kernel accumulates in fixed ascending k order. The scalar ISA,
// int32 operands, and the fallback for inputs no SIMD kernel takes.
template <typename T, typename AccT>
struct PlainLayout {
  using Elem = T;
  using Acc = AccT;
  using APack = T;
  using BPack = T;
  static constexpr int kUnitK = 1;
  static constexpr bool kColsums = false;

  static void pack_a(const T* a, std::int64_t lda, std::int64_t i0, int mr_cur, std::int64_t k,
                     T* ap) {
    const T* src = a + i0 * lda;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      int r = 0;
      for (; r < mr_cur; ++r) ap[kk * kQMr + r] = src[r * lda + kk];
      for (; r < kQMr; ++r) ap[kk * kQMr + r] = T(0);
    }
  }

  void pack_b(std::int64_t k, const T* const* rows, T* bp, std::int32_t* /*colsum*/) const {
    for (std::int64_t kk = 0; kk < k; ++kk) std::copy_n(rows[kk], kQNr, bp + kk * kQNr);
  }

  static void init(Acc acc[kQMr][kQNr], const std::int32_t* /*colsum*/) {
    std::fill_n(&acc[0][0], kQMr * kQNr, Acc(0));
  }

  void micro(std::int64_t k, const T* __restrict ap, const T* __restrict bp,
             Acc acc[kQMr][kQNr]) const {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const T* __restrict ak = ap + static_cast<std::ptrdiff_t>(kk) * kQMr;
      const T* __restrict bk = bp + static_cast<std::ptrdiff_t>(kk) * kQNr;
      for (int r = 0; r < kQMr; ++r) {
        const Acc av = static_cast<Acc>(ak[r]);
        for (int cc = 0; cc < kQNr; ++cc) acc[r][cc] += av * static_cast<Acc>(bk[cc]);
      }
    }
  }
};

// k-PAIR (qmicro_pair32 / qmicro_pair64). A pairs go into int32s (two
// int16 halves, low = even k); B pairs are interleaved int16 per column
// (the registry's qpack_pair8/16). Odd-k and edge padding is zero, which
// contributes nothing to any dot product. Int32 accumulators are exact
// for int8 operands and for int16 calls within the proven bound; int64
// ones for int16 calls whose B holds no -32768.
template <typename T, typename AccT>
struct PairLayout {
  using Elem = T;
  using Acc = AccT;
  using APack = std::int32_t;
  using BPack = std::int16_t;
  static constexpr int kUnitK = 2;
  static constexpr bool kColsums = false;

  void (*kernel)(std::int64_t, const std::int32_t*, const std::int16_t*, Acc*);
  void (*pack)(std::int64_t, const T* const*, std::int16_t*);

  static void pack_a(const T* a, std::int64_t lda, std::int64_t i0, int mr_cur, std::int64_t k,
                     std::int32_t* ap) {
    const std::int64_t kp = (k + 1) / 2;
    for (std::int64_t p = 0; p < kp; ++p) {
      for (int r = 0; r < kQMr; ++r) {
        std::int16_t lo = 0, hi = 0;
        if (r < mr_cur) {
          const T* row = a + (i0 + r) * lda;
          lo = static_cast<std::int16_t>(row[2 * p]);
          if (2 * p + 1 < k) hi = static_cast<std::int16_t>(row[2 * p + 1]);
        }
        ap[p * kQMr + r] =
            static_cast<std::int32_t>(static_cast<std::uint16_t>(lo) |
                                      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(hi))
                                       << 16));
      }
    }
  }

  void pack_b(std::int64_t k, const T* const* rows, std::int16_t* bp,
              std::int32_t* /*colsum*/) const {
    pack(k, rows, bp);
  }

  static void init(Acc acc[kQMr][kQNr], const std::int32_t* /*colsum*/) {
    std::fill_n(&acc[0][0], kQMr * kQNr, Acc(0));
  }

  void micro(std::int64_t kp, const std::int32_t* ap, const std::int16_t* bp,
             Acc acc[kQMr][kQNr]) const {
    kernel(kp, ap, bp, &acc[0][0]);
  }
};

// k-QUAD (qmicro8_maddubs, int8 only, legal when every |b| <= 64 and
// k <= 2^16). A bytes carry the +128 offset (the u8 side of vpmaddubsw);
// padding is 128 == offset-domain zero. B bytes are plain int8,
// zero-padded (the registry's qpack_quad8); colsum[c] holds the strip's
// true column sums, and the accumulator starts at -128 * colsum so the
// offset (padded rows included) cancels exactly.
struct QuadLayout {
  using Elem = std::int8_t;
  using Acc = std::int32_t;
  using APack = std::int32_t;
  using BPack = std::int8_t;
  static constexpr int kUnitK = 4;
  static constexpr bool kColsums = true;

  void (*kernel)(std::int64_t, const std::int32_t*, const std::int8_t*, std::int32_t*);
  void (*pack)(std::int64_t, const std::int8_t* const*, std::int8_t*, std::int32_t*);

  static void pack_a(const std::int8_t* a, std::int64_t lda, std::int64_t i0, int mr_cur,
                     std::int64_t k, std::int32_t* ap) {
    const std::int64_t kq = (k + 3) / 4;
    std::uint8_t* bytes = reinterpret_cast<std::uint8_t*>(ap);
    for (std::int64_t q = 0; q < kq; ++q) {
      for (int r = 0; r < kQMr; ++r) {
        std::uint8_t* dst = bytes + (q * kQMr + r) * 4;
        for (int t = 0; t < 4; ++t) {
          const std::int64_t kk = 4 * q + t;
          std::uint8_t v = 128;
          if (r < mr_cur && kk < k)
            v = static_cast<std::uint8_t>(static_cast<std::int32_t>(a[(i0 + r) * lda + kk]) + 128);
          dst[t] = v;
        }
      }
    }
  }

  void pack_b(std::int64_t k, const std::int8_t* const* rows, std::int8_t* bp,
              std::int32_t* colsum) const {
    pack(k, rows, bp, colsum);
  }

  static void init(Acc acc[kQMr][kQNr], const std::int32_t* colsum) {
    for (int r = 0; r < kQMr; ++r)
      for (int cc = 0; cc < kQNr; ++cc) acc[r][cc] = -128 * colsum[cc];
  }

  void micro(std::int64_t kq, const std::int32_t* ap, const std::int8_t* bp,
             Acc acc[kQMr][kQNr]) const {
    kernel(kq, ap, bp, &acc[0][0]);
  }
};

// The SIMD store of a call whose int32 accumulators are proven exact.
struct SimdStore {
  std::int64_t (*fn)(const std::int32_t*, const QTileStore&, const std::int64_t*,
                     const std::int64_t*, void*, std::int64_t);
  QTileStore st;
};

// ---------------------------------------------------------------------------
// The tile driver, one for every layout and B view. Unlike the float GEMM
// there are no KC/MC/NC cache blocks: a tile task owns its kQMr x kQNr
// output tile for the FULL k extent (the requantize epilogue needs the
// complete accumulator) and touches C exactly once, in the store. All of
// B is packed once into the calling thread's arena (strip-major, full-k
// strips, column sums behind them). Tasks walk the tiles row-of-tiles
// major, so a contiguous chunk packs each A strip once and reuses it
// across its run of B strips. Integer addition is exact and associative,
// so the result is independent of worker count and chunking. Full tiles
// store through `simd` when given (int32 accumulators only), every other
// tile through store_tile.
template <typename L, typename V>
void qgemm_tiles(const L& layout, std::int64_t m, std::int64_t n, std::int64_t k,
                 const typename L::Elem* a, std::int64_t lda, const V& bv, void* c,
                 std::int64_t ldc, const QGemmEpilogue& ep, const SimdStore* simd) {
  using Elem = typename L::Elem;
  using APack = typename L::APack;
  using BPack = typename L::BPack;
  using Acc = typename L::Acc;
  const std::int64_t units = ceil_div(k, L::kUnitK);
  const std::int64_t b_strip = units * L::kUnitK * kQNr;  // BPacks per packed B strip
  const std::int64_t n_ir = ceil_div(m, kQMr);
  const std::int64_t n_js = ceil_div(n, kQNr);
  const bool par = 2 * m * n * std::max<std::int64_t>(k, 1) >= kSerialMacCutoff;

  // One arena block: the packed strips, then (kColsums) the per-strip
  // column sums. Sized for at least one unit so k == 0 (bias-only
  // stores) still gets valid pointers.
  const std::size_t strips_bytes = static_cast<std::size_t>(
      n_js * std::max<std::int64_t>(units, 1) * L::kUnitK * kQNr) * sizeof(BPack);
  unsigned char* raw = GemmScratch::local().qb(
      strips_bytes + (L::kColsums ? static_cast<std::size_t>(n_js) * kQNr * sizeof(std::int32_t)
                                  : 0));
  BPack* bp = reinterpret_cast<BPack*>(raw);
  const auto colsum = [&](std::int64_t js) {
    return L::kColsums ? reinterpret_cast<std::int32_t*>(raw + strips_bytes) + js * kQNr
                       : nullptr;
  };
  const auto pack_b_range = [&](std::int64_t sb, std::int64_t se) {
    // A strip is packed kPackRows k-rows at a time: their pointers, and
    // the gathered rows (plus one spare) they may point into.
    const Elem* rows[kPackRows];
    alignas(32) Elem tmp[(kPackRows + 1) * kQNr];
    for (std::int64_t js = sb; js < se; ++js) {
      const std::int64_t j0 = js * kQNr;
      const int nr_cur = static_cast<int>(std::min<std::int64_t>(kQNr, n - j0));
      std::int32_t* cs = colsum(js);
      if (cs != nullptr) std::fill_n(cs, kQNr, 0);
      for (std::int64_t kb = 0; kb < k; kb += kPackRows) {
        const std::int64_t ke = std::min<std::int64_t>(k, kb + kPackRows);
        bv.rows(j0, nr_cur, kb, ke, rows, tmp);
        layout.pack_b(ke - kb, rows, bp + js * b_strip + kb * kQNr, cs);
      }
    }
  };
  if (par && n_js >= 4)
    parallel_for_chunked(0, n_js, pack_b_range);
  else
    pack_b_range(0, n_js);

  std::atomic<std::int64_t> sat{0};
  const auto tile_range = [&](std::int64_t tb, std::int64_t te) {
    APack* ap = reinterpret_cast<APack*>(GemmScratch::local().qa(
        static_cast<std::size_t>(std::max<std::int64_t>(units, 1)) * kQMr * sizeof(APack)));
    std::int64_t packed_ir = -1;
    std::int64_t local_sat = 0;
    for (std::int64_t t = tb; t < te; ++t) {
      const std::int64_t ir = t / n_js;
      const std::int64_t js = t % n_js;
      const std::int64_t i0 = ir * kQMr;
      const int mr_cur = static_cast<int>(std::min<std::int64_t>(kQMr, m - i0));
      if (ir != packed_ir) {
        L::pack_a(a, lda, i0, mr_cur, k, ap);
        packed_ir = ir;
      }
      const std::int64_t j0 = js * kQNr;
      const int nr_cur = static_cast<int>(std::min<std::int64_t>(kQNr, n - j0));
      alignas(32) Acc acc[kQMr][kQNr];
      L::init(acc, colsum(js));
      layout.micro(units, ap, bp + js * b_strip, acc);
      if constexpr (std::is_same_v<Acc, std::int32_t>) {
        if (simd != nullptr && mr_cur == kQMr && nr_cur == kQNr) {
          const std::int64_t off = i0 * ldc + j0;
          void* ct = ep.quant_store ? static_cast<void*>(static_cast<Elem*>(c) + off)
                                    : static_cast<void*>(static_cast<float*>(c) + off);
          local_sat += simd->fn(&acc[0][0], simd->st,
                                ep.bias_row != nullptr ? ep.bias_row + i0 : nullptr,
                                ep.bias_col != nullptr ? ep.bias_col + j0 : nullptr, ct, ldc);
          continue;
        }
      }
      local_sat += store_tile<Elem>(acc, i0, j0, mr_cur, nr_cur, c, ldc, ep);
    }
    if (local_sat != 0) sat.fetch_add(local_sat, std::memory_order_relaxed);
  };
  if (par)
    parallel_for_chunked(0, n_ir * n_js, tile_range);
  else
    tile_range(0, n_ir * n_js);

  report_requant_sat(sat.load(std::memory_order_relaxed), ep);
}

template <typename T>
std::int64_t quantize_to_t(const float* x, std::int64_t n, double step, std::int32_t lo,
                           std::int32_t hi, T* out) {
  const double inv = 1.0 / step;  // step is a power of two: x * inv is exact
  std::int64_t sat = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    double q = std::nearbyint(static_cast<double>(x[i]) * inv);
    if (q > hi) {
      q = hi;
      ++sat;
    } else if (q < lo) {
      q = lo;
      ++sat;
    } else if (!(q == q)) {
      q = 0.0;  // NaN input: deterministic zero, like a flushed lane
    }
    out[i] = static_cast<T>(static_cast<std::int32_t>(q));
  }
  return sat;
}

// ---------------------------------------------------------------------------
// SIMD dispatch (tensor/kernels/). Saturation/overflow analysis of the
// kernels: docs/method.md §16.

// The shift t of a power-of-two requantize store (multiplier 2^30, the
// only shape the graph compiler emits) when 1 <= t <= 30; else 0.
int pow2_requant_shift(const QGemmEpilogue& ep) {
  if (!ep.quant_store || ep.requant.multiplier != (std::int32_t{1} << 30)) return 0;
  const int t = ep.requant.shift + 1;
  return t >= 1 && t <= 30 ? t : 0;
}

// Whether every int32 intermediate of the call is exact: each partial
// sum is bounded by k * max|A| * max|B|, the bias adds at most bias_max
// and the requantize rounding 2^(t-1). Unknown operand bounds (a_max 0)
// prove nothing.
bool acc32_exact(const QGemmEpilogue& ep, std::int64_t k, std::int32_t bmin,
                 std::int32_t bmax) {
  if (ep.a_max <= 0) return false;
  const std::int64_t b_abs = std::max(-static_cast<std::int64_t>(bmin), std::int64_t{bmax});
  const int t = pow2_requant_shift(ep);
  const __int128 bound = static_cast<__int128>(k) * ep.a_max * b_abs + ep.bias_max +
                         (t > 0 ? std::int64_t{1} << (t - 1) : 0);
  return bound < (static_cast<__int128>(1) << 31);
}

// The registry's int32 store for this epilogue, or false when it has no
// SIMD form: a dequantize scale must be a power of two in [2^-126, 2^96]
// (float(v) * scale then equals float(double(v) * scale) for every int32
// v: int->float rounds once either way and the product stays normal),
// a requantize must be the power-of-two multiplier with its clamp inside
// the output type.
template <typename T>
bool simd_store_for(const KernelRegistry& reg, const QGemmEpilogue& ep, SimdStore* out) {
  if (reg.qstore_tile32 == nullptr) return false;
  QTileStore st;
  st.relu = ep.relu;
  if (!ep.quant_store) {
    int e = 0;
    if (std::frexp(ep.scale, &e) != 0.5 || e - 1 < -126 || e - 1 > 96) return false;
    st.scale = static_cast<float>(ep.scale);
  } else {
    st.shift = pow2_requant_shift(ep);
    if (st.shift == 0 || ep.lo < std::numeric_limits<T>::min() ||
        ep.hi > std::numeric_limits<T>::max())
      return false;
    st.lo = ep.lo;
    st.hi = ep.hi;
    st.out_bytes = static_cast<int>(sizeof(T));
  }
  *out = SimdStore{reg.qstore_tile32, st};
  return true;
}

// GEMV (n == 1): per-row dot products over a contiguous x, no packing.
template <typename T, typename Acc, typename DotFn>
void qgemv_simd(std::int64_t m, std::int64_t k, const T* a, std::int64_t lda, const T* x,
                void* c, std::int64_t ldc, const QGemmEpilogue& ep, DotFn dot) {
  const bool par = 2 * m * k >= kSerialMacCutoff;
  std::atomic<std::int64_t> sat{0};
  const auto row_range = [&](std::int64_t rb, std::int64_t re) {
    std::int64_t local_sat = 0;
    for (std::int64_t i = rb; i < re; ++i) {
      Acc acc[kQMr][kQNr] = {};
      acc[0][0] = dot(k, a + i * lda, x);
      local_sat += store_tile<T>(acc, i, 0, 1, 1, c, ldc, ep);
    }
    if (local_sat != 0) sat.fetch_add(local_sat, std::memory_order_relaxed);
  };
  if (par)
    parallel_for_chunked(0, m, row_range);
  else
    row_range(0, m);
  report_requant_sat(sat.load(std::memory_order_relaxed), ep);
}

// B as one contiguous column for the GEMV (compacted into qb if needed).
template <typename T, typename V>
const T* gemv_column(const V& bv, std::int64_t k) {
  return bv.column(
      reinterpret_cast<T*>(GemmScratch::local().qb(static_cast<std::size_t>(k) * sizeof(T))));
}

// Top-level SIMD dispatch per type. Returns false when the plain layout
// should run (scalar registry, k == 0, or an input pattern a SIMD kernel
// cannot handle exactly).
template <typename V>
bool qgemm8_simd(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                 std::int64_t lda, const V& bv, void* c, std::int64_t ldc,
                 const QGemmEpilogue& ep) {
  const KernelRegistry& reg = kernel_registry();
  if (k <= 0) return false;
  if (n == 1 && reg.qdot8 != nullptr) {
    count_qgemm_kernel(&QGemmCounters::k_gemv);
    qgemv_simd<std::int8_t, std::int32_t>(m, k, a, lda, gemv_column<std::int8_t>(bv, k), c, ldc,
                                          ep, reg.qdot8);
    return true;
  }
  if (reg.qmicro_pair32 == nullptr) return false;
  std::int32_t bmin = 0, bmax = 0;
  bv.range(reg.qrange8, &bmin, &bmax);
  SimdStore store;
  const SimdStore* simd =
      acc32_exact(ep, k, bmin, bmax) && simd_store_for<std::int8_t>(reg, ep, &store) ? &store
                                                                                     : nullptr;
  // vpmaddubsw fast path: safe only when every |b| <= 64 (no 16-bit
  // saturation) — true for plans whose B-side format is <= 7 bits.
  if (reg.qmicro8_maddubs != nullptr && k <= (std::int64_t{1} << 16) && bmin >= -64 &&
      bmax <= 64) {
    count_qgemm_kernel(&QGemmCounters::k_maddubs);
    qgemm_tiles(QuadLayout{reg.qmicro8_maddubs, reg.qpack_quad8}, m, n, k, a, lda, bv, c, ldc,
                ep, simd);
    return true;
  }
  count_qgemm_kernel(&QGemmCounters::k_madd);
  qgemm_tiles(PairLayout<std::int8_t, std::int32_t>{reg.qmicro_pair32, reg.qpack_pair8}, m, n, k,
              a, lda, bv, c, ldc, ep, simd);
  return true;
}

template <typename V>
bool qgemm16_simd(std::int64_t m, std::int64_t n, std::int64_t k, const std::int16_t* a,
                  std::int64_t lda, const V& bv, void* c, std::int64_t ldc,
                  const QGemmEpilogue& ep) {
  const KernelRegistry& reg = kernel_registry();
  if (k <= 0) return false;
  // The single vpmaddwd overflow case needs a (-32768, -32768) pair in
  // BOTH operands; excluding -32768 from the B side makes it unreachable.
  if (n == 1 && reg.qdot16 != nullptr) {
    const std::int16_t* x = gemv_column<std::int16_t>(bv, k);
    if (std::find(x, x + k, std::numeric_limits<std::int16_t>::min()) != x + k) return false;
    count_qgemm_kernel(&QGemmCounters::k_gemv);
    qgemv_simd<std::int16_t, std::int64_t>(m, k, a, lda, x, c, ldc, ep, reg.qdot16);
    return true;
  }
  if (reg.qmicro_pair64 == nullptr) return false;
  std::int32_t bmin = 0, bmax = 0;
  bv.range(reg.qrange16, &bmin, &bmax);
  if (acc32_exact(ep, k, bmin, bmax)) {
    // The bound also excludes the -32768 corner: it needs |a| = |b| = 2^15
    // in a full pair, i.e. k * a_max * max|B| >= 2^31.
    SimdStore store;
    const bool simd = simd_store_for<std::int16_t>(reg, ep, &store);
    count_qgemm_kernel(&QGemmCounters::k_madd);
    qgemm_tiles(PairLayout<std::int16_t, std::int32_t>{reg.qmicro_pair32, reg.qpack_pair16}, m,
                n, k, a, lda, bv, c, ldc, ep, simd ? &store : nullptr);
    return true;
  }
  if (bmin == std::numeric_limits<std::int16_t>::min()) return false;
  count_qgemm_kernel(&QGemmCounters::k_madd);
  qgemm_tiles(PairLayout<std::int16_t, std::int64_t>{reg.qmicro_pair64, reg.qpack_pair16}, m, n,
              k, a, lda, bv, c, ldc, ep, nullptr);
  return true;
}

// One call of any operand type with B behind view V: the SIMD layouts
// when the registry and the input allow, else the plain layout.
template <typename T, typename V>
void qgemm_typed(std::int64_t m, std::int64_t n, std::int64_t k, const T* a, std::int64_t lda,
                 const V& bv, void* c, std::int64_t ldc, const QGemmEpilogue& ep) {
  if (metrics_enabled()) {
    QGemmCounters& qc = qgemm_counters();
    qc.calls->add(1);
    qc.macs->add(m * n * k);
    qc.tiles->add(ceil_div(m, kQMr) * ceil_div(n, kQNr));
  }
  if constexpr (std::is_same_v<T, std::int8_t>) {
    // int8 x int8 products are < 2^14, so int32 accumulation is exact
    // for any k < 2^17 — far beyond any layer this pipeline lowers.
    // The SIMD layouts compute identical bits (kernels.hpp contract); the
    // plain layout is the scalar ISA and the fallback.
    if (qgemm8_simd(m, n, k, a, lda, bv, c, ldc, ep)) return;
    count_qgemm_kernel(&QGemmCounters::k_scalar);
    qgemm_tiles(PlainLayout<std::int8_t, std::int32_t>{}, m, n, k, a, lda, bv, c, ldc, ep,
                nullptr);
  } else {
    if constexpr (std::is_same_v<T, std::int16_t>)
      if (qgemm16_simd(m, n, k, a, lda, bv, c, ldc, ep)) return;
    count_qgemm_kernel(&QGemmCounters::k_scalar);
    qgemm_tiles(PlainLayout<T, std::int64_t>{}, m, n, k, a, lda, bv, c, ldc, ep, nullptr);
  }
}

}  // namespace

const char* qtype_name(QType t) {
  switch (t) {
    case QType::kInt8: return "int8";
    case QType::kInt16: return "int16";
    case QType::kInt32: return "int32";
  }
  return "?";
}

int qtype_bits(QType t) {
  switch (t) {
    case QType::kInt8: return 8;
    case QType::kInt16: return 16;
    case QType::kInt32: return 32;
  }
  return 0;
}

std::size_t qtype_bytes(QType t) { return static_cast<std::size_t>(qtype_bits(t)) / 8; }

QType qtype_for_bits(int total_bits) {
  if (total_bits <= 8) return QType::kInt8;
  if (total_bits <= 16) return QType::kInt16;
  return QType::kInt32;
}

QRequant make_requant(double real_multiplier) {
  assert(real_multiplier > 0.0);
  QRequant rq;
  int exp = 0;
  const double q = std::frexp(real_multiplier, &exp);  // real = q * 2^exp, q in [0.5, 1)
  std::int64_t qi = std::llround(q * static_cast<double>(std::int64_t{1} << 31));
  if (qi == (std::int64_t{1} << 31)) {
    qi >>= 1;
    ++exp;
  }
  rq.multiplier = static_cast<std::int32_t>(qi);
  rq.shift = -exp;  // y = acc * multiplier * 2^-(31 + shift)
  return rq;
}

std::int32_t apply_requant(std::int64_t acc, const QRequant& rq) {
  // Power-of-two fast path: with multiplier == 2^30 the q31 product is
  // acc << 30, so the rounding shift by s = 31 + shift collapses to a
  // plain int64 add-half-floor shift by t = s - 30 — bit-identical to
  // the 128-bit path below (the half-constant 2^(s-1) is (acc-domain)
  // 2^(t-1) · 2^30 whenever t >= 1) and several times cheaper. This is
  // the only shape the graph compiler emits: activation and weight steps
  // are powers of two, so every cross-layer requantize multiplier is too.
  if (rq.multiplier == (std::int32_t{1} << 30)) {
    const int t = rq.shift + 1;
    if (t >= 1 && t <= 62) {
      const std::int64_t q = (acc + (std::int64_t{1} << (t - 1))) >> t;
      if (q > std::numeric_limits<std::int32_t>::max())
        return std::numeric_limits<std::int32_t>::max();
      if (q < std::numeric_limits<std::int32_t>::min())
        return std::numeric_limits<std::int32_t>::min();
      return static_cast<std::int32_t>(q);
    }
  }
  // 128-bit product: |acc| < 2^63 and multiplier < 2^31 always fit.
  __int128 p = static_cast<__int128>(acc) * rq.multiplier;
  const int s = 31 + rq.shift;
  if (s > 0) {
    // Round to nearest, ties toward +inf: add half, floor (arithmetic
    // shift). One fixed rule for both signs keeps it branch-free and
    // bit-reproducible.
    p = (p + (static_cast<__int128>(1) << (s - 1))) >> s;
  } else if (s < 0) {
    p <<= -s;
  }
  if (p > std::numeric_limits<std::int32_t>::max()) return std::numeric_limits<std::int32_t>::max();
  if (p < std::numeric_limits<std::int32_t>::min()) return std::numeric_limits<std::int32_t>::min();
  return static_cast<std::int32_t>(p);
}

void qgemm(QType type, std::int64_t m, std::int64_t n, std::int64_t k,
           const void* a, std::int64_t lda, const void* b, std::int64_t ldb,
           void* c, std::int64_t ldc, const QGemmEpilogue& ep, bool trans_b) {
  if (m <= 0 || n <= 0) return;
  if (k < 0) k = 0;
  const auto run = [&](auto tag) {
    using T = decltype(tag);
    qgemm_typed(m, n, k, static_cast<const T*>(a), lda,
                MatrixB<T, kQNr>{static_cast<const T*>(b), ldb, trans_b, n, k}, c, ldc, ep);
  };
  switch (type) {
    case QType::kInt8: run(std::int8_t{}); break;
    case QType::kInt16: run(std::int16_t{}); break;
    case QType::kInt32: run(std::int32_t{}); break;
  }
}

void qgemm_patches(QType type, std::int64_t m, const void* a, std::int64_t lda,
                   const ConvPatches& b, void* c, std::int64_t ldc, const QGemmEpilogue& ep) {
  const std::int64_t n = static_cast<std::int64_t>(b.out_h) * b.out_w;
  const std::int64_t k = static_cast<std::int64_t>(b.channels) * b.kernel_h * b.kernel_w;
  if (m <= 0 || n <= 0) return;
  const auto run = [&](auto tag) {
    using T = decltype(tag);
    qgemm_typed(m, n, k, static_cast<const T*>(a), lda, PatchB<T, kQNr>(b), c, ldc, ep);
  };
  switch (type) {
    case QType::kInt8: run(std::int8_t{}); break;
    case QType::kInt16: run(std::int16_t{}); break;
    case QType::kInt32: run(std::int32_t{}); break;
  }
}

std::int64_t quantize_to(QType type, const float* x, std::int64_t n, double step, std::int32_t lo,
                         std::int32_t hi, void* out) {
  // int8/int16 dispatch to the registry's vectorized quantizer when one is
  // compiled in (bit-compatible with quantize_to_t by contract). int32
  // stays scalar: 2^31 - 1 is not float-representable, so the clamp needs
  // the double path.
  const KernelRegistry& reg = kernel_registry();
  switch (type) {
    case QType::kInt8:
      if (reg.quantize8 != nullptr) {
        if (metrics_enabled()) {
          static Counter* c = &metrics().counter("kernel.quantize.simd");
          c->add(1);
        }
        return reg.quantize8(x, n, static_cast<float>(1.0 / step), lo, hi,
                             static_cast<std::int8_t*>(out));
      }
      return quantize_to_t(x, n, step, lo, hi, static_cast<std::int8_t*>(out));
    case QType::kInt16:
      if (reg.quantize16 != nullptr) {
        if (metrics_enabled()) {
          static Counter* c = &metrics().counter("kernel.quantize.simd");
          c->add(1);
        }
        return reg.quantize16(x, n, static_cast<float>(1.0 / step), lo, hi,
                              static_cast<std::int16_t*>(out));
      }
      return quantize_to_t(x, n, step, lo, hi, static_cast<std::int16_t*>(out));
    case QType::kInt32:
      return quantize_to_t(x, n, step, lo, hi, static_cast<std::int32_t*>(out));
  }
  return 0;
}

}  // namespace mupod
