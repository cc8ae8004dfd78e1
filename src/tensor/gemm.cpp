#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <type_traits>

#include "obs/metrics.hpp"
#include "tensor/b_view.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/parallel.hpp"
#include "tensor/tensor.hpp"

namespace mupod {
namespace {

// Micro-tile geometry now comes from the dispatched kernel registry
// (tensor/kernels/kernels.hpp): the FMA intrinsic micro-kernel uses a
// 6x16 tile (12 of 16 ymm registers for the accumulator, leaving room for
// the two B strip loads and the A broadcast), the scalar reference 4x8 on
// baseline x86-64 (8 of 16 xmm) — so -DMUPOD_NATIVE is no longer needed
// for vectorized kernels. The cache blocks follow BLIS sizing, scaled
// from the micro-tile: an MR x KC strip of packed A lives in L1 under the
// k-loop, the MC x KC packed block in L2, the KC x NC packed B panel in
// L3.
constexpr int KC = 256;
constexpr int kMcStrips = 24;  // MC = 24 * MR rows, ~96-144 KiB packed
constexpr int kNcStrips = 64;  // NC = 64 * NR columns

// Below this many multiply-accumulates a GEMM runs its tile loop inline:
// the pool dispatch (mutex + condvar wakeup) costs more than it buys.
constexpr std::int64_t kSerialMacCutoff = 1 << 16;

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// ---------------------------------------------------------------------------
// Packing

// Packs rows [i0, i0+mr_cur) x ks [p0, p0+kc) of A into an mr-wide strip:
// ap[kk*mr + r], rows beyond mr_cur zero-padded so the micro-kernel never
// branches on the row count.
void pack_a_strip(const float* a, std::int64_t lda, std::int64_t i0, int mr, int mr_cur,
                  std::int64_t p0, int kc, float* ap) {
  const float* src = a + i0 * lda + p0;
  if (mr_cur == mr) {
    for (int kk = 0; kk < kc; ++kk)
      for (int r = 0; r < mr; ++r) ap[kk * mr + r] = src[r * lda + kk];
    return;
  }
  for (int kk = 0; kk < kc; ++kk) {
    int r = 0;
    for (; r < mr_cur; ++r) ap[kk * mr + r] = src[r * lda + kk];
    for (; r < mr; ++r) ap[kk * mr + r] = 0.0f;
  }
}

// ---------------------------------------------------------------------------
// Micro-kernels
//
// Every tile runs the registry's sgemm_micro entry (the scalar reference
// or the FMA kernel — see tensor/kernels/). It consumes packed strips (A
// r-contiguous per k, B c-contiguous per k) and accumulates k in ascending
// order into a local register tile, touching C exactly once at the end —
// this fixed order is what makes the whole GEMM bitwise independent of the
// task decomposition (within a fixed ISA).

// Edge tile (mr_cur < mr or nr_cur < nr): the full-tile kernel over the
// zero-padded strips, into a local mr x nr tile preloaded with C's valid
// part; only that part is copied back. Each element so gets exactly the
// full kernel's k-chain and beta merge, and its bits do not depend on the
// kind of tile that holds it: a row of a batched GEMM equals the row
// computed alone, and a column (n == 1, the GEMV) the column computed
// alone. The padded lanes are discarded.
void micro_padded(const KernelRegistry& reg, int kc, int mr_cur, int nr_cur, const float* ap,
                  const float* bp, float* __restrict c, std::int64_t ldc, float beta) {
  const int nr = reg.nr;
  float tile[kMaxMr * kMaxNr] = {};
  if (beta != 0.0f)
    for (int r = 0; r < mr_cur; ++r) std::copy_n(c + r * ldc, nr_cur, tile + r * nr);
  reg.sgemm_micro(kc, ap, bp, tile, nr, beta);
  for (int r = 0; r < mr_cur; ++r) std::copy_n(tile + r * nr, nr_cur, c + r * ldc);
}

// ---------------------------------------------------------------------------
// Instrumentation

struct GemmCounters {
  Counter* calls;
  Counter* flops;
  Counter* tiles;
  // Per-kernel dispatch counters: which SGEMM micro-kernel served each call.
  Counter* sgemm_scalar;
  Counter* sgemm_fma;
};

GemmCounters& gemm_counters() {
  static GemmCounters c{&metrics().counter("gemm.calls"),
                        &metrics().counter("gemm.flops"),
                        &metrics().counter("gemm.tiles"),
                        &metrics().counter("kernel.sgemm.scalar"),
                        &metrics().counter("kernel.sgemm.fma")};
  return c;
}

void note_sgemm_kernel(GemmCounters& gc, KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: gc.sgemm_scalar->add(1); break;
    case KernelIsa::kAvx2Fma: gc.sgemm_fma->add(1); break;
  }
}

std::atomic<std::int64_t> g_scratch_bytes{0};

void note_scratch_growth(std::int64_t delta) {
  const std::int64_t total = g_scratch_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (metrics_enabled()) {
    static Gauge* g = &metrics().gauge("tensor.scratch.bytes");
    g->set(total);
  }
}

}  // namespace

GemmBlocking gemm_blocking() {
  const KernelRegistry& reg = kernel_registry();
  return {reg.mr, reg.nr, kMcStrips * reg.mr, KC, kNcStrips * reg.nr};
}

// ---------------------------------------------------------------------------
// GemmScratch

float* GemmScratch::grow(std::vector<float>& v, std::size_t floats) {
  if (v.size() < floats) {
    const std::size_t old_cap = v.capacity();
    v.resize(floats);
    // shrink_to_fit is never called, so capacity growth == live growth.
    if (v.capacity() > old_cap)
      note_scratch_growth(static_cast<std::int64_t>((v.capacity() - old_cap) * sizeof(float)));
  }
  return v.data();
}

unsigned char* GemmScratch::grow_bytes(std::vector<unsigned char>& v, std::size_t bytes) {
  if (v.size() < bytes) {
    const std::size_t old_cap = v.capacity();
    v.resize(bytes);
    if (v.capacity() > old_cap)
      note_scratch_growth(static_cast<std::int64_t>(v.capacity() - old_cap));
  }
  return v.data();
}

std::size_t GemmScratch::bytes() const {
  return (a_.capacity() + b_.capacity()) * sizeof(float) + qa_.capacity() + qb_.capacity() +
         qcol_.capacity() + qact_.capacity();
}

GemmScratch::~GemmScratch() {
  g_scratch_bytes.fetch_sub(static_cast<std::int64_t>(bytes()), std::memory_order_relaxed);
}

GemmScratch& GemmScratch::local() {
  thread_local GemmScratch s;
  return s;
}

std::int64_t gemm_scratch_bytes() { return g_scratch_bytes.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Driver

namespace {

// The shared front of gemm() and gemm_patches(): counts the call, and
// finishes it when there is nothing to multiply. Returns whether the
// blocked product still has to run.
bool gemm_begin(const KernelRegistry& reg, std::int64_t m, std::int64_t n, std::int64_t k,
                float beta, float* c, std::int64_t ldc, bool relu) {
  if (m <= 0 || n <= 0) return false;
  if (k <= 0) {
    // Degenerate product is all-zero; apply beta (and the fused ReLU) only.
    for (std::int64_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0f)
        std::fill(crow, crow + n, 0.0f);
      else if (beta != 1.0f)
        for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
      if (relu)
        for (std::int64_t j = 0; j < n; ++j) crow[j] = relu_exact(crow[j]);
    }
    return false;
  }
  if (metrics_enabled()) {
    GemmCounters& gc = gemm_counters();
    gc.calls->add(1);
    gc.flops->add(2 * m * n * k);
    gc.tiles->add(ceil_div(m, reg.mr) * ceil_div(n, reg.nr) * ceil_div(k, KC));
    note_sgemm_kernel(gc, reg.isa);
  }
  return true;
}

// Calls make(std::integral_constant<int, NR>) with the registry's strip
// width as a compile-time constant, so a B view's strip loops unroll.
template <typename F>
void with_strip_width(const KernelRegistry& reg, const F& make) {
  if (reg.nr == kMaxNr) {
    make(std::integral_constant<int, kMaxNr>{});
  } else {
    assert(reg.nr == kMaxNr / 2);
    make(std::integral_constant<int, kMaxNr / 2>{});
  }
}

// The blocked product with B behind view V, whose strip width NR equals
// the registry's.
template <int NR, typename V>
void gemm_blocked(const KernelRegistry& reg, std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, std::int64_t lda, const V& bv, float beta, float* c,
                  std::int64_t ldc, bool relu) {
  assert(reg.nr == NR);
  const int MR = reg.mr;
  const std::int64_t MC = static_cast<std::int64_t>(kMcStrips) * MR;
  const std::int64_t NC = static_cast<std::int64_t>(kNcStrips) * NR;
  const bool par = 2 * m * n * k >= kSerialMacCutoff;

  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min<std::int64_t>(NC, n - jc);
    const std::int64_t n_js = ceil_div(nc, NR);

    for (std::int64_t pc = 0; pc < k; pc += KC) {
      const int kc = static_cast<int>(std::min<std::int64_t>(KC, k - pc));
      const float beta_pc = pc == 0 ? beta : 1.0f;
      // The fused ReLU must see the COMPLETE accumulation, so it fires
      // only on the final KC panel, right after each tile's store — every
      // C element is written exactly once per panel, so this clamps each
      // value exactly once.
      const bool relu_pc = relu && pc + KC >= k;

      // Pack the KC x NC panel of B into NR strips, bp[kk*NR + c] per
      // strip, from the view's k-rows (edge columns arrive zero-padded).
      // The buffer belongs to the calling thread's arena; tile tasks only
      // read it.
      float* bp = GemmScratch::local().packed_b(static_cast<std::size_t>(n_js) * kc * NR);
      const auto pack_b_range = [&](std::int64_t sb, std::int64_t se) {
        const float* rows[kPackRows];
        alignas(32) float tmp[(kPackRows + 1) * NR];
        for (std::int64_t js = sb; js < se; ++js) {
          const std::int64_t j0 = jc + js * NR;
          const int nr_cur = static_cast<int>(std::min<std::int64_t>(NR, n - j0));
          float* strip = bp + static_cast<std::size_t>(js) * kc * NR;
          for (std::int64_t kb = pc; kb < pc + kc; kb += kPackRows) {
            const std::int64_t ke = std::min<std::int64_t>(pc + kc, kb + kPackRows);
            // A view whose gathers stay inside their rows gathers straight
            // into the strip; rows read in place, or gathered into tmp,
            // are copied.
            float* dst = strip + (kb - pc) * NR;
            const bool gathered =
                bv.rows(j0, nr_cur, kb, ke, rows, V::kGatherSpills ? tmp : dst);
            if (!gathered || V::kGatherSpills)
              for (std::int64_t r = 0; r < ke - kb; ++r) std::copy_n(rows[r], NR, dst + r * NR);
          }
        }
      };
      if (par && n_js >= 4)
        parallel_for_chunked(0, n_js, pack_b_range);
      else
        pack_b_range(0, n_js);

      // Tile tasks: flattened (MC block, NR strip) pairs, block-major so a
      // contiguous chunk packs each A block once and then reuses it across
      // its run of B strips (block in L2, strip in L1).
      const std::int64_t n_ic = ceil_div(m, MC);
      const auto tile_range = [&](std::int64_t tb, std::int64_t te) {
        GemmScratch& scratch = GemmScratch::local();
        float* ap = scratch.packed_a(static_cast<std::size_t>(MC) * kc);
        std::int64_t packed_ic = -1;
        for (std::int64_t t = tb; t < te; ++t) {
          const std::int64_t ic = t / n_js;
          const std::int64_t js = t % n_js;
          const std::int64_t i0 = ic * MC;
          const std::int64_t mc_cur = std::min<std::int64_t>(MC, m - i0);
          const std::int64_t n_ir = ceil_div(mc_cur, MR);
          if (ic != packed_ic) {
            for (std::int64_t ir = 0; ir < n_ir; ++ir) {
              const int mr_cur = static_cast<int>(std::min<std::int64_t>(MR, mc_cur - ir * MR));
              pack_a_strip(a, lda, i0 + ir * MR, MR, mr_cur, pc, kc,
                           ap + static_cast<std::size_t>(ir) * kc * MR);
            }
            packed_ic = ic;
          }
          const std::int64_t j0 = jc + js * NR;
          const int nr_cur = static_cast<int>(std::min<std::int64_t>(NR, n - j0));
          const float* bs = bp + static_cast<std::size_t>(js) * kc * NR;
          for (std::int64_t ir = 0; ir < n_ir; ++ir) {
            const int mr_cur = static_cast<int>(std::min<std::int64_t>(MR, mc_cur - ir * MR));
            const float* as = ap + static_cast<std::size_t>(ir) * kc * MR;
            float* ct = c + (i0 + ir * MR) * ldc + j0;
            if (mr_cur < MR || nr_cur < NR)
              micro_padded(reg, kc, mr_cur, nr_cur, as, bs, ct, ldc, beta_pc);
            else
              reg.sgemm_micro(kc, as, bs, ct, ldc, beta_pc);
            if (relu_pc) {
              for (int r = 0; r < mr_cur; ++r) {
                float* crow = ct + r * ldc;
                for (int cc = 0; cc < nr_cur; ++cc) crow[cc] = relu_exact(crow[cc]);
              }
            }
          }
        }
      };
      if (par)
        parallel_for_chunked(0, n_ic * n_js, tile_range);
      else
        tile_range(0, n_ic * n_js);
    }
  }
}

}  // namespace

void gemm(std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb,
          float beta, float* c, std::int64_t ldc,
          bool trans_b, bool relu) {
  // One registry read per call: the ISA (and so the geometry) is stable
  // for the whole GEMM even if set_kernel_isa races from a test harness.
  const KernelRegistry& reg = kernel_registry();
  if (!gemm_begin(reg, m, n, k, beta, c, ldc, relu)) return;
  with_strip_width(reg, [&](auto nr) {
    constexpr int NR = decltype(nr)::value;
    gemm_blocked<NR>(reg, m, n, k, a, lda, MatrixB<float, NR>{b, ldb, trans_b, n, k}, beta, c,
                     ldc, relu);
  });
}

void gemm_patches(std::int64_t m, const float* a, std::int64_t lda, const ConvPatches& b,
                  float beta, float* c, std::int64_t ldc, bool relu) {
  const std::int64_t n = static_cast<std::int64_t>(b.out_h) * b.out_w;
  const std::int64_t k = static_cast<std::int64_t>(b.channels) * b.kernel_h * b.kernel_w;
  const KernelRegistry& reg = kernel_registry();
  if (!gemm_begin(reg, m, n, k, beta, c, ldc, relu)) return;
  with_strip_width(reg, [&](auto nr) {
    constexpr int NR = decltype(nr)::value;
    gemm_blocked<NR>(reg, m, n, k, a, lda, PatchB<float, NR>(b), beta, c, ldc, relu);
  });
}

}  // namespace mupod
