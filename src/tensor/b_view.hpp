// B operand views shared by the float GEMM (gemm.cpp) and the integer
// GEMM (qgemm.cpp): where their packers read a B strip from. A view
// answers rows(j0, nr_cur, kb, ke, rows, tmp) by pointing rows[kk - kb]
// at the NR values of k-row kk in [kb, ke) of the strip at column j0 —
// straight into B where those values are contiguous, else gathered into
// tmp ((ke - kb + 1) x NR, zero beyond nr_cur), and returns whether it
// gathered every row (rows[i] == tmp + i*NR). A view whose kGatherSpills
// is false writes only tmp's first ke - kb rows, so the float GEMM hands
// it the packed strip as tmp and copies rows only when they point into
// B; the integer layouts pack the rows into their k-pair/k-quad units. The integer GEMM also asks a view for
// range() (widens [*mn, *mx] over every value B can hold, with the
// registry's SIMD scan) and column() (B as one contiguous column for the
// n == 1 GEMV).
//
// PatchB is the only code that knows the convolution patch layout.
// Internal to src/tensor.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"

namespace mupod {

// k-rows a packer asks a view for at once: a multiple of every integer
// layout's unit, small enough for the row buffer to live on the packing
// thread's stack.
inline constexpr std::int64_t kPackRows = 64;

template <typename T>
using RangeFn = void (*)(const T*, std::int64_t, std::int32_t*, std::int32_t*);

// A row-major k x n matrix, or with trans_b its n x k transpose, read in
// NR-column strips.
template <typename T, int NR>
struct MatrixB {
  static constexpr bool kGatherSpills = false;
  const T* b;
  std::int64_t ldb;
  bool trans_b;
  std::int64_t n, k;

  bool rows(std::int64_t j0, int nr_cur, std::int64_t kb, std::int64_t ke, const T** rows,
            T* tmp) const {
    if (trans_b) {
      // Row kk of the strip is column kk of Bᵀ's rows j0 .. j0+nr_cur.
      const T* src = b + j0 * ldb;
      for (std::int64_t kk = kb; kk < ke; ++kk) {
        T* dst = tmp + (kk - kb) * NR;
        for (int c = 0; c < nr_cur; ++c) dst[c] = src[c * ldb + kk];
        if (nr_cur < NR) std::fill(dst + nr_cur, dst + NR, T(0));
        rows[kk - kb] = dst;
      }
      return true;
    }
    for (std::int64_t kk = kb; kk < ke; ++kk) {
      const T* src = b + kk * ldb + j0;
      if (nr_cur == NR) {
        rows[kk - kb] = src;
        continue;
      }
      T* dst = tmp + (kk - kb) * NR;
      std::copy_n(src, nr_cur, dst);
      std::fill(dst + nr_cur, dst + NR, T(0));
      rows[kk - kb] = dst;
    }
    return nr_cur < NR;
  }

  void range(RangeFn<T> scan, std::int32_t* mn, std::int32_t* mx) const {
    const std::int64_t n_rows = trans_b ? n : k;
    const std::int64_t cols = trans_b ? k : n;
    if (ldb == cols) {
      scan(b, n_rows * cols, mn, mx);
      return;
    }
    for (std::int64_t i = 0; i < n_rows; ++i) scan(b + i * ldb, cols, mn, mx);
  }

  const T* column(T* buf) const {
    const std::int64_t stride = trans_b ? 1 : ldb;
    if (stride == 1) return b;
    for (std::int64_t kk = 0; kk < k; ++kk) buf[kk] = b[kk * stride];
    return buf;
  }
};

// The patch matrix of one convolution image group (ConvPatches):
// B[(ic, kh, kw)][(oh, ow)] = x[ic][oh*s - pad + kh][ow*s - pad + kw].
// The view reads it from xp, a zero-bordered copy of the image built
// once per call in the calling thread's qcol slot: hp = H + 2*pad rows
// of wp = W + 2*pad + kMaxNr values, so every tap of a strip indexes
// inside it and the padding reads as zeros. A full strip of a stride-1
// conv that stays in one output row points straight into xp; other
// strips gather one run per output row.
template <typename T, int NR>
struct PatchB {
  static_assert(NR <= kMaxNr, "the bordered copy's slack is kMaxNr values");
  // Stride-1 runs are copied NR values wide, into the next row of tmp.
  static constexpr bool kGatherSpills = true;
  const T* x;
  ConvPatches p;
  const T* xp = nullptr;
  std::int64_t hp = 0, wp = 0;

  explicit PatchB(const ConvPatches& patches)
      : x(static_cast<const T*>(patches.image)), p(patches) {
    hp = p.height + 2 * p.pad;
    wp = p.width + 2 * p.pad + kMaxNr;
    const std::int64_t count = p.channels * hp * wp;
    T* pad = reinterpret_cast<T*>(
        GemmScratch::local().qcol(static_cast<std::size_t>(count) * sizeof(T)));
    std::fill_n(pad, count, T(0));
    const T* src = x;
    for (int ic = 0; ic < p.channels; ++ic)
      for (int ih = 0; ih < p.height; ++ih, src += p.width)
        std::copy_n(src, p.width, pad + (ic * hp + ih + p.pad) * wp + p.pad);
    xp = pad;
  }

  bool rows(std::int64_t j0, int nr_cur, std::int64_t kb, std::int64_t ke, const T** rows,
            T* tmp) const {
    // The strip's columns as runs along output rows: run r covers strip
    // columns [off, off + len) at output row oh, from output column ow.
    struct Run {
      int oh, ow, off, len;
    };
    Run runs[NR];
    int n_runs = 0;
    for (int off = 0; off < nr_cur;) {
      const std::int64_t j = j0 + off;
      const int oh = static_cast<int>(j / p.out_w);
      const int ow = static_cast<int>(j % p.out_w);
      const int len = std::min(p.out_w - ow, nr_cur - off);
      runs[n_runs++] = {oh, ow, off, len};
      off += len;
    }
    // Run r's output (oh, ow) reads xp from base[r] + tap offset, the tap
    // (ic, kh, kw) of k-row kk sitting at (ic*hp + kh)*wp + kw; the
    // offset is stepped along kk without divisions.
    const T* base[NR];
    for (int r = 0; r < n_runs; ++r)
      base[r] = xp + static_cast<std::int64_t>(runs[r].oh) * p.stride * wp +
                static_cast<std::int64_t>(runs[r].ow) * p.stride;
    const bool direct = n_runs == 1 && nr_cur == NR && p.stride == 1;
    const int taps = p.kernel_h * p.kernel_w;
    std::int64_t ic = kb / taps;
    int kh = static_cast<int>(kb % taps) / p.kernel_w;
    int kw = static_cast<int>(kb % taps) % p.kernel_w;
    std::int64_t off = (ic * hp + kh) * wp + kw;
    for (std::int64_t kk = kb; kk < ke; ++kk) {
      if (direct) {
        rows[kk - kb] = base[0] + off;
      } else {
        T* dst = tmp + (kk - kb) * NR;
        for (int r = 0; r < n_runs; ++r) {
          const T* src = base[r] + off;
          if (p.stride == 1) {
            // A fixed NR copy (xp rows carry kMaxNr of slack); what
            // spills past the run is overwritten by the next run, the
            // next row or lands in tmp's spare row.
            std::copy_n(src, NR, dst + runs[r].off);
          } else {
            for (int t = 0; t < runs[r].len; ++t) dst[runs[r].off + t] = src[t * p.stride];
          }
        }
        std::fill(dst + nr_cur, dst + NR, T(0));
        rows[kk - kb] = dst;
      }
      if (++kw < p.kernel_w) {
        ++off;
        continue;
      }
      kw = 0;
      if (++kh == p.kernel_h) {
        kh = 0;
        ++ic;
      }
      off = (ic * hp + kh) * wp;
    }
    return !direct;
  }

  // A patch holds only image values and zeros.
  void range(RangeFn<T> scan, std::int32_t* mn, std::int32_t* mx) const {
    scan(x, static_cast<std::int64_t>(p.channels) * p.height * p.width, mn, mx);
  }

  const T* column(T* buf) const {
    std::int64_t kk = 0;
    for (int ic = 0; ic < p.channels; ++ic)
      for (int kh = 0; kh < p.kernel_h; ++kh)
        for (int kw = 0; kw < p.kernel_w; ++kw, ++kk)
          buf[kk] = xp[(ic * hp + kh) * wp + kw];
    return buf;
  }
};

}  // namespace mupod
