// Packed integer GEMM for the quantized execution path.
//
// The float pipeline only *emulates* fixed-point formats (the kQuantize
// injection rounds activations and keeps computing in fp32). This kernel
// family actually executes the dot products in integer arithmetic:
//
//   C (m x n) = A_int (m x k) · B_int (k x n)      accumulated in int32
//                                                  (int8) or int64
//                                                  (int16/int32 operands),
//
// with two store epilogues applied once per output element:
//   * dequantize-on-store: C_f32 = (acc + bias) * scale — the layer-
//     boundary store of an unfused integer step (the next layer
//     re-quantizes to its own I.F format);
//   * saturating requantize-on-store: C_int = clamp(round(acc * M * 2^-s))
//     with a gemmlowp-style q31 fixed-point multiplier — the fused form a
//     real integer accelerator uses, exercised by the property tests.
//
// Operand widths are homogeneous per call: int8 operands accumulate in
// int32 (a 2^14 product bound keeps any k <= 2^17 exact); int16 operands
// accumulate in int32 when the epilogue's derived operand bounds prove
// it exact (QGemmEpilogue::a_max, bias_max) and in int64 otherwise, and
// int32 operands always in int64 — so the kernel stays EXACT against a
// naive int64 reference for every representable input. The conformance
// battery depends on that exactness.
//
// One tile driver runs every call but the n == 1 GEMV; it is templated on
// the packed layout, chosen per call from the active ISA and the input:
// PLAIN (operand-typed strips, generic C++ micro-kernel: the scalar ISA,
// int32, and the fallback), k-PAIR (AVX2 vpmaddwd, int8/int16) or k-QUAD
// (AVX2 vpmaddubsw, int8 with every |b| <= 64). The kQMr x kQNr tile
// geometry and the SIMD layouts are defined in tensor/kernels/kernels.hpp.
// The packers read B as the k-rows of one strip through the B views the
// float GEMM shares (tensor/b_view.hpp): a matrix, or straight from a
// convolution image (qgemm_patches). Full tiles with
// int32 accumulators store through the registry's SIMD epilogue when the
// bound above holds; every other tile through the scalar store_tile.
//
// Determinism contract (inherits tensor/gemm.hpp's, and is strictly
// stronger): each output tile is owned by exactly one task, the task
// accumulates the full k extent in a fixed ascending order, and C is
// touched exactly once — in the epilogue. Integer addition is associative,
// so the result is bitwise independent of worker count, chunking, and of
// whether the call runs serial (nested in a parallel region) or fans its
// tile tasks across the pool.
//
// Scratch reuses the per-thread GemmScratch arena (byte slots qa/qb/
// qcol/qact, counted in the same tensor.scratch.bytes gauge; qcol holds
// the zero-bordered image copy a patch view reads). Counters
// (when metrics are enabled): qgemm.calls, qgemm.macs, qgemm.tiles,
// qgemm.requant.saturated.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "tensor/gemm.hpp"

namespace mupod {

// ---------------------------------------------------------------------------
// Integer storage widths the kernels are instantiated for.
enum class QType : int { kInt8 = 0, kInt16 = 1, kInt32 = 2 };
const char* qtype_name(QType t);
int qtype_bits(QType t);
std::size_t qtype_bytes(QType t);
// Narrowest storage that holds a signed fixed-point value of `total_bits`
// (I + F, clamped to [1, 32]).
QType qtype_for_bits(int total_bits);

// ---------------------------------------------------------------------------
// Requantization: y ~= acc * multiplier * 2^-(31 + shift), round to
// nearest, ties toward +inf (the cheap add-half-then-floor hardware
// nudge). `multiplier` is a q31 mantissa in [2^30, 2^31).
struct QRequant {
  std::int32_t multiplier = 1 << 30;
  int shift = 0;
};
// Decomposes a positive real multiplier into the q31 form.
QRequant make_requant(double real_multiplier);
// The exact scalar the kernel applies per element; exposed so tests can
// compute bit-exact expectations from a naive int64 reference.
std::int32_t apply_requant(std::int64_t acc, const QRequant& rq);

// ---------------------------------------------------------------------------
// Store epilogue, applied once per output element after the full-k
// integer accumulation. The optional bias is in ACCUMULATOR scale
// (bias_real / (step_a * step_b), pre-rounded by the caller) and is added
// before either store; bias_row indexes the m axis (conv output
// channels), bias_col the n axis (batched inner product).
struct QGemmEpilogue {
  const std::int64_t* bias_row = nullptr;
  const std::int64_t* bias_col = nullptr;
  // quant_store == false: C is float*, c[i,j] = (acc + bias) * scale.
  double scale = 1.0;
  // quant_store == true: C has the operand type, c[i,j] =
  // clamp(apply_requant(acc + bias), lo, hi); clips count as saturations.
  bool quant_store = false;
  QRequant requant;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  // Optional saturation sink; incremented once per task (relaxed), so the
  // total is deterministic. Also mirrored into qgemm.requant.saturated
  // when metrics are enabled.
  std::atomic<std::int64_t>* saturated = nullptr;
  // Fused ReLU, applied inside the store (no extra tensor pass). Float
  // store: the exact ReLULayer expression (x > 0 ? x : 0) on the
  // dequantized value. Requantize store: max(q, 0) on the integer value
  // BEFORE the clamp — exact, because the grids are symmetric about 0,
  // requantization is monotone, and 0 maps to 0 (relu zeros are semantic,
  // never counted as saturations).
  bool relu = false;
  // Operand bounds derived where the operands were lowered (0 = unknown):
  // a_max >= every |A| of the call, bias_max >= every |bias|. With max|B|
  // from qgemm's own range scan they prove
  //   k * a_max * max|B| + bias_max + 2^(t-1) < 2^31
  // (t the power-of-two requantize shift, else 0), which lets int16
  // operands accumulate in int32 and the store run in int32 SIMD. An
  // unknown bound keeps the int64 accumulators.
  std::int64_t a_max = 0;
  std::int64_t bias_max = 0;
};

// C = A · B with the given epilogue, row-major, homogeneous operand type:
//   A: m x k ints of `type`, leading dimension lda;
//   B: k x n ints of `type`, ldb — or Bᵀ (n x k) memory with trans_b, the
//      packing absorbs the transpose exactly as the float gemm does;
//   C: m x n, ldc — float* (dequant store) or `type`* (requantize store).
// Parallelises over output-tile tasks on the global pool; runs inline
// below a MAC cutoff or inside an existing parallel region.
void qgemm(QType type, std::int64_t m, std::int64_t n, std::int64_t k,
           const void* a, std::int64_t lda,
           const void* b, std::int64_t ldb,
           void* c, std::int64_t ldc,
           const QGemmEpilogue& ep, bool trans_b = false);

// qgemm with the patch matrix of one image group (ConvPatches, ints of
// `type`) as B: the tile driver packs each B strip straight from the
// image, never materializing the patch matrix. Same results as qgemm on
// the materialized patch matrix, byte for byte.
void qgemm_patches(QType type, std::int64_t m, const void* a, std::int64_t lda,
                   const ConvPatches& b, void* c, std::int64_t ldc, const QGemmEpilogue& ep);

// ---------------------------------------------------------------------------
// Saturating quantize-on-load: out[i] = clamp(nearbyint(x[i] / step), lo,
// hi) stored as `type`. Bit-compatible with quant/fixed_point.hpp's
// quantize_tensor (same nearbyint grid, and [lo, hi] = [-2^(B-1),
// 2^(B-1)-1] reproduces its value clamp exactly since step is a power of
// two). Returns the number of clamped (saturated) values. Serial — the
// callers chunk it across the pool themselves.
std::int64_t quantize_to(QType type, const float* x, std::int64_t n, double step,
                         std::int32_t lo, std::int32_t hi, void* out);

}  // namespace mupod
