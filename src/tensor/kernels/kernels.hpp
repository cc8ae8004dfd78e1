// Runtime-dispatched SIMD micro-kernels for the forward hot path.
//
// The paper's premise is that reduced-precision integer execution buys
// speed on edge hardware — but that only materializes when the int8/int16
// dot products map onto the CPU's multiply-accumulate instructions.
// Compiler autovectorization of the generic C++ kernels in gemm.cpp /
// qgemm.cpp does not get there (BENCH_forward.json showed int8 *losing*
// to the blocked float path on every zoo net). This module adds
// hand-written intrinsic micro-kernels behind a registry selected once at
// startup by CPUID:
//
//   kScalar    the generic C++ kernels (compiler-vectorized), the
//              baseline ISA on every target and the correctness
//              reference for the other entries;
//   kAvx2      AVX2 integer kernels (vpmaddwd / vpmaddubsw dot products,
//              B-strip packers, range scans, the int32 store epilogue,
//              vectorized quantize-on-load) plus a mul+add 6x16 SGEMM
//              micro-kernel;
//   kAvx2Fma   kAvx2's integer kernels plus an FMA 6x16 SGEMM
//              micro-kernel (vfmadd231ps).
//
// Dispatch rules (docs/method.md §16):
//   * the active ISA is detected once via CPUID (+ XGETBV for OS ymm
//     state); MUPOD_FORCE_KERNEL={scalar,avx2,avx2fma} overrides it at
//     startup, and set_kernel_isa() overrides it from tests/benches
//     (not thread-safe: flip at startup or between forwards);
//   * forcing an ISA the build or CPU cannot run falls back to the
//     detected one — kernel_isa() always names an ISA that can execute;
//   * non-x86 builds compile only the scalar entry (the AVX2 TUs are
//     excluded by CMake and MUPOD_HAVE_AVX2_KERNELS is undefined).
//
// Determinism contract (extends tensor/gemm.hpp's): within a fixed ISA,
// results are bitwise independent of worker count and task decomposition.
// INTEGER kernels are additionally bitwise identical ACROSS ISAs — every
// intrinsic path computes exact products and accumulates them in the same
// modular integer arithmetic as the scalar reference (the property
// battery asserts byte equality, not tolerance). Float kernels may differ
// across ISAs by reassociation/FMA contraction only (bounded, see
// docs/method.md §16).
#pragma once

#include <cstdint>

namespace mupod {

// ---------------------------------------------------------------------------
// ISA selection

enum class KernelIsa : int { kScalar = 0, kAvx2 = 1, kAvx2Fma = 2 };

// "scalar" / "avx2" / "avx2fma".
const char* kernel_isa_name(KernelIsa isa);
// Parses the MUPOD_FORCE_KERNEL spellings ("scalar", "avx2",
// "avx2fma" / "avx2_fma" / "fma"). Returns false on unknown input.
bool parse_kernel_isa(const char* s, KernelIsa* out);

// The best ISA this build + CPU + OS can run (CPUID, evaluated once).
KernelIsa detected_kernel_isa();
// Whether `isa` can run here (compiled in and CPU-supported).
bool kernel_isa_available(KernelIsa isa);

// The active ISA. Startup value: MUPOD_FORCE_KERNEL if set, parseable and
// available, else detected_kernel_isa(). Mirrored into the
// `tensor.kernel.isa` gauge whenever metrics are enabled.
KernelIsa kernel_isa();
// Test/bench hook. Unavailable ISAs are clamped to detected_kernel_isa().
// Not thread-safe: never flip while a forward is running.
void set_kernel_isa(KernelIsa isa);

// ---------------------------------------------------------------------------
// Registry
//
// Fixed micro-tile geometry shared by every integer kernel and the one
// qgemm tile driver (every packed layout, the scalar reference included,
// uses the same 4 x 16 tile, so tile-task ownership — and therefore
// determinism — is ISA-independent). Integer accumulators are int32
// (int8 operands, and int16 operands whose bound proves int32 exact) or
// int64 (every other int16/int32 call), so the tile is kept at 4 x 16:
// the int32 case fits the vector register file on SSE2 and the int64
// case stays inside one L1 line set.
inline constexpr int kQMr = 4;
inline constexpr int kQNr = 16;
// Upper bounds on the float micro-tile geometry across ISAs (the generic
// edge-tile path sizes its accumulators with these).
inline constexpr int kMaxMr = 8;
inline constexpr int kMaxNr = 16;

// Packed-operand layouts consumed by the integer kernels (produced by
// qgemm.cpp's A packers and the qpack_* entries below; byte-exact
// definitions in docs/method.md §16):
//
//  * k-PAIR layout (qmicro_pair32 / qmicro_pair64): A strip
//    ap[p * kQMr + r] is an int32 holding the sign-extended pair
//    (a[2p, r], a[2p+1, r]) as two int16s (low half = even k). B strip
//    bp[p * 2*kQNr + ...] holds, per pair p, 32 int16s: columns 0..7
//    interleaved (b[2p,0], b[2p+1,0], b[2p,1], ...) then columns 8..15.
//    Odd k is zero-padded.
//  * k-QUAD layout (qmicro8_maddubs, the u8 x s8 fast path): A strip
//    ap[q * kQMr + r] is an int32 holding 4 bytes a[4q..4q+3, r] + 128
//    (unsigned, the offset trick; padding bytes are 128 == offset 0).
//    B strip bp[q * 4*kQNr + ...] holds, per quad q, 64 int8s: columns
//    0..7 as 4 consecutive-k bytes each, then columns 8..15. The caller
//    pre-initializes acc[r][c] = -128 * colsum[c] so the offset cancels
//    exactly; legal only when every |b| <= 64 (no vpmaddubsw saturation)
//    and k <= 2^16 (no int32 accumulator wrap) — qgemm.cpp checks both.

// Parameters of the SIMD store epilogue (qstore_tile32): the
// QGemmEpilogue of tensor/qgemm.hpp, reduced to the shapes the entry
// handles. shift == 0 is the dequantizing store c = float(v) * scale,
// with scale a power of two in [2^-126, 2^96] (so the product is exact
// and c equals the scalar float(double(v) * scale)); shift == t in
// [1, 30] is the power-of-two requantize q = (v + 2^(t-1)) >> t, then
// ReLU, then the [lo, hi] clamp, stored as out_bytes (1 or 2) integers.
struct QTileStore {
  float scale = 1.0f;
  int shift = 0;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  int out_bytes = 0;
  bool relu = false;
};

struct KernelRegistry {
  KernelIsa isa;

  // SGEMM micro-kernel: C_tile(mr x nr) = A_strip · B_strip + beta*C.
  // ap: kc x mr (r-contiguous per k), bp: kc x nr (c-contiguous per k),
  // k ascending, C touched once at the end.
  int mr, nr;
  void (*sgemm_micro)(int kc, const float* ap, const float* bp, float* c,
                      std::int64_t ldc, float beta);
  // Same geometry and contract, but always separate multiply then add —
  // the arithmetic of gemm.cpp's generic edge tile. gemm() runs row-edge
  // tiles (fewer than mr valid rows, all nr columns) through it, so an
  // edge tile's bits do not change when the full-tile kernel is FMA.
  // Equal to sgemm_micro except under kAvx2Fma, where it is kAvx2's kernel.
  void (*sgemm_micro_mul_add)(int kc, const float* ap, const float* bp, float* c,
                              std::int64_t ldc, float beta);

  // Integer micro-kernels, named after the accumulator they implement;
  // null => qgemm.cpp's tile driver runs its PLAIN layout (generic C++
  // micro-kernel). acc is the kQMr x kQNr accumulator tile, accumulated
  // in-place (callers zero- or compensation-initialize it). The pair
  // kernels take int8 or int16 operands alike (both pack as int16 pairs):
  // pair32 keeps int32 accumulators — exact for int8 operands and for
  // int16 calls whose bound qgemm.cpp proves — and pair64 widens each
  // vpmaddwd sum to int64.
  void (*qmicro_pair32)(std::int64_t k_pairs, const std::int32_t* ap, const std::int16_t* bp,
                        std::int32_t* acc);
  void (*qmicro8_maddubs)(std::int64_t k_quads, const std::int32_t* ap, const std::int8_t* bp,
                          std::int32_t* acc);
  void (*qmicro_pair64)(std::int64_t k_pairs, const std::int32_t* ap, const std::int16_t* bp,
                        std::int64_t* acc);

  // B-strip packers of the pair and quad layouts: pack k-rows of one
  // strip, rows[kk] pointing at its kQNr B values (the caller zero-pads
  // edge columns); k tails pad with zero rows. The quad packer also adds
  // the rows' column sums into colsum[0, kQNr). A strip may be packed in
  // consecutive calls whose k is a multiple of the unit.
  void (*qpack_pair8)(std::int64_t k, const std::int8_t* const* rows, std::int16_t* bp);
  void (*qpack_pair16)(std::int64_t k, const std::int16_t* const* rows, std::int16_t* bp);
  void (*qpack_quad8)(std::int64_t k, const std::int8_t* const* rows, std::int8_t* bp,
                      std::int32_t* colsum);
  // Widens [*mn, *mx] to cover x[0, n): the B range scan that gates the
  // quad kernel, the int16 -32768 corner and the int32-accumulator bound.
  void (*qrange8)(const std::int8_t* x, std::int64_t n, std::int32_t* mn, std::int32_t* mx);
  void (*qrange16)(const std::int16_t* x, std::int64_t n, std::int32_t* mn, std::int32_t* mx);

  // Store epilogue of one FULL kQMr x kQNr int32 accumulator tile
  // (row-major acc): adds bias_row[r] (kQMr values) or, when that is
  // null, bias_col[c] (kQNr values), then stores per `st` into the tile
  // at c (float or out_bytes integers, leading dimension ldc). Returns
  // the clamp count. The caller guarantees that acc + bias (+ the
  // rounding half) fits int32. Byte-identical to qgemm.cpp's scalar
  // store_tile on those inputs; edge tiles always take store_tile.
  std::int64_t (*qstore_tile32)(const std::int32_t* acc, const QTileStore& st,
                                const std::int64_t* bias_row, const std::int64_t* bias_col,
                                void* c, std::int64_t ldc);

  // GEMV dot products (n == 1 calls — the batch-1 inner product): plain
  // contiguous rows, no packing. Exact (same modular arithmetic as the
  // scalar accumulation); qdot16 requires x free of -32768 (the caller
  // scans: the single vpmaddwd overflow case needs -32768 pairs in BOTH
  // operands).
  std::int32_t (*qdot8)(std::int64_t k, const std::int8_t* a, const std::int8_t* x);
  std::int64_t (*qdot16)(std::int64_t k, const std::int16_t* a, const std::int16_t* x);

  // Vectorized saturating quantize-on-load (bit-compatible with
  // tensor/qgemm.hpp's quantize_to: same grid, clamp and NaN->0 rule;
  // returns the clamp count). inv_step = 1/step exactly (power of two).
  std::int64_t (*quantize8)(const float* x, std::int64_t n, float inv_step, std::int32_t lo,
                            std::int32_t hi, std::int8_t* out);
  std::int64_t (*quantize16)(const float* x, std::int64_t n, float inv_step, std::int32_t lo,
                             std::int32_t hi, std::int16_t* out);
};

// The registry for the ACTIVE ISA (kernel_isa()).
const KernelRegistry& kernel_registry();
// The registry for a specific ISA (clamped to an available one).
const KernelRegistry& kernel_registry_for(KernelIsa isa);

}  // namespace mupod
