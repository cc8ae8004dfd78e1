// Register-blocked packed single-precision GEMM for the forward hot path.
//
// Every stage of the pipeline — λ/θ profiling, the sigma binary search,
// the objective sweeps — bottoms out in Network::forward, and the stage
// accounting of the observability layer shows the forward passes carry
// nearly all wall time. Conv2DLayer::forward and
// InnerProductLayer::forward run their dot products through one blocked
// matrix multiply:
//
//   C (m x n) = A (m x k) · B (k x n)  +  beta · C
//
// organised BLIS-style: B is packed KC x NC panel by panel into NR-wide
// strips, A is packed MC x KC block by block into MR-wide strips, and an
// MR x NR register-tile micro-kernel sweeps the packed panels. The inner
// loops are plain C with compile-time tile sizes so GCC/Clang
// auto-vectorize them — no intrinsics, so the kernel builds on any
// target (MR/NR widen automatically when AVX is available, see gemm.cpp).
//
// Determinism contract (load-bearing: the plan-service determinism suite
// asserts bit-identical runs and warm == cold plans):
//   * blocking parameters are compile-time constants;
//   * each output tile is owned by exactly one task per KC step, KC steps
//     are separated by a barrier (sequential loop in gemm()), and the
//     micro-kernel accumulates k in a fixed ascending order;
//   * there are no cross-thread reductions.
// Consequently the result is bitwise independent of the worker count and
// of whether the call runs serial (nested inside a parallel region) or
// parallel — only the wall time changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mupod {

// The compile-time blocking actually built into this binary (micro-tile
// MR x NR, cache blocks MC/KC/NC). Exposed so tests can cover the
// non-multiple edge cases of the real configuration.
struct GemmBlocking {
  int mr, nr;
  int mc, kc, nc;
};
GemmBlocking gemm_blocking();

// C = A · B + beta * C, row-major.
//   A: m x k with leading dimension lda.
//   B: k x n with leading dimension ldb — or, with trans_b, the memory
//      holds Bᵀ (n x k, leading dimension ldb); packing absorbs the
//      transpose, so e.g. an (out, in) weight matrix multiplies activations
//      without an explicit transpose pass.
//   C: m x n with leading dimension ldc.
// beta == 0 never reads C (safe on uninitialised output buffers); any
// other beta scales the existing C into the first KC step.
// relu applies the exact ReLULayer expression (x > 0 ? x : 0) to each
// output element once its full-k accumulation completes (on the last KC
// panel, per tile) — bitwise identical to a separate elementwise pass,
// without re-reading C.
// Parallelises over (MC block x NR strip) tile tasks on the global pool;
// inside an existing parallel region it runs serial with identical
// results (see the determinism contract above).
void gemm(std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb,
          float beta, float* c, std::int64_t ldc,
          bool trans_b = false, bool relu = false);

// Per-thread grow-only scratch arena. One instance lives per worker
// thread for the thread's lifetime; buffers only ever grow, so steady
// state does zero heap traffic no matter how many forwards run. Slots:
//   packed_a / packed_b  the GEMM packing buffers (packed_b is written by
//                        the calling thread and read by tile tasks);
//   col                  the im2col column buffer of Conv2DLayer;
//   qa / qb / qcol /     byte-granular slots for the integer path
//   qact                 (tensor/qgemm.cpp, nn/): packed int A strips, packed
//                        int B panels, the zero-bordered image copy a conv
//                        packs its B strips from, and the quantized copy
//                        of a layer's input activations (qb/qcol/qact are
//                        written by the calling thread and read by the
//                        packing and tile tasks).
// The returned pointers stay valid until the next call for the same slot
// on the same thread with a larger size.
class GemmScratch {
 public:
  ~GemmScratch();

  float* packed_a(std::size_t floats) { return grow(a_, floats); }
  float* packed_b(std::size_t floats) { return grow(b_, floats); }
  float* col(std::size_t floats) { return grow(col_, floats); }

  unsigned char* qa(std::size_t bytes) { return grow_bytes(qa_, bytes); }
  unsigned char* qb(std::size_t bytes) { return grow_bytes(qb_, bytes); }
  unsigned char* qcol(std::size_t bytes) { return grow_bytes(qcol_, bytes); }
  unsigned char* qact(std::size_t bytes) { return grow_bytes(qact_, bytes); }

  // Bytes currently held by this thread's arena.
  std::size_t bytes() const;

  // The calling thread's arena.
  static GemmScratch& local();

 private:
  float* grow(std::vector<float>& v, std::size_t floats);
  unsigned char* grow_bytes(std::vector<unsigned char>& v, std::size_t bytes);

  std::vector<float> a_, b_, col_;
  std::vector<unsigned char> qa_, qb_, qcol_, qact_;
};

// Process-wide total of live scratch-arena bytes across all threads.
// Mirrored into the `tensor.scratch.bytes` gauge whenever metrics are
// enabled; always available here for tests and tools.
std::int64_t gemm_scratch_bytes();

}  // namespace mupod
