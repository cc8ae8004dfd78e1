#!/usr/bin/env bash
# Build and run the test suite under sanitizers
# (-fno-sanitize-recover=all: any finding aborts the test).
#
# Usage:
#   scripts/run_sanitized_tests.sh [ctest-args...]          # ASan+UBSan, full suite
#   scripts/run_sanitized_tests.sh --tsan [ctest-args...]   # TSan, concurrency tests
#
# --tsan builds with -DMUPOD_SANITIZE=thread and runs only the tests
# labeled `sanitize` or `quant` (ctest -L 'sanitize|quant'): the
# DiagnosticSink / metrics / PlanService threading hammers in
# tests/test_diag_threading.cpp, the GEMM pack/tile-task suite in
# tests/test_gemm.cpp, the per-thread forward arenas in
# tests/test_network.cpp (four threads interleaving network and compiled
# forwards), the inference-server battery in tests/test_infer.cpp (batcher thread,
# shared-mutex plan hot-swap under load, concurrent submitters, seeded
# kDelay chaos on the forward path), the graph-compiler battery in
# tests/test_compile*.cpp (fused gemm/qgemm epilogues cross threads, and
# the differential equivalence checks sweep worker counts), and the
# integer-backend battery in tests/test_qgemm_property.cpp +
# test_plan_conformance.cpp (the qgemm pack/tile tasks and
# quantize-on-load chunking cross threads) — the
# interesting ones under TSan; the full suite under TSan is an order of
# magnitude slower for no extra interleaving coverage. The TSan run pins
# MUPOD_THREADS=4 so the pool (and the GEMM tile fan-out) exercises real
# cross-thread interleavings even on single-core machines.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=address
if [ "${1:-}" = "--tsan" ]; then
  MODE=thread
  shift
fi

# Cheap static gate before the expensive sanitized build: every metric-name
# literal in src/ must follow the naming scheme and appear in the
# docs/method.md registry tables (§15).
scripts/check_metric_names.sh

if [ "$MODE" = "thread" ]; then
  BUILD_DIR=build-tsan
  CTEST_EXTRA=(-L 'sanitize|quant')
  # Force a multi-worker pool: on few-core CI boxes the pool would
  # otherwise collapse to 1 worker and TSan would see no interleavings.
  export MUPOD_THREADS="${MUPOD_THREADS:-4}"
else
  BUILD_DIR=build-asan
  CTEST_EXTRA=()
fi

cmake -B "$BUILD_DIR" -S . -DMUPOD_SANITIZE="$MODE" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "${CTEST_EXTRA[@]}" "$@"

# Second lane, forced-scalar kernels: the AVX2+FMA intrinsic TU sits
# behind runtime CPUID dispatch, so on AVX2+FMA hardware the run above never
# executes the generic C++ kernel paths that non-x86 builds (and older
# CPUs) fall back to. MUPOD_FORCE_KERNEL=scalar re-runs the kernel-facing
# batteries (`sanitize` covers gemm + dispatch, `quant` the integer
# backend) through those paths under the same sanitizer. Same build dir:
# dispatch is a startup env read, no recompile needed. PlanConformance
# runs here too: it compares against the golden of the active float
# arithmetic (tests/golden/plan_conformance.scalar.txt when no FMA
# kernel runs).
echo "=== re-running kernel batteries with MUPOD_FORCE_KERNEL=scalar ($MODE) ==="
MUPOD_FORCE_KERNEL=scalar \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -L 'sanitize|quant' "$@"
