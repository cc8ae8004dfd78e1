// Internal cross-TU wiring for the kernel registries. The per-ISA TUs
// (kernels_scalar.cpp, kernels_avx2.cpp) each export one registry
// accessor; dispatch.cpp selects among them. The AVX2+FMA accessor exists
// only when CMake compiled its TU (MUPOD_HAVE_AVX2_KERNELS) — on other
// targets dispatch links against the scalar entry alone.
#pragma once

#include "tensor/kernels/kernels.hpp"

namespace mupod::internal {

const KernelRegistry& scalar_kernel_registry();

#ifdef MUPOD_HAVE_AVX2_KERNELS
const KernelRegistry& avx2_fma_kernel_registry();
#endif

}  // namespace mupod::internal
