// Test-only helpers for the per-ISA batteries: the kernel ISAs, those this
// build and CPU can run, and an RAII guard that restores the active ISA.
#pragma once

#include <vector>

#include "tensor/kernels/kernels.hpp"

namespace mupod {

// Every ISA the registry knows, runnable here or not.
inline constexpr KernelIsa kAllIsas[] = {KernelIsa::kScalar, KernelIsa::kAvx2Fma};

// Every ISA that can run here, scalar first.
inline std::vector<KernelIsa> available_isas() {
  std::vector<KernelIsa> v;
  for (KernelIsa isa : kAllIsas)
    if (kernel_isa_available(isa)) v.push_back(isa);
  return v;
}

// Restores the ISA active at construction, however the test exits.
struct IsaGuard {
  KernelIsa saved = kernel_isa();
  ~IsaGuard() { set_kernel_isa(saved); }
};

}  // namespace mupod
