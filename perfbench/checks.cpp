#include "checks.hpp"

#include <cstring>

namespace perfbench {

namespace {

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_double(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

bool same_answer(const mupod::PlanResult& a, const mupod::PlanResult& b) {
  return a.alloc.bits == b.alloc.bits && a.alloc.formats == b.alloc.formats &&
         same_bytes(a.alloc.xi, b.alloc.xi) && same_bytes(a.alloc.deltas, b.alloc.deltas) &&
         a.objective_cost == b.objective_cost && same_double(a.effective_bits, b.effective_bits) &&
         same_double(a.sigma_used, b.sigma_used) && same_double(a.accuracy_loss, b.accuracy_loss) &&
         a.refinements == b.refinements;
}

bool same_logits(const std::vector<float>& served, const mupod::Tensor& alone) {
  return static_cast<std::int64_t>(served.size()) == alone.numel() &&
         std::memcmp(served.data(), alone.data(), served.size() * sizeof(float)) == 0;
}

}  // namespace perfbench
