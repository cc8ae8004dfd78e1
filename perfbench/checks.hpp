// Output checks of the plan-and-serve benchmark. Each one is a contract
// the library already documents; none pins a number measured on one
// machine or ISA.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "serve/plan_service.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

// Collects check outcomes; a run is correct only when every check held.
class CheckLog {
 public:
  void expect(bool ok, const std::string& what) {
    ++checked_;
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  int checked() const { return checked_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int checked_ = 0;
  std::vector<std::string> failures_;
};

// A memoized or re-answered plan must equal the cold answer exactly
// (PlanService: answers are bit-identical to a cold run).
bool same_answer(const mupod::PlanResult& a, const mupod::PlanResult& b);

// A served row must equal the same input run alone under the same plan,
// bit for bit (InferenceServer: batched rows are byte-identical to
// one-at-a-time forwards).
bool same_logits(const std::vector<float>& served, const mupod::Tensor& alone);

}  // namespace perfbench
