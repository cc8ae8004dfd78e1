// BatchPolicy: the dynamic batcher's flush decision as a pure,
// explicit-time function (core/clock.hpp). Time is a microsecond
// timestamp supplied by the caller, never read from a real clock here, so
// tests walk every size/timeout/drain decision with a fake clock and the
// batcher thread drives the identical logic with mono_now_us.
//
// The policy balances the two costs of batching single-image requests:
// waiting longer coalesces more rows into one forward pass (amortizing
// per-batch overhead and exploiting the GEMM's batch efficiency), but
// every queued request pays that wait as latency. A batch flushes when
// either
//   * SIZE:    max_batch requests are waiting (no reason to wait — the
//     forward cannot take more rows), or
//   * TIMEOUT: the oldest queued request has waited max_wait_us (bounding
//     the latency cost of hoping for more arrivals), or
//   * DRAIN:   the server is shutting down and flushes whatever is left.
// Otherwise the decision reports when the pending timeout flush falls due,
// which is exactly the batcher's condition-variable wait target.
#pragma once

#include <cstdint>

namespace mupod {

struct BatchPolicyConfig {
  int max_batch = 8;              // rows per forward pass (>= 1)
  std::int64_t max_wait_us = 1000;  // oldest-request age that forces a flush
};

// Why a batch was (or was not) cut.
enum class BatchTrigger {
  kNone,     // no flush: keep waiting
  kSize,     // max_batch requests waiting
  kTimeout,  // oldest request aged out
  kDrain,    // shutdown flush
};

const char* batch_trigger_name(BatchTrigger t);

struct BatchDecision {
  bool flush = false;
  BatchTrigger trigger = BatchTrigger::kNone;
  // Meaningful only when !flush and depth > 0: the time at which the
  // oldest request's timeout flush falls due (cv wait_until target).
  std::int64_t flush_due_us = 0;
};

class BatchPolicy {
 public:
  explicit BatchPolicy(BatchPolicyConfig cfg = {});

  const BatchPolicyConfig& config() const { return cfg_; }

  // Decision for a queue of `depth` requests whose oldest arrived at
  // `oldest_enqueue_us`, evaluated at `now_us`. `draining` flushes any
  // non-empty queue immediately (shutdown).
  BatchDecision decide(int depth, std::int64_t oldest_enqueue_us, std::int64_t now_us,
                       bool draining = false) const;

 private:
  BatchPolicyConfig cfg_;
};

}  // namespace mupod
