// InferenceServer: the online request-serving layer over compiled
// networks (compile/compiled_network.hpp).
//
// Everything below this layer is batch-shaped: the pipeline computes
// plans and PlanService caches them — but nothing served an actual
// inference request. This server closes that loop for single-image
// classification:
//
//  * submit(image, opts) returns a std::future<InferenceResult>
//    immediately; a dedicated condition-variable batcher thread coalesces
//    concurrent requests into one forward pass of up to max_batch rows
//    (the flush decision is BatchPolicy — explicit-time, fake-clock-
//    testable — driven here with the process clock, core/clock.hpp).
//    Batched rows are byte-identical to one-at-a-time forwards: the GEMM
//    layer's determinism contract is per-(image, group), so coalescing
//    only amortizes dispatch and packing, never changes bits
//    (tests/test_infer.cpp asserts this per worker count).
//
//  * ADMISSION CONTROL: the queue is bounded (max_queue); a request
//    arriving at a full queue is shed immediately with
//    kRejectedQueueFull — a loaded server degrades by rejecting fast, not
//    by growing an unbounded queue whose every entry will miss its
//    deadline anyway. A request whose deadline is below the configured
//    service floor (min_service_us) is rejected at submit with
//    kRejectedDeadline rather than queued to certainly expire.
//
//  * DEADLINES: each request may carry a relative deadline. It is checked
//    once more when the batcher collects the request (expired in queue ->
//    kExpiredInQueue, the forward is never paid) and after execution
//    (finished late -> kDeadlineExceeded, the logits are still attached —
//    the caller decides whether late data is useful).
//
//  * MODEL REGISTRY: models live behind a shared_mutex. Both paths serve
//    COMPILED artifacts (compile/graph_compiler.hpp): registration
//    compiles the float network (fused ReLU/norm epilogues, bitwise
//    identical to Network::forward), and install_plan lowers a precision
//    plan (directly or via PlanService) into one fused CompiledNetwork —
//    requantize elision keeps activations integer across fused regions —
//    and swaps it in under the write lock.
//    Executing batches hold shared_ptr snapshots, so a hot-swap never
//    stalls in-flight work and an in-flight batch never sees a
//    half-installed plan; each result records the plan_version it was
//    served under.
//
//  * OBSERVABILITY: every decision increments an infer.* instrument
//    (naming table in src/obs/metrics.hpp) and its ServerStats mirror;
//    batch forwards run under ForwardStageScope(kServe), so
//    stage.serve.forwards separates serving cost from analysis cost.
//    Latency and batch-size histograms expose p50/p99 through
//    HistogramMetric::percentile.
//
//  * FAULTS: the batcher consults FaultInjector point "infer.forward"
//    once per batch (kDelay stalls the forward, kDrop fails the batch
//    with an explicit diagnosis, data kinds poison the output tensor;
//    src/core/fault.hpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "compile/compiled_network.hpp"
#include "core/fault.hpp"
#include "infer/batch_policy.hpp"
#include "obs/trace.hpp"
#include "serve/plan_service.hpp"
#include "tensor/tensor.hpp"

namespace mupod {

// Terminal status of one request; every submitted future resolves to
// exactly one of these (the server never breaks a promise).
enum class InferStatus {
  kOk,                 // executed within deadline
  kRejectedQueueFull,  // shed at submit: bounded queue was full
  kRejectedDeadline,   // shed at submit: deadline below the service floor
  kExpiredInQueue,     // deadline passed while queued; never executed
  kDeadlineExceeded,   // executed, but finished past the deadline (logits attached)
  kShutdown,           // server stopped before the request could run
  kError,              // execution failed (diagnosis in `error`)
};

const char* infer_status_name(InferStatus s);

// Which execution path a request rides.
enum class InferBackend {
  kFloat,    // registered Network, fp32 GEMM path
  kInteger,  // installed integer plan (requires install_plan first)
};

const char* infer_backend_name(InferBackend b);

struct InferOptions {
  std::string model;  // empty = default (first registered) model
  // Relative deadline from submit; 0 = none. Negative deadlines are
  // rejected at submit (they were unmeetable before they arrived).
  std::int64_t deadline_us = 0;
  InferBackend backend = InferBackend::kFloat;
};

struct InferenceResult {
  InferStatus status = InferStatus::kError;
  std::uint64_t id = 0;  // request id (process-unique, from 1)
  std::string model;
  InferBackend backend = InferBackend::kFloat;
  // argmax of `logits`; -1 unless the request executed.
  int predicted = -1;
  std::vector<float> logits;
  // Execution provenance: rows in the coalesced forward this request rode
  // in, why that batch was cut, and the plan version serving it (0 on the
  // float path or before any install_plan).
  int batch_rows = 0;
  BatchTrigger trigger = BatchTrigger::kNone;
  std::uint64_t plan_version = 0;
  std::int64_t queue_us = 0;  // submit -> collected by the batcher
  std::int64_t run_us = 0;    // the batch's forward wall time
  std::int64_t total_us = 0;  // submit -> future resolved
  std::string error;          // diagnosis for kError / rejections
  // Correlation: the request's trace id (0 when tracing was off at
  // submit) and the sequence number of the batch that executed it (-1 if
  // it never reached a batch). These join the result to the Chrome-trace
  // lane and the flight-recorder record for the same request.
  std::uint64_t trace_id = 0;
  std::int64_t batch_id = -1;
};

struct InferenceServerConfig {
  BatchPolicyConfig batch;    // max_batch / max_wait_us
  std::size_t max_queue = 256;  // admission bound on queued requests
  // Admission floor: a positive deadline below this is rejected at submit
  // (it cannot be served in time even by an idle server). 0 disables the
  // check; negative deadlines are always rejected.
  std::int64_t min_service_us = 0;
  // stop(): run the queued requests to completion (true) or resolve them
  // with kShutdown (false). In-flight batches always complete either way.
  bool drain_on_stop = true;
};

// Mirror of the infer.* metrics family (naming table in
// src/obs/metrics.hpp); the symmetry is asserted by tests/test_infer.cpp.
// Always maintained, metrics on or off — this is the server's own report.
struct ServerStats {
  std::int64_t submitted = 0;           // infer.requests.submitted
  std::int64_t completed = 0;           // infer.requests.ok
  std::int64_t rejected_queue_full = 0; // infer.admission.rejected
  std::int64_t rejected_deadline = 0;   // infer.deadline.rejected
  std::int64_t expired_in_queue = 0;    // infer.deadline.expired_queued
  std::int64_t deadline_exceeded = 0;   // infer.deadline.exceeded
  std::int64_t shutdown_unserved = 0;   // infer.requests.shutdown
  std::int64_t errors = 0;              // infer.requests.failed
  std::int64_t batches = 0;             // infer.batches
  std::int64_t rows = 0;                // infer.batch.rows
  std::int64_t size_flushes = 0;        // infer.batch.size_flushes
  std::int64_t timeout_flushes = 0;     // infer.batch.timeout_flushes
  std::int64_t drain_flushes = 0;       // infer.batch.drain_flushes
  std::int64_t plan_swaps = 0;          // infer.plan.swaps

  // Every submit accounted for exactly once across the terminal statuses
  // (requests still queued/in flight make up the difference).
  std::int64_t resolved() const {
    return completed + rejected_queue_full + rejected_deadline + expired_in_queue +
           deadline_exceeded + shutdown_unserved + errors;
  }
};

class InferenceServer {
 public:
  explicit InferenceServer(InferenceServerConfig cfg = {});
  ~InferenceServer();
  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  const InferenceServerConfig& config() const { return cfg_; }

  // Registers a float network under `name`; `net` is borrowed and must
  // outlive the server. `analyzed` is the pipeline's node pairing — what a
  // later install_plan binds per-layer formats to. The first registration
  // becomes the default model. Must not collide with an existing name.
  void register_model(const std::string& name, const Network& net, std::vector<int> analyzed);

  // Hot-swaps the integer path: compiles `formats` (paired with the
  // model's analyzed nodes, weights at `weight_bits`) into a fresh fused
  // CompiledNetwork and swaps it in under the registry write lock.
  // In-flight batches keep the snapshot they picked up. Returns the new
  // plan version (1, 2, ...).
  std::uint64_t install_plan(const std::string& name, const std::vector<FixedPointFormat>& formats,
                             int weight_bits = 16);
  // Convenience: answer `query` through the PlanService (memoized as
  // usual) and install the resulting plan. The service must have the same
  // network registered under `key`.
  std::uint64_t install_plan(const std::string& name, PlanService& service, const PlanKey& key,
                             const PlanQuery& query);

  // Current integer-plan version of `name` (0 until an install_plan).
  std::uint64_t plan_version(const std::string& name) const;

  void start();
  // Idempotent. Honors cfg.drain_on_stop; after return every submitted
  // future is resolved. Called by the destructor if still running.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Enqueues one image — shape (1, C, H, W) or (C, H, W) matching the
  // model's input — and returns immediately. The future always resolves;
  // shed/invalid requests resolve without ever entering the queue.
  // Thread-safe; callable before start() (requests queue up) but not
  // after stop() (resolves kShutdown).
  std::future<InferenceResult> submit(Tensor image, InferOptions opts = {});

  int queue_depth() const;
  ServerStats stats() const;

  // Fault seam for chaos tests/benches: consulted once per batch at point
  // "infer.forward". Borrowed; set nullptr to detach. Call while idle.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

 private:
  struct Request {
    std::uint64_t id = 0;
    Tensor image;  // always stored as (1, C, H, W)
    InferOptions opts;
    std::promise<InferenceResult> promise;
    std::int64_t submit_us = 0;
    std::int64_t deadline_abs_us = 0;  // 0 = none (process clock)
    TraceContext ctx;  // minted at submit; carried across the batcher hop
  };

  struct ModelEntry {
    const Network* net = nullptr;
    std::vector<int> analyzed;
    // Fused float artifact (graph compiler), built at registration — the
    // float path serves this, bitwise identical to net->forward.
    std::shared_ptr<const CompiledNetwork> compiled_float;
    // Fused integer artifact for the installed plan; null until
    // install_plan, recompiled by every install_plan (hot-swap).
    std::shared_ptr<const CompiledNetwork> compiled_int;
    std::uint64_t plan_version = 0;
  };

  // What one batch executes against: immutable snapshot of a registry
  // entry taken under the read lock.
  struct ModelSnapshot {
    const Network* net = nullptr;
    std::shared_ptr<const CompiledNetwork> compiled_float;
    std::shared_ptr<const CompiledNetwork> compiled_int;
    std::uint64_t plan_version = 0;
  };

  void run_batcher();
  // Pops the front-key batch (same model + backend, up to max_batch) off
  // the queue; expired requests are resolved kExpiredInQueue in place.
  // Requires qmu_ held; returns the popped requests.
  std::vector<std::unique_ptr<Request>> collect_locked(std::int64_t now_us);
  void execute_batch(std::vector<std::unique_ptr<Request>> batch, BatchTrigger trigger);
  void resolve(std::unique_ptr<Request> r, InferenceResult&& res);
  void fail_remaining_locked(InferStatus status, const char* why);

  InferenceServerConfig cfg_;
  BatchPolicy policy_;

  mutable std::shared_mutex models_mu_;
  std::map<std::string, ModelEntry> models_;
  std::string default_model_;

  mutable std::mutex qmu_;
  std::condition_variable qcv_;
  std::deque<std::unique_ptr<Request>> queue_;
  bool stop_ = false;  // guarded by qmu_
  std::thread batcher_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};  // stop() completed; submits fast-fail
  FaultInjector* faults_ = nullptr;

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::int64_t> submitted_{0}, completed_{0};
  std::atomic<std::int64_t> rejected_queue_full_{0}, rejected_deadline_{0};
  std::atomic<std::int64_t> expired_in_queue_{0}, deadline_exceeded_{0};
  std::atomic<std::int64_t> shutdown_unserved_{0}, errors_{0};
  std::atomic<std::int64_t> batches_{0}, rows_{0};
  std::atomic<std::int64_t> size_flushes_{0}, timeout_flushes_{0}, drain_flushes_{0};
  std::atomic<std::int64_t> plan_swaps_{0};
};

}  // namespace mupod
