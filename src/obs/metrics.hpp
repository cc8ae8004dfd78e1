// MetricsRegistry: named counters, gauges, and fixed-bucket histograms for
// the whole pipeline.
//
// The paper's headline claim against search-based methods (Stripes/Loom,
// Adaptive Quantization, SigmaQuant) is *optimization time*, and the
// natural cost currency of that comparison is the number of (partial)
// forward passes each stage spends. This registry is how the stack counts
// them — plus cache hit rates, solver iterations, sigma-search bracket
// behaviour, and thread-pool utilization — without perturbing the thing
// being measured:
//
//  * recording is wait-free on the hot path: counters are sharded across
//    cache lines and incremented with relaxed atomics, so parallel_for
//    workers and concurrent PlanService tails never contend;
//  * the whole layer is gated behind a single relaxed atomic flag
//    (metrics_enabled). Disabled, an instrumentation point costs one
//    predictable branch — bench_observability asserts the enabled cost
//    stays under 3% of the profile stage;
//  * handles are stable for the process lifetime: the registry never
//    erases an instrument, so call sites may cache Counter*/Gauge*
//    pointers (typically via function-local statics).
//
// Naming scheme (docs/method.md §10): dot-separated lowercase
// `<area>.<object>.<property>`, e.g. `stage.profile.forwards`,
// `serve.sigma.hits`, `pool.worker3.busy_us`. Units are suffixes
// (`_us`, `_ms`) when not dimensionless. The kernel layer reports
// `gemm.calls` / `gemm.flops` / `gemm.tiles` (counters) and
// `tensor.scratch.bytes` (gauge: resident per-thread packing and
// bordered-image arenas) — see docs/method.md §11. The online inference
// server reports the `infer.*` family
// (docs/method.md §14), mirrored field-for-field by ServerStats
// (src/infer/server.hpp; asserted by the symmetry test in
// tests/test_infer.cpp): request
// outcomes (`infer.requests.submitted/ok/failed/shutdown`), admission and
// deadline decisions (`infer.admission.rejected`,
// `infer.deadline.rejected/expired_queued/exceeded`), batcher behaviour
// (`infer.batches`, `infer.batch.rows`,
// `infer.batch.size_flushes/timeout_flushes/drain_flushes`, histogram
// `infer.batch.size`), plan hot-swaps (`infer.plan.swaps`), queue state
// (gauge `infer.queue.depth`), and latency histograms (`infer.latency.ms`
// end-to-end, `infer.queue.ms` time-in-queue) whose p50/p99 come from
// HistogramMetric::percentile below.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mupod {

class JsonWriter;

// Small dense per-thread slot id (0, 1, 2, ...) used to index counter
// shards and to label trace events / pool workers. Assigned on first use
// per thread, monotonically; never reused within a process.
int obs_thread_slot();

// Monotonic counter, sharded to keep concurrent increments off each
// other's cache lines.
class Counter {
 public:
  static constexpr int kShards = 8;

  void add(std::int64_t v = 1) {
    shards_[static_cast<std::size_t>(obs_thread_slot() & (kShards - 1))].v.fetch_add(
        v, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    std::int64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::int64_t> v{0};
  };
  std::array<Shard, kShards> shards_;
};

// Last-writer-wins scalar with an additive mode (accumulating busy-time).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t v) { v_.fetch_add(v, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Quantile estimate from fixed buckets: finds the bucket holding rank
// q * count and interpolates linearly inside it (bucket i spans
// (bounds[i-1], bounds[i]]; the first bucket's lower edge is
// min(0, bounds[0])). The overflow bucket has no upper edge, so any rank
// landing there reports the last bound — a fixed-bucket histogram cannot
// resolve beyond its range. q is clamped to [0, 1]; empty counts yield 0.
double histogram_percentile(const std::vector<double>& bounds,
                            const std::vector<std::int64_t>& counts, double q);

// The headline numbers a latency report wants from one histogram, computed
// once (bench_serve and the serve_tool latency table consume this instead
// of hand-rolling percentile extraction).
struct HistogramSummary {
  std::int64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

// Fixed-bucket histogram: bucket i counts samples <= bounds[i]; one
// implicit overflow bucket counts the rest. Bounds are fixed at first
// registration (re-registering with different bounds keeps the original —
// instruments are immutable once created).
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> bounds);

  void record(double x);
  const std::vector<double>& bounds() const { return bounds_; }
  // counts() has bounds().size() + 1 entries (last = overflow).
  std::vector<std::int64_t> counts() const;
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  // histogram_percentile over a point-in-time copy of the buckets.
  double percentile(double q) const;
  HistogramSummary summary() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Point-in-time copy of every instrument, sorted by name — the unit
// reports and exporters consume.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::int64_t> counts;  // bounds.size() + 1 (overflow last)
    std::int64_t count = 0;
    double sum = 0.0;
    double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
    double percentile(double q) const { return histogram_percentile(bounds, counts, q); }
    HistogramSummary summary() const;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }
  // Counter value by exact name; 0 when absent.
  std::int64_t counter(const std::string& name) const;

  // Emits {"counters": {...}, "gauges": {...}, "histograms": {...}} as the
  // next value of `j` (caller places the key / array slot).
  void write_json(JsonWriter& j) const;
  // Plain-text rendering (one instrument per line) for CLI --metrics.
  std::string render_text() const;
};

class MetricsRegistry {
 public:
  // Named instrument accessors: create on first use, return the existing
  // instrument afterwards. References stay valid for the registry's
  // lifetime (instruments are never erased; reset() only zeroes values).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;
  // Zeroes every instrument, keeping registrations (and thus any cached
  // handles) intact.
  void reset();

 private:
  mutable std::mutex mu_;  // guards map shape only; values are atomic
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

// Process-global registry and its master switch. Disabled by default: the
// deterministic-output contracts (byte-identical reports, bit-identical
// plans) are asserted with instrumentation both off and on, but a default
// of "off" keeps the seed behaviour byte-for-byte.
MetricsRegistry& metrics();
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

}  // namespace mupod
