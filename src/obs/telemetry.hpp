// Telemetry export and the serving flight recorder.
//
// The PR-3 observability layer answers "how much work happened"
// (MetricsRegistry) and "where did wall-clock go" (Tracer); this layer
// answers the two operational questions left open once requests cross an
// async batcher:
//
//  * "what was the system doing over TIME?" — TelemetryExporter, a
//    background thread that snapshots the registry on a fixed period and
//    appends DELTA records to a JSONL time-series file (plus a Prometheus
//    text-exposition snapshot for scrapers). The delta discipline is
//    exact: summing every record's counter deltas reproduces the final
//    MetricsSnapshot to the count (asserted in tests/test_telemetry.cpp),
//    so a dashboard integrating the series never drifts from the source.
//    The flush decision is explicit-clock (due/flush take now_us), the
//    same fake-clock-testable split as BatchPolicy;
//    only the driver thread reads the process clock. stop() (and the
//    destructor) flushes a final snapshot so the series always ends at
//    the truth.
//
//  * "what happened to THIS request?" — FlightRecorder, a bounded
//    lock-sharded ring of per-request terminal records (trace id, status,
//    queue/exec/total µs, batch id). The serving layer (src/infer)
//    deposits one record per resolved request; recording is O(1) under
//    one shard mutex keyed by obs_thread_slot(), so concurrent resolvers
//    never contend. Trigger conditions — a deadline-exceeded terminal,
//    an external incident() call, or latency above a configured
//    threshold — dump a
//    self-contained JSON incident bundle: the recent request records,
//    the tracer spans correlated to their trace ids, and the metric
//    deltas since the previous incident. Incident count is bounded
//    (max_incidents) so a flapping trigger cannot fill a disk.
//
// Both stay behind the PR-3 relaxed-atomic gate discipline: the recorder
// has its own master switch (flight_recording_enabled, default off) so a
// disabled instrumentation point costs one predictable branch —
// bench/bench_telemetry.cpp holds the fully-enabled serving overhead
// under 3%.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mupod {

// --- TelemetryExporter -----------------------------------------------------

struct TelemetryConfig {
  // JSONL time-series: one delta record appended per period. Empty = off.
  std::string jsonl_path;
  // Prometheus text exposition: rewritten with the full snapshot per
  // period. Empty = off.
  std::string prom_path;
  std::int64_t period_us = 1'000'000;
};

class TelemetryExporter {
 public:
  explicit TelemetryExporter(TelemetryConfig cfg);
  ~TelemetryExporter();  // stop() + final flush
  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  const TelemetryConfig& config() const { return cfg_; }

  // Background driver: a thread that flushes every period_us until stop().
  void start();
  // Idempotent; joins the thread and flushes one final snapshot.
  void stop();

  // Explicit-clock core (public so tests drive it without the thread):
  // whether a periodic flush is due at `now_us`, and the flush itself —
  // snapshot the registry, append the delta record, rewrite the
  // Prometheus file. flush() is safe to call at any time (stop() uses it
  // for the final record); due() is a pure function of the last flush.
  bool due(std::int64_t now_us) const;
  void flush(std::int64_t now_us);

  std::int64_t records_written() const { return records_.load(std::memory_order_relaxed); }
  std::int64_t io_errors() const { return io_errors_.load(std::memory_order_relaxed); }
  // Registry state as of the last flush (what the series integrates to).
  MetricsSnapshot last_snapshot() const;

  // Prometheus text exposition of a snapshot (name mangling: '.' -> '_',
  // "mupod_" prefix; histograms emit cumulative _bucket/_sum/_count).
  static std::string prometheus_text(const MetricsSnapshot& snap);
  // One JSONL delta record: counters/histograms as deltas vs `prev`
  // (omitting zero deltas), gauges as current values.
  static std::string delta_record_json(const MetricsSnapshot& prev, const MetricsSnapshot& cur,
                                       std::int64_t seq, std::int64_t t_us);

 private:
  void run();

  TelemetryConfig cfg_;
  mutable std::mutex mu_;       // guards prev_, last_flush_us_, seq_
  MetricsSnapshot prev_;        // snapshot at the previous flush (deltas base)
  std::int64_t last_flush_us_ = -1;
  std::int64_t seq_ = 0;
  std::atomic<std::int64_t> records_{0};
  std::atomic<std::int64_t> io_errors_{0};

  std::mutex run_mu_;
  std::condition_variable run_cv_;
  bool stop_requested_ = false;  // guarded by run_mu_
  std::thread thread_;
  std::atomic<bool> running_{false};
};

// --- FlightRecorder --------------------------------------------------------

// Terminal record of one serving request — what an incident dump (or a
// postmortem) needs to reconstruct the request's path without the trace.
struct RequestRecord {
  std::uint64_t trace_id = 0;  // 0 when tracing was off
  std::uint64_t request_id = 0;
  const char* source = "";  // serving layer, e.g. "infer" (string literal)
  const char* status = "";  // terminal status name (string literal)
  bool ok = false;
  bool deadline_hit = false;  // terminal was a deadline violation
  std::int64_t queue_us = 0;
  std::int64_t exec_us = 0;
  std::int64_t total_us = 0;
  std::int64_t batch_id = -1;  // infer: coalesced batch sequence number
  std::int64_t t_us = 0;  // completion time (mono_now_us)
};

struct FlightRecorderConfig {
  // Ring capacity per shard; total retention = capacity * shards.
  std::size_t capacity_per_shard = 256;
  // Incident dumps: directory to write bundles into. Empty = triggers
  // evaluate but write nothing (records are still retained).
  std::string incident_dir;
  bool on_deadline_exceeded = true;
  // Latency trigger: a request whose total exceeds this dumps an
  // incident. <= 0 disables. Operators typically set it from a measured
  // percentile (e.g. 10x the steady-state p99 of infer.latency.ms).
  double slow_request_ms = 0.0;
  // Upper bound on incident bundles written per process run.
  int max_incidents = 8;
  // Cap on request records / correlated spans embedded per bundle.
  std::size_t max_bundle_records = 128;
  std::size_t max_bundle_spans = 512;
};

struct IncidentInfo {
  std::int64_t seq = 0;
  std::string trigger;  // "deadline_exceeded" | "breaker_open" | "slow_request"
  std::string detail;
  std::string path;  // written bundle ("" when incident_dir is empty)
  std::int64_t t_us = 0;
};

class FlightRecorder {
 public:
  static constexpr int kShards = 8;

  explicit FlightRecorder(FlightRecorderConfig cfg = {});

  // Reconfigure while idle (not thread-safe against concurrent record()).
  void configure(FlightRecorderConfig cfg);
  const FlightRecorderConfig& config() const { return cfg_; }

  // Deposits one terminal record (lock-sharded, O(1)) and evaluates the
  // record-shaped triggers (deadline_hit, slow_request).
  void record(const RequestRecord& r);

  // External trigger seam (e.g. an operator-detected fault): dump an
  // incident bundle attributed to `trigger` with a human diagnosis.
  void incident(const std::string& trigger, const std::string& detail);

  // Retained records, oldest first (merged across shards by t_us).
  std::vector<RequestRecord> recent() const;
  std::vector<IncidentInfo> incidents() const;

  std::int64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  std::int64_t overwritten() const { return overwritten_.load(std::memory_order_relaxed); }
  std::int64_t incidents_written() const { return incidents_n_.load(std::memory_order_relaxed); }
  std::int64_t incidents_suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }

  // Reset retained records, incident history and counters; keeps config.
  void clear();

  // The bundle document (also what incident() writes): incident header,
  // recent records, tracer spans correlated to their trace ids, metric
  // deltas since the previous incident (or recorder start).
  std::string incident_bundle_json(const IncidentInfo& info);

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<RequestRecord> ring;
    std::size_t next = 0;
    bool wrapped = false;
  };

  void maybe_trigger(const RequestRecord& r);
  std::string bundle_json_locked(const IncidentInfo& info);  // incident_mu_ held

  FlightRecorderConfig cfg_;
  std::vector<Shard> shards_;
  std::atomic<std::int64_t> recorded_{0};
  std::atomic<std::int64_t> overwritten_{0};
  std::atomic<std::int64_t> incidents_n_{0};
  std::atomic<std::int64_t> suppressed_{0};

  mutable std::mutex incident_mu_;  // serializes dumps; guards history + delta base
  std::vector<IncidentInfo> history_;
  MetricsSnapshot incident_base_;  // metrics at the previous incident
  std::int64_t incident_seq_ = 0;
};

// Process-global recorder and its master switch (default off, like
// metrics/tracing): a disabled record point is one predictable branch.
FlightRecorder& flight_recorder();
bool flight_recording_enabled();
void set_flight_recording_enabled(bool enabled);

}  // namespace mupod
