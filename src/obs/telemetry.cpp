#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <unordered_set>

#include "core/clock.hpp"
#include "io/json_writer.hpp"

namespace mupod {

namespace {

// Prometheus metric name: '.' separators become '_', everything else in
// the registry's naming scheme ([a-z0-9_.]) is already legal.
std::string prom_name(const std::string& name) {
  std::string out = "mupod_";
  out.reserve(out.size() + name.size());
  for (char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

void append_double(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void append_i64(std::string* out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out->append(buf);
}

bool append_line_to_file(const std::string& path, const std::string& line) {
  std::ofstream f(path, std::ios::app | std::ios::binary);
  if (!f.is_open()) return false;
  f << line << '\n';
  return f.good();
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  if (!f.is_open()) return false;
  f << text;
  return f.good();
}

void write_record_json(JsonWriter& j, const RequestRecord& r) {
  j.begin_object();
  j.kv("trace_id", static_cast<std::int64_t>(r.trace_id));
  j.kv("request_id", static_cast<std::int64_t>(r.request_id));
  j.kv("source", r.source);
  j.kv("status", r.status);
  j.kv("ok", r.ok);
  j.kv("deadline_hit", r.deadline_hit);
  j.kv("queue_us", r.queue_us);
  j.kv("exec_us", r.exec_us);
  j.kv("total_us", r.total_us);
  j.kv("batch_id", r.batch_id);
  j.kv("t_us", r.t_us);
  j.end_object();
}

// Shared delta body: counters/histograms as (cur - prev), gauges as
// current values. Zero deltas are omitted so steady-state records stay
// small; an instrument absent from prev contributes its full value.
void write_deltas_json(JsonWriter& j, const MetricsSnapshot& prev, const MetricsSnapshot& cur) {
  std::map<std::string, std::int64_t> prev_counters;
  for (const auto& c : prev.counters) prev_counters[c.name] = c.value;
  j.key("counters").begin_object();
  for (const auto& c : cur.counters) {
    const auto it = prev_counters.find(c.name);
    const std::int64_t d = c.value - (it == prev_counters.end() ? 0 : it->second);
    if (d != 0) j.kv(c.name, d);
  }
  j.end_object();

  j.key("gauges").begin_object();
  for (const auto& g : cur.gauges) j.kv(g.name, g.value);
  j.end_object();

  std::map<std::string, const MetricsSnapshot::HistogramValue*> prev_hist;
  for (const auto& h : prev.histograms) prev_hist[h.name] = &h;
  j.key("histograms").begin_object();
  for (const auto& h : cur.histograms) {
    const auto it = prev_hist.find(h.name);
    const MetricsSnapshot::HistogramValue* p = it == prev_hist.end() ? nullptr : it->second;
    const std::int64_t dcount = h.count - (p != nullptr ? p->count : 0);
    if (dcount == 0) continue;
    j.key(h.name).begin_object();
    j.kv("count", dcount);
    j.kv("sum", h.sum - (p != nullptr ? p->sum : 0.0));
    j.key("buckets").begin_array();
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      const std::int64_t pb =
          (p != nullptr && i < p->counts.size()) ? p->counts[i] : 0;
      j.value(h.counts[i] - pb);
    }
    j.end_array();
    j.end_object();
  }
  j.end_object();
}

}  // namespace

// --- TelemetryExporter -----------------------------------------------------

TelemetryExporter::TelemetryExporter(TelemetryConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.period_us <= 0) cfg_.period_us = 1;
}

TelemetryExporter::~TelemetryExporter() { stop(); }

std::string TelemetryExporter::delta_record_json(const MetricsSnapshot& prev,
                                                 const MetricsSnapshot& cur, std::int64_t seq,
                                                 std::int64_t t_us) {
  JsonWriter j;
  j.begin_object();
  j.kv("seq", seq);
  j.kv("t_us", t_us);
  write_deltas_json(j, prev, cur);
  j.end_object();
  return j.str();
}

std::string TelemetryExporter::prometheus_text(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& c : snap.counters) {
    const std::string n = prom_name(c.name);
    out += "# TYPE " + n + " counter\n" + n + " ";
    append_i64(&out, c.value);
    out += '\n';
  }
  for (const auto& g : snap.gauges) {
    const std::string n = prom_name(g.name);
    out += "# TYPE " + n + " gauge\n" + n + " ";
    append_i64(&out, g.value);
    out += '\n';
  }
  for (const auto& h : snap.histograms) {
    const std::string n = prom_name(h.name);
    out += "# TYPE " + n + " histogram\n";
    std::int64_t cum = 0;
    for (std::size_t i = 0; i < h.bounds.size() && i < h.counts.size(); ++i) {
      cum += h.counts[i];
      out += n + "_bucket{le=\"";
      append_double(&out, h.bounds[i]);
      out += "\"} ";
      append_i64(&out, cum);
      out += '\n';
    }
    out += n + "_bucket{le=\"+Inf\"} ";
    append_i64(&out, h.count);
    out += '\n';
    out += n + "_sum ";
    append_double(&out, h.sum);
    out += '\n';
    out += n + "_count ";
    append_i64(&out, h.count);
    out += '\n';
  }
  return out;
}

bool TelemetryExporter::due(std::int64_t now_us) const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_flush_us_ < 0 || now_us - last_flush_us_ >= cfg_.period_us;
}

void TelemetryExporter::flush(std::int64_t now_us) {
  const MetricsSnapshot cur = metrics().snapshot();
  std::string record;
  {
    std::lock_guard<std::mutex> lk(mu_);
    record = delta_record_json(prev_, cur, seq_, now_us);
    prev_ = cur;
    last_flush_us_ = now_us;
    ++seq_;
  }
  if (!cfg_.jsonl_path.empty()) {
    if (append_line_to_file(cfg_.jsonl_path, record)) {
      records_.fetch_add(1, std::memory_order_relaxed);
    } else {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    records_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!cfg_.prom_path.empty() && !write_text_file(cfg_.prom_path, prometheus_text(cur))) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

MetricsSnapshot TelemetryExporter::last_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return prev_;
}

void TelemetryExporter::start() {
  if (running_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lk(run_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void TelemetryExporter::run() {
  std::unique_lock<std::mutex> lk(run_mu_);
  while (!stop_requested_) {
    const std::int64_t now = mono_now_us();
    if (due(now)) {
      lk.unlock();
      flush(now);
      lk.lock();
      continue;
    }
    run_cv_.wait_for(lk, std::chrono::microseconds(cfg_.period_us),
                     [this] { return stop_requested_; });
  }
}

void TelemetryExporter::stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lk(run_mu_);
    stop_requested_ = true;
  }
  run_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final record: the series always ends at the registry's current truth.
  flush(mono_now_us());
}

// --- FlightRecorder --------------------------------------------------------

FlightRecorder::FlightRecorder(FlightRecorderConfig cfg) : shards_(kShards) {
  configure(std::move(cfg));
}

void FlightRecorder::configure(FlightRecorderConfig cfg) {
  cfg_ = std::move(cfg);
  if (cfg_.capacity_per_shard == 0) cfg_.capacity_per_shard = 1;
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    s.ring.clear();
    s.ring.reserve(cfg_.capacity_per_shard);
    s.next = 0;
    s.wrapped = false;
  }
}

void FlightRecorder::record(const RequestRecord& r) {
  Shard& s = shards_[static_cast<std::size_t>(obs_thread_slot() & (kShards - 1))];
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.ring.size() < cfg_.capacity_per_shard) {
      s.ring.push_back(r);
      s.next = s.ring.size() % cfg_.capacity_per_shard;
    } else {
      s.ring[s.next] = r;
      s.next = (s.next + 1) % cfg_.capacity_per_shard;
      s.wrapped = true;
      overwritten_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  maybe_trigger(r);
}

void FlightRecorder::maybe_trigger(const RequestRecord& r) {
  if (r.deadline_hit && cfg_.on_deadline_exceeded) {
    std::string detail = "request ";
    append_i64(&detail, static_cast<std::int64_t>(r.request_id));
    detail += " (";
    detail += r.source;
    detail += ") missed its deadline after ";
    append_i64(&detail, r.total_us);
    detail += " us";
    incident("deadline_exceeded", detail);
    return;
  }
  if (cfg_.slow_request_ms > 0.0 &&
      static_cast<double>(r.total_us) > cfg_.slow_request_ms * 1000.0) {
    std::string detail = "request ";
    append_i64(&detail, static_cast<std::int64_t>(r.request_id));
    detail += " (";
    detail += r.source;
    detail += ") took ";
    append_i64(&detail, r.total_us);
    detail += " us, threshold ";
    append_double(&detail, cfg_.slow_request_ms * 1000.0);
    detail += " us";
    incident("slow_request", detail);
  }
}

void FlightRecorder::incident(const std::string& trigger, const std::string& detail) {
  std::lock_guard<std::mutex> lk(incident_mu_);
  if (incident_seq_ >= cfg_.max_incidents) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  IncidentInfo info;
  info.seq = incident_seq_++;
  info.trigger = trigger;
  info.detail = detail;
  info.t_us = mono_now_us();
  const std::string bundle = bundle_json_locked(info);
  incident_base_ = metrics().snapshot();  // next incident's delta base
  if (!cfg_.incident_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg_.incident_dir, ec);
    std::string path = cfg_.incident_dir + "/incident_";
    append_i64(&path, info.seq);
    path += "_" + trigger + ".json";
    if (write_json_file(path, bundle)) info.path = path;
  }
  history_.push_back(info);
  incidents_n_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<RequestRecord> FlightRecorder::recent() const {
  std::vector<RequestRecord> out;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.wrapped) {
      for (std::size_t i = 0; i < s.ring.size(); ++i)
        out.push_back(s.ring[(s.next + i) % s.ring.size()]);
    } else {
      out.insert(out.end(), s.ring.begin(), s.ring.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RequestRecord& a, const RequestRecord& b) { return a.t_us < b.t_us; });
  return out;
}

std::vector<IncidentInfo> FlightRecorder::incidents() const {
  std::lock_guard<std::mutex> lk(incident_mu_);
  return history_;
}

void FlightRecorder::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    s.ring.clear();
    s.next = 0;
    s.wrapped = false;
  }
  std::lock_guard<std::mutex> lk(incident_mu_);
  history_.clear();
  incident_base_ = MetricsSnapshot{};
  incident_seq_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
  overwritten_.store(0, std::memory_order_relaxed);
  incidents_n_.store(0, std::memory_order_relaxed);
  suppressed_.store(0, std::memory_order_relaxed);
}

std::string FlightRecorder::incident_bundle_json(const IncidentInfo& info) {
  std::lock_guard<std::mutex> lk(incident_mu_);
  return bundle_json_locked(info);
}

std::string FlightRecorder::bundle_json_locked(const IncidentInfo& info) {
  std::vector<RequestRecord> records = recent();
  if (records.size() > cfg_.max_bundle_records) {
    // Keep the newest (the ones that led to the incident).
    records.erase(records.begin(),
                  records.end() - static_cast<std::ptrdiff_t>(cfg_.max_bundle_records));
  }
  std::unordered_set<std::uint64_t> traces;
  for (const RequestRecord& r : records)
    if (r.trace_id != 0) traces.insert(r.trace_id);

  JsonWriter j;
  j.begin_object();
  j.key("incident").begin_object();
  j.kv("seq", info.seq);
  j.kv("trigger", info.trigger);
  j.kv("detail", info.detail);
  j.kv("t_us", info.t_us);
  j.end_object();

  j.key("records").begin_array();
  for (const RequestRecord& r : records) write_record_json(j, r);
  j.end_array();

  // Spans correlated to the retained requests: the causal context an
  // aggregate metric cannot give. Bounded so a busy tracer cannot bloat
  // the bundle.
  j.key("spans").begin_array();
  std::size_t n_spans = 0;
  if (!traces.empty()) {
    for (const TraceEvent& e : tracer().events()) {
      if (!e.ctx.valid() || traces.count(e.ctx.trace_id) == 0) continue;
      if (n_spans++ >= cfg_.max_bundle_spans) break;
      j.begin_object();
      j.kv("name", e.name);
      j.kv("cat", e.category);
      {
        const char ph[2] = {e.ph, '\0'};
        j.kv("ph", ph);
      }
      j.kv("ts_us", static_cast<std::int64_t>(e.ts_us));
      if (e.ph == 'X') j.kv("dur_us", static_cast<std::int64_t>(e.dur_us));
      j.kv("tid", e.tid);
      j.kv("trace_id", static_cast<std::int64_t>(e.ctx.trace_id));
      j.kv("span_id", static_cast<std::int64_t>(e.ctx.span_id));
      j.kv("parent_id", static_cast<std::int64_t>(e.ctx.parent_id));
      for (int a = 0; a < e.n_args; ++a)
        j.kv(e.args[static_cast<std::size_t>(a)].first, e.args[static_cast<std::size_t>(a)].second);
      j.end_object();
    }
  }
  j.end_array();

  j.key("metric_deltas").begin_object();
  write_deltas_json(j, incident_base_, metrics().snapshot());
  j.end_object();
  j.end_object();
  return j.str();
}

// --- globals ---------------------------------------------------------------

namespace {
std::atomic<bool> g_flight_enabled{false};
}  // namespace

FlightRecorder& flight_recorder() {
  static FlightRecorder* r = new FlightRecorder();  // leaked: outlives all users
  return *r;
}

bool flight_recording_enabled() { return g_flight_enabled.load(std::memory_order_relaxed); }

void set_flight_recording_enabled(bool enabled) {
  g_flight_enabled.store(enabled, std::memory_order_relaxed);
}

}  // namespace mupod
