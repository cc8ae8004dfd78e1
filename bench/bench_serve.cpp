// bench_serve: load generator for the online inference server (src/infer).
//
// Closed-loop phases (client threads, each keeping one request
// outstanding) measure serving throughput and latency on both backends.
// The headline contract is the dynamic-batching story itself: against the
// SAME cap-8 batching server, a lone single-request-at-a-time caller pays
// the batch window on every request (the batcher waits max_wait_us for
// companions that never arrive, then timeout-flushes a 1-row batch), while
// a concurrent fleet fills batches before the window expires (size
// flushes) and amortizes the window across max_batch rows:
//
//     batched fleet throughput >= 2x single-request-at-a-time throughput
//
// at batch cap 8 (exit code enforces it, float path). A cap-1 fleet phase
// is also recorded as the no-batching reference — on a host whose kernels
// have no batch-level efficiency (one core, a patch-view GEMM per image)
// it bounds what batching alone can add to aggregate throughput.
//
// Open-loop phases submit at a fixed offered rate with a deadline attached,
// under and over the measured batched capacity: the overloaded run must
// degrade by diagnosed statuses (queue-full sheds, queued expiries), never
// by unbounded queueing.
//
// A final determinism phase re-checks the bit contract end to end: logits
// rows served out of coalesced batches are memcmp-identical to
// one-at-a-time Network::forward calls.
//
// Latency and batch-size distributions come from the infer.* histograms
// (obs::HistogramMetric::summary), reset per phase — the bench consumes
// the same instruments operators would scrape.
//
// Usage: bench_serve [--net NAME] [--requests N] [--clients N] [--json FILE]
// scripts/run_benchmarks.sh parks the JSON at bench_logs/BENCH_serve.json.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/clock.hpp"
#include "infer/server.hpp"
#include "io/json_writer.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace mupod;

struct PhaseResult {
  std::string label;
  InferBackend backend = InferBackend::kFloat;
  int max_batch = 1;
  int clients = 1;
  int requests = 0;
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  ServerStats stats;
  HistogramSummary latency_ms;
  HistogramSummary batch_size;
  std::vector<double> batch_bounds;
  std::vector<std::int64_t> batch_counts;
};

std::optional<MetricsSnapshot::HistogramValue> find_histogram(const MetricsSnapshot& snap,
                                                              const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return h;
  return std::nullopt;
}

void fill_from_metrics(PhaseResult& r) {
  const MetricsSnapshot snap = metrics().snapshot();
  if (const auto lat = find_histogram(snap, "infer.latency.ms")) r.latency_ms = lat->summary();
  if (const auto bs = find_histogram(snap, "infer.batch.size")) {
    r.batch_size = bs->summary();
    r.batch_bounds = bs->bounds;
    r.batch_counts = bs->counts;
  }
}

// One closed-loop phase: `clients` threads, one outstanding request each,
// `requests` total. A fresh server (and fresh metrics window) per phase so
// stats and histograms describe exactly this load.
// The serving batch window. Both sides of the headline ratio run under
// this same configuration — what varies is the client pattern, not the
// server.
constexpr std::int64_t kMaxWaitUs = 2500;

PhaseResult closed_loop(const bench::Experiment& e, const std::vector<Tensor>& pool,
                        InferBackend backend, int max_batch, int clients, int requests,
                        const std::vector<FixedPointFormat>* formats) {
  metrics().reset();
  InferenceServerConfig cfg;
  cfg.batch.max_batch = max_batch;
  cfg.batch.max_wait_us = kMaxWaitUs;
  cfg.max_queue = static_cast<std::size_t>(clients) * 2 + 8;
  InferenceServer server(cfg);
  server.register_model("m", e.model.net, e.model.analyzed);
  if (formats != nullptr) server.install_plan("m", *formats);
  server.start();

  std::atomic<int> next{0};
  std::atomic<int> failures{0};
  bench::Stopwatch sw;
  std::vector<std::thread> fleet;
  fleet.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    fleet.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= requests) return;
        InferOptions opts;
        opts.backend = backend;
        const InferenceResult res =
            server.submit(Tensor(pool[static_cast<std::size_t>(i) % pool.size()]), opts).get();
        if (res.status != InferStatus::kOk) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : fleet) t.join();
  const double wall = sw.seconds();
  server.stop();

  PhaseResult r;
  r.backend = backend;
  r.max_batch = max_batch;
  r.clients = clients;
  r.requests = requests;
  r.wall_s = wall;
  r.throughput_rps = wall > 0 ? static_cast<double>(requests) / wall : 0.0;
  r.stats = server.stats();
  fill_from_metrics(r);
  if (failures.load() > 0) r.requests = -1;  // signal to the caller
  return r;
}

struct OpenLoopResult {
  double offered_rps = 0.0;
  int offered = 0;
  std::int64_t ok = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t expired_in_queue = 0;
  std::int64_t deadline_exceeded = 0;
  double p99_ms = 0.0;
};

// One open-loop phase: a single submitter paces `offered` requests at
// `rate_rps` with a deadline attached; a bounded queue converts overload
// into diagnosed sheds/expiries instead of latency collapse.
OpenLoopResult open_loop(const bench::Experiment& e, const std::vector<Tensor>& pool,
                         double rate_rps, int offered) {
  metrics().reset();
  InferenceServerConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.batch.max_wait_us = 1000;
  cfg.max_queue = 32;
  InferenceServer server(cfg);
  server.register_model("m", e.model.net, e.model.analyzed);
  server.start();

  std::vector<std::future<InferenceResult>> futs;
  futs.reserve(static_cast<std::size_t>(offered));
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < offered; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(static_cast<std::int64_t>(
                    1e6 * static_cast<double>(i) / rate_rps)));
    InferOptions opts;
    opts.deadline_us = 50000;  // 50 ms: overload turns into expiries, visibly
    futs.push_back(
        server.submit(Tensor(pool[static_cast<std::size_t>(i) % pool.size()]), opts));
  }
  for (auto& f : futs) f.get();
  server.stop();

  OpenLoopResult r;
  r.offered_rps = rate_rps;
  r.offered = offered;
  const ServerStats s = server.stats();
  r.ok = s.completed;
  r.rejected_queue_full = s.rejected_queue_full;
  r.expired_in_queue = s.expired_in_queue;
  r.deadline_exceeded = s.deadline_exceeded;
  const MetricsSnapshot snap = metrics().snapshot();
  if (const auto lat = find_histogram(snap, "infer.latency.ms"))
    r.p99_ms = lat->percentile(0.99);
  return r;
}

void print_phase(const PhaseResult& r) {
  std::printf("  %-22s %8.1f req/s   p50 %7.2f ms   p99 %7.2f ms   mean batch %.2f\n",
              r.label.c_str(), r.throughput_rps, r.latency_ms.p50, r.latency_ms.p99,
              r.batch_size.mean);
}

void json_phase(JsonWriter& j, const PhaseResult& r) {
  j.begin_object();
  j.kv("label", r.label);
  j.kv("backend", infer_backend_name(r.backend));
  j.kv("max_batch", r.max_batch);
  j.kv("clients", r.clients);
  j.kv("requests", r.requests);
  j.kv("wall_s", r.wall_s);
  j.kv("throughput_rps", r.throughput_rps);
  j.key("latency_ms").begin_object();
  j.kv("count", r.latency_ms.count).kv("mean", r.latency_ms.mean);
  j.kv("p50", r.latency_ms.p50).kv("p90", r.latency_ms.p90).kv("p99", r.latency_ms.p99);
  j.end_object();
  j.key("batch_size").begin_object();
  j.kv("mean", r.batch_size.mean).kv("p50", r.batch_size.p50).kv("p99", r.batch_size.p99);
  j.key("bounds").begin_array();
  for (double b : r.batch_bounds) j.value(b);
  j.end_array();
  j.key("counts").begin_array();
  for (std::int64_t c : r.batch_counts) j.value(c);
  j.end_array();
  j.end_object();
  j.key("flushes").begin_object();
  j.kv("size", r.stats.size_flushes).kv("timeout", r.stats.timeout_flushes);
  j.kv("drain", r.stats.drain_flushes);
  j.end_object();
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string net_name = "nin";
  std::string json_out;
  int requests = 240;
  int clients = 12;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--net" && i + 1 < argc) net_name = argv[++i];
    else if (arg == "--requests" && i + 1 < argc) requests = std::max(16, std::atoi(argv[++i]));
    else if (arg == "--clients" && i + 1 < argc) clients = std::max(1, std::atoi(argv[++i]));
    else if (arg == "--json" && i + 1 < argc) json_out = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: bench_serve [--net NAME] [--requests N] [--clients N] [--json FILE]\n");
      return 2;
    }
  }

  bench::print_header("online inference serving: dynamic batching, float vs integer",
                      "serving-layer extension; batching contract (docs/method.md sec. 14)");

  bench::ExperimentConfig ecfg;
  bench::Experiment e = bench::make_experiment(net_name, ecfg);
  std::printf("network %s  (%d analyzed layers)  clients %d  requests/phase %d\n\n",
              net_name.c_str(), static_cast<int>(e.model.analyzed.size()), clients, requests);

  // Pre-rendered image pool: submit cost is a tensor copy, so the phases
  // measure serving, not synthetic-image rendering.
  std::vector<Tensor> pool;
  for (int i = 0; i < 32; ++i) {
    Tensor t(Shape({1, e.model.channels, e.model.height, e.model.width}));
    e.dataset->render_image(i, t, 0);
    pool.push_back(std::move(t));
  }
  // Uniform Q8.8 plan for the integer phases: the bench measures serving
  // throughput; plan *quality* is the pipeline benches' business.
  const std::vector<FixedPointFormat> formats(e.model.analyzed.size(),
                                              FixedPointFormat{8, 8});

  set_metrics_enabled(true);

  std::printf("closed loop (batch window %lld us)\n", static_cast<long long>(kMaxWaitUs));
  std::vector<PhaseResult> phases;
  const struct {
    const char* label;
    InferBackend backend;
    int max_batch;
    int clients;
  } kPhases[] = {
      // The headline pair: same cap-8 server, sequential caller vs fleet.
      {"float  seq cap=8", InferBackend::kFloat, 8, 1},
      {"float  fleet cap=8", InferBackend::kFloat, 8, -1},
      // No-batching reference: the fleet against a cap-1 server.
      {"float  fleet cap=1", InferBackend::kFloat, 1, -1},
      {"integer seq cap=8", InferBackend::kInteger, 8, 1},
      {"integer fleet cap=8", InferBackend::kInteger, 8, -1},
  };
  bool all_ok = true;
  for (const auto& p : kPhases) {
    const int n_clients = p.clients < 0 ? clients : p.clients;
    PhaseResult r = closed_loop(e, pool, p.backend, p.max_batch, n_clients, requests,
                                p.backend == InferBackend::kInteger ? &formats : nullptr);
    r.label = p.label;
    if (r.requests < 0) {
      std::fprintf(stderr, "error: phase '%s' had failed requests\n", p.label);
      all_ok = false;
      r.requests = requests;
    }
    print_phase(r);
    phases.push_back(std::move(r));
  }

  const double float_speedup =
      phases[0].throughput_rps > 0 ? phases[1].throughput_rps / phases[0].throughput_rps : 0.0;
  const double int_speedup =
      phases[3].throughput_rps > 0 ? phases[4].throughput_rps / phases[3].throughput_rps : 0.0;
  const bool speedup_ok = float_speedup >= 2.0;
  std::printf("\n  batched speedup        float %.2fx  integer %.2fx   (>= 2.00x float: %s)\n",
              float_speedup, int_speedup, speedup_ok ? "PASS" : "FAIL");

  // Open loop: under and over the measured batched capacity.
  const double capacity = phases[1].throughput_rps;
  std::printf("\nopen loop (paced submitter, 50 ms deadline, queue bound 32)\n");
  std::vector<OpenLoopResult> open;
  for (const double frac : {0.5, 1.5}) {
    const double rate = std::max(capacity * frac, 10.0);
    OpenLoopResult r = open_loop(e, pool, rate, requests);
    std::printf(
        "  offered %8.1f req/s   ok %4lld   shed %4lld   expired %4lld   late %3lld   p99 "
        "%7.2f ms\n",
        r.offered_rps, static_cast<long long>(r.ok),
        static_cast<long long>(r.rejected_queue_full),
        static_cast<long long>(r.expired_in_queue),
        static_cast<long long>(r.deadline_exceeded), r.p99_ms);
    open.push_back(r);
  }

  // Determinism gate: batched rows vs one-at-a-time forwards, bitwise.
  bool determinism_ok = true;
  {
    InferenceServerConfig cfg;
    cfg.batch.max_batch = 8;
    cfg.batch.max_wait_us = 1000000;
    InferenceServer server(cfg);
    server.register_model("m", e.model.net, e.model.analyzed);
    std::vector<std::future<InferenceResult>> futs;
    for (int i = 0; i < 8; ++i) futs.push_back(server.submit(Tensor(pool[i])));
    server.start();  // queue == cap: one coalesced batch
    for (int i = 0; i < 8; ++i) {
      const InferenceResult r = futs[static_cast<std::size_t>(i)].get();
      const Tensor solo = e.model.net.forward(pool[static_cast<std::size_t>(i)]);
      if (r.status != InferStatus::kOk || r.batch_rows != 8 ||
          static_cast<std::int64_t>(r.logits.size()) != solo.numel() ||
          std::memcmp(r.logits.data(), solo.data(), r.logits.size() * sizeof(float)) != 0) {
        determinism_ok = false;
        break;
      }
    }
    server.stop();
  }
  std::printf("\n  batched == sequential  (bitwise, 8 rows) -> %s\n",
              determinism_ok ? "PASS" : "FAIL");

  const bool pass = all_ok && speedup_ok && determinism_ok;

  if (!json_out.empty()) {
    JsonWriter j;
    j.begin_object();
    j.kv("bench", "serve");
    j.kv("network", net_name);
    j.kv("clients", clients);
    j.kv("requests_per_phase", requests);
    j.key("closed_loop").begin_array();
    for (const PhaseResult& r : phases) json_phase(j, r);
    j.end_array();
    j.kv("batched_speedup_float", float_speedup);
    j.kv("batched_speedup_integer", int_speedup);
    j.key("open_loop").begin_array();
    for (const OpenLoopResult& r : open) {
      j.begin_object();
      j.kv("offered_rps", r.offered_rps);
      j.kv("offered", r.offered);
      j.kv("ok", r.ok);
      j.kv("rejected_queue_full", r.rejected_queue_full);
      j.kv("expired_in_queue", r.expired_in_queue);
      j.kv("deadline_exceeded", r.deadline_exceeded);
      j.kv("p99_ms", r.p99_ms);
      j.end_object();
    }
    j.end_array();
    j.kv("determinism_ok", determinism_ok);
    j.kv("pass", pass);
    j.end_object();
    errno = 0;
    if (!write_json_file(json_out, j.str())) {
      std::fprintf(stderr, "error: cannot write '%s': %s\n", json_out.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  return pass ? 0 : 1;
}
