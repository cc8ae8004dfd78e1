// bench_telemetry: bounds the cost of FULL observability on the serving
// path — metrics + tracing both enabled, against everything off — through
// a loaded InferenceServer.
//
// Request tracing (src/obs/trace.hpp) and the infer.* metrics only earn
// their place if operators can leave them on in production: every submit
// mints a trace context and opens an async lane, every batch records
// dispatch events, every resolve closes the lane with the request's
// terminal status and records the latency histograms. This bench
// closed-loops a client fleet through the batcher in both modes,
// alternating per round (min-of-N, same discipline as
// bench_observability), and FAILS (exit 1) when the fully-enabled mode is
// more than 3% slower than the fully-disabled one.
//
// Usage: bench_telemetry [--net NAME] [--requests N] [--clients N]
//                        [--reps N] [--json FILE]
// scripts/run_benchmarks.sh parks the JSON at bench_logs/BENCH_telemetry.json.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "infer/server.hpp"
#include "io/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace mupod;

constexpr double kMaxOverheadPct = 3.0;

void set_all(bool on) {
  set_metrics_enabled(on);
  set_tracing_enabled(on);
}

// One closed-loop round: `clients` threads, one outstanding request each,
// `requests` total, fresh server per round so queue state never leaks
// across modes. Returns wall seconds.
double round_s(const bench::Experiment& e, const std::vector<Tensor>& pool, int clients,
               int requests, std::atomic<std::int64_t>* failures) {
  InferenceServerConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.batch.max_wait_us = 2500;
  cfg.max_queue = static_cast<std::size_t>(clients) * 2 + 8;
  InferenceServer server(cfg);
  server.register_model("m", e.model.net, e.model.analyzed);
  server.start();

  std::atomic<int> next{0};
  bench::Stopwatch sw;
  std::vector<std::thread> fleet;
  fleet.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    fleet.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= requests) return;
        const InferenceResult res =
            server.submit(Tensor(pool[static_cast<std::size_t>(i) % pool.size()])).get();
        if (res.status != InferStatus::kOk) failures->fetch_add(1);
      }
    });
  }
  for (std::thread& t : fleet) t.join();
  const double s = sw.seconds();
  server.stop();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string net_name = "tiny";
  std::string json_out;
  int requests = 256;
  int clients = 4;
  int reps = 7;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--net" && i + 1 < argc) net_name = argv[++i];
    else if (arg == "--requests" && i + 1 < argc) requests = std::atoi(argv[++i]);
    else if (arg == "--clients" && i + 1 < argc) clients = std::atoi(argv[++i]);
    else if (arg == "--reps" && i + 1 < argc) reps = std::atoi(argv[++i]);
    else if (arg == "--json" && i + 1 < argc) json_out = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: bench_telemetry [--net NAME] [--requests N] [--clients N] [--reps N] "
                   "[--json FILE]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  if (clients < 1) clients = 1;
  if (requests < clients) requests = clients;

  bench::print_header("telemetry overhead: serving path, full observability off vs on",
                      "obs metrics + tracing; bound: < 3% through the batcher");

  bench::ExperimentConfig ecfg;
  bench::Experiment e = bench::make_experiment(net_name, ecfg);

  std::vector<Tensor> pool;
  for (int i = 0; i < 32; ++i) {
    Tensor t(Shape({1, e.model.channels, e.model.height, e.model.width}));
    e.dataset->render_image(i, t, 0);
    pool.push_back(std::move(t));
  }

  std::atomic<std::int64_t> failures{0};

  // One untimed warm-up round per mode: pages in caches, registers the
  // lazy instruments, and sizes the tracer ring so the timed "on" rounds
  // measure steady state.
  set_all(false);
  (void)round_s(e, pool, clients, requests, &failures);
  set_all(true);
  (void)round_s(e, pool, clients, requests, &failures);

  std::vector<double> off_s, on_s;
  for (int r = 0; r < reps; ++r) {
    set_all(false);
    off_s.push_back(round_s(e, pool, clients, requests, &failures));
    set_all(true);
    on_s.push_back(round_s(e, pool, clients, requests, &failures));
  }
  set_all(false);

  const std::size_t trace_events = tracer().size();

  const double off_min = *std::min_element(off_s.begin(), off_s.end());
  const double on_min = *std::min_element(on_s.begin(), on_s.end());
  const double overhead_pct = off_min > 0.0 ? (on_min / off_min - 1.0) * 100.0 : 0.0;
  const bool served_ok = failures.load() == 0;
  const bool pass = overhead_pct < kMaxOverheadPct && served_ok;

  std::printf("network %s, %d client(s) x %d request(s), %d rep(s) per mode (min-of-N):\n",
              net_name.c_str(), clients, requests, reps);
  std::printf("  observability off     %8.1f ms\n", off_min * 1e3);
  std::printf("  observability on      %8.1f ms  (metrics + tracing)\n", on_min * 1e3);
  std::printf("  overhead              %+7.2f %%  (bound %.1f %%)  -> %s\n", overhead_pct,
              kMaxOverheadPct, pass ? "PASS" : "FAIL");
  std::printf("  trace events retained %8zu\n", trace_events);
  if (!served_ok)
    std::printf("  WARNING: %lld request(s) did not resolve ok\n",
                static_cast<long long>(failures.load()));

  if (!json_out.empty()) {
    JsonWriter j;
    j.begin_object();
    j.kv("bench", "telemetry");
    j.kv("network", net_name);
    j.kv("clients", clients);
    j.kv("requests_per_round", requests);
    j.kv("reps", reps);
    j.kv("serve_off_ms_min", off_min * 1e3);
    j.kv("serve_on_ms_min", on_min * 1e3);
    j.kv("overhead_pct", overhead_pct);
    j.kv("bound_pct", kMaxOverheadPct);
    j.kv("trace_events_retained", static_cast<std::int64_t>(trace_events));
    j.kv("failures", failures.load());
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
