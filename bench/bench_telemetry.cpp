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
// alternating off/on rounds, and FAILS (exit 1) when the median of the
// per-pair cost ratios on/off exceeds 1.03.
//
// A round is timed in process CPU time (every thread: clients, batcher,
// pool workers), not wall time: the batcher's flush window is idle wall
// time that would swamp a 3% difference. The fleet keeps 2 x max_batch
// requests outstanding, so batches fill and dispatch without waiting
// out the window. On a shared host a round's CPU cost still jumps by
// tens of percent between machine states, so a min over each mode's
// rounds compares rounds from different states; the ratio of two
// adjacent rounds mostly shares one, and the median over many short
// pairs resolves a few percent. The quartiles of the pair ratios are
// reported as the run's spread.
//
// Usage: bench_telemetry [--net NAME] [--requests N] [--clients N]
//                        [--reps N] [--json FILE]
// scripts/run_benchmarks.sh parks the JSON at bench_logs/BENCH_telemetry.json.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
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

constexpr int kMaxBatch = 8;

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// One closed-loop round: `clients` threads, one outstanding request each,
// `requests` total, fresh server per round so queue state never leaks
// across modes. Returns the process CPU seconds of the serving loop.
double round_s(const bench::Experiment& e, const std::vector<Tensor>& pool, int clients,
               int requests, std::atomic<std::int64_t>* failures) {
  InferenceServerConfig cfg;
  cfg.batch.max_batch = kMaxBatch;
  cfg.batch.max_wait_us = 2500;
  cfg.max_queue = static_cast<std::size_t>(clients) * 2 + 8;
  InferenceServer server(cfg);
  server.register_model("m", e.model.net, e.model.analyzed);
  server.start();

  std::atomic<int> next{0};
  const double cpu0 = process_cpu_s();
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
  const double s = process_cpu_s() - cpu0;
  server.stop();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string net_name = "tiny";
  std::string json_out;
  int requests = 256;
  int clients = 2 * kMaxBatch;
  int reps = 41;
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

  std::vector<double> ratio;
  for (int r = 0; r < reps; ++r)
    ratio.push_back(off_s[static_cast<std::size_t>(r)] > 0.0
                        ? on_s[static_cast<std::size_t>(r)] / off_s[static_cast<std::size_t>(r)]
                        : 1.0);
  std::sort(ratio.begin(), ratio.end());
  const auto pct = [&](double q) {
    return (ratio[static_cast<std::size_t>(q * static_cast<double>(ratio.size() - 1) + 0.5)] -
            1.0) * 100.0;
  };
  const double overhead_pct = pct(0.5);
  const double q1_pct = pct(0.25), q3_pct = pct(0.75);
  std::sort(off_s.begin(), off_s.end());
  std::sort(on_s.begin(), on_s.end());
  const double off_med = off_s[off_s.size() / 2];
  const double on_med = on_s[on_s.size() / 2];
  const bool served_ok = failures.load() == 0;
  const bool pass = overhead_pct < kMaxOverheadPct && served_ok;

  std::printf("network %s, %d client(s) x %d request(s), %d off/on round pair(s):\n",
              net_name.c_str(), clients, requests, reps);
  std::printf("  observability off     %8.1f ms CPU per round (median)\n", off_med * 1e3);
  std::printf("  observability on      %8.1f ms CPU per round (median, metrics + tracing)\n",
              on_med * 1e3);
  std::printf("  overhead              %+7.2f %%  (median pair ratio; quartiles %+.2f / %+.2f %%)"
              "  bound %.1f %%  -> %s\n",
              overhead_pct, q1_pct, q3_pct, kMaxOverheadPct, pass ? "PASS" : "FAIL");
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
    j.kv("serve_off_cpu_ms_median", off_med * 1e3);
    j.kv("serve_on_cpu_ms_median", on_med * 1e3);
    j.kv("overhead_pct", overhead_pct);
    j.kv("overhead_q1_pct", q1_pct);
    j.kv("overhead_q3_pct", q3_pct);
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
