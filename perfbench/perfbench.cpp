// perfbench: the plan-and-serve benchmark binary.
//
// One process runs one workload end to end through the library's public
// entry points only: build_model, PlanService (register_network /
// ensure_profile / ensure_sigma / plan / lower_plan / validate_plan),
// GraphCompiler / CompiledNetwork::forward, Network::forward and
// InferenceServer (register_model / install_plan / submit). It prints a
// provenance line, a human-readable table on stderr, and as the last line
// of stdout one JSON object {"correct", "attempted", "failed", "metrics"}.
// Workload rationale and the layer -> metric -> workload map are in
// README.md beside this file.
//
// Usage:
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--inject plan|logit] [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics with metrics and tracing off.
// --trace 1 reports the per-layer metrics: obs metrics and tracing on,
// the benchmark's own spans around every public call, serving phases
// sized to fit the trace ring, and the Chrome trace written at exit to
// the file --trace-out names (required with --trace 1).
// --inject corrupts one requery answer (plan) or one served logit bit
// (logit) before the checks run; the run must then fail (exit 1).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "compile/graph_compiler.hpp"
#include "infer/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/plan_service.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/parallel.hpp"
#include "zoo/zoo.hpp"

namespace {

using namespace mupod;
using perfbench::CheckLog;

// Category of the benchmark's own spans around public calls.
constexpr const char* kBenchCategory = "perfbench";
using Clock = std::chrono::steady_clock;

// Pool workers. With the batcher thread and the one generator thread this
// fits a 4-core host without oversubscription.
constexpr int kWorkers = 2;
constexpr int kMaxBatch = 8;
// Closed-loop window: two full batches outstanding, so one is always
// queued while the other runs.
constexpr int kWindow = 2 * kMaxBatch;
// The throughput server waits this long for a batch to fill; the latency
// server never waits (a window there would make latency timer-bound).
constexpr std::int64_t kThroughputWaitUs = 2000;
constexpr int kSetupReps = 5;
constexpr int kImagePool = 256;
constexpr int kSampleRows = 48;  // served rows re-run alone, per slice
// Trace-ring budget of the traced serving phases: the server records six
// request events per request plus one span per batch, and the ring holds
// 2^14 events.
constexpr int kTracedOpenRequests = 900;
constexpr int kTracedClosedRequests = 480;
constexpr int kForwardReps = 20;
constexpr int kServeRounds = 8;    // alternating open/closed slices per run
constexpr auto kSpinUs = std::chrono::microseconds(200);
constexpr int kRateWindow = 4 * kMaxBatch;  // completions per throughput window

struct Workload {
  const char* name;
  const char* net;
  std::vector<double> targets;  // accuracy-drop targets of the query grid
  bool mac_objective;           // grid also asks the MAC-energy objective
  bool reduced_profiler;        // short profile so that serving dominates
  int weight_bits;              // PlanServiceConfig::weight_bits of every plan
  int plan_reps;                // cold plans of the grid (median reported)
  int requery_rounds;           // warm re-answers of the whole grid
  std::vector<int> served;      // grid cells installed, in hot-swap order
  double rate_rps;              // open-loop offered rate (a fixed constant)
  bool mixed;                   // requests alternate float / integer
  int swap_every;               // open-loop requests between hot-swaps; 0 = none
  double open_share;            // share of --seconds in the open loop
  double closed_share;          // share of --seconds in the closed loop
};

// Each rate is a quarter to a third of the net's batch-1 service rate on
// the reference host (README.md): a shared host that runs 60 % slower for
// a while then still leaves the server short of saturation, so the open
// loop measures the model rather than a queue.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {.name = "nin-plan", .net = "nin", .targets = {0.01, 0.02, 0.05, 0.10},
       .mac_objective = true, .reduced_profiler = false, .weight_bits = 8, .plan_reps = 2, .requery_rounds = 2,
       .served = {0}, .rate_rps = 200.0, .mixed = false, .swap_every = 0, .open_share = 0.4,
       .closed_share = 0.4},
      {.name = "mobilenet-serve", .net = "mobilenet", .targets = {0.01},
       .mac_objective = false, .reduced_profiler = true, .weight_bits = 16, .plan_reps = 3, .requery_rounds = 8,
       .served = {0}, .rate_rps = 400.0, .mixed = false, .swap_every = 0, .open_share = 0.6,
       .closed_share = 0.4},
      {.name = "nin-mixed-swap", .net = "nin", .targets = {0.01, 0.05},
       .mac_objective = false, .reduced_profiler = true, .weight_bits = 8, .plan_reps = 3, .requery_rounds = 8,
       .served = {0, 1}, .rate_rps = 200.0, .mixed = true, .swap_every = 300, .open_share = 0.6,
       .closed_share = 0.4},
      {.name = "alexnet-mixed-swap", .net = "alexnet", .targets = {0.01, 0.05},
       .mac_objective = false, .reduced_profiler = false, .weight_bits = 8, .plan_reps = 2, .requery_rounds = 4,
       .served = {0, 1}, .rate_rps = 150.0, .mixed = true, .swap_every = 300, .open_share = 0.6,
       .closed_share = 0.4},
  };
  return w;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string inject;
  std::string trace_out;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t micros(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

ZooOptions zoo_options() {
  ZooOptions zo;
  zo.num_classes = 10;
  return zo;
}

PlanServiceConfig service_config(const Workload& w) {
  PlanServiceConfig c;
  c.weight_bits = w.weight_bits;
  // The paper's default profiler; the harness sized as the repository's
  // experiment binaries size it (bench/bench_common.hpp).
  c.pipeline.harness.profile_images = 32;
  c.pipeline.harness.eval_images = 256;
  if (w.reduced_profiler) {
    c.pipeline.harness.profile_images = 16;
    c.pipeline.harness.eval_images = 128;
    c.pipeline.profiler.points = 6;
  }
  return c;
}

// Everything set-up builds; the service and servers borrow the model and
// dataset, so a Deployment is never moved once built.
struct Deployment {
  ZooModel model;
  std::unique_ptr<SyntheticImageDataset> dataset;
  std::unique_ptr<PlanService> service;
  PlanKey key;
  std::unique_ptr<InferenceServer> latency_server;     // open loop, no batch window
  std::unique_ptr<InferenceServer> throughput_server;  // closed loop, batches fill
};

std::unique_ptr<Deployment> set_up(const Workload& w) {
  auto d = std::make_unique<Deployment>();
  {
    ScopedSpan span("zoo.build", kBenchCategory);
    d->model = build_model(w.net, zoo_options());
  }
  DatasetConfig dc;
  dc.num_classes = d->model.num_classes;
  dc.channels = d->model.channels;
  dc.height = d->model.height;
  dc.width = d->model.width;
  d->dataset = std::make_unique<SyntheticImageDataset>(dc);
  {
    ScopedSpan span("serve.register", kBenchCategory);
    d->service = std::make_unique<PlanService>(service_config(w));
    d->key = d->service->register_network(d->model.net, d->model.analyzed, *d->dataset);
  }
  ScopedSpan span("infer.register", kBenchCategory);
  InferenceServerConfig lat;
  lat.batch.max_batch = kMaxBatch;
  lat.batch.max_wait_us = 0;
  lat.max_queue = 1 << 16;
  d->latency_server = std::make_unique<InferenceServer>(lat);
  d->latency_server->register_model(w.net, d->model.net, d->model.analyzed);
  InferenceServerConfig thr;
  thr.batch.max_batch = kMaxBatch;
  thr.batch.max_wait_us = kThroughputWaitUs;
  thr.max_queue = 4 * kWindow;
  d->throughput_server = std::make_unique<InferenceServer>(thr);
  d->throughput_server->register_model(w.net, d->model.net, d->model.analyzed);
  return d;
}

struct Cell {
  PlanQuery query;
  std::string label;
};

std::vector<Cell> query_grid(const Workload& w, const ZooModel& m) {
  std::vector<ObjectiveSpec> objectives = {objective_input_bits(m.net, m.analyzed)};
  if (w.mac_objective) objectives.push_back(objective_mac_energy(m.net, m.analyzed));
  std::vector<Cell> grid;
  for (const double t : w.targets) {
    for (const auto& o : objectives) {
      Cell c;
      c.query.accuracy_target = t;
      c.query.objective = o;
      char label[64];
      std::snprintf(label, sizeof label, "%g%%/%s", 100.0 * t, o.name.c_str());
      c.label = label;
      grid.push_back(std::move(c));
    }
  }
  return grid;
}

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// CPU seconds of this process, all threads, user and system.
double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

// CPU seconds that every thread but the calling one spends from the mark
// on: in a serving phase, the server's batcher and the pool workers, but
// not the generator, whose spin before each due time is not serving work.
struct ServerCpu {
  double process = cpu_seconds();
  double self = clock_seconds(CLOCK_THREAD_CPUTIME_ID);
  double since() const {
    return (cpu_seconds() - process) - (clock_seconds(CLOCK_THREAD_CPUTIME_ID) - self);
  }
};

struct PlanPhase {
  std::vector<PlanResult> cold;
  std::vector<double> plan_cpu_s;  // one cold plan of the grid per repetition
};

// Profile, one sigma search per target, then every allocation tail: the
// cold network -> plan path of one query grid on `svc`.
std::vector<PlanResult> cold_plan(PlanService& svc, const PlanKey& key, const Workload& w,
                                  const std::vector<Cell>& grid) {
  {
    ScopedSpan span("core.profile", kBenchCategory);
    svc.ensure_profile(key);
  }
  for (const double t : w.targets) {
    ScopedSpan span("core.sigma", kBenchCategory);
    svc.ensure_sigma(key, t);
  }
  std::vector<PlanResult> out;
  for (const auto& c : grid) {
    ScopedSpan span("core.tail", kBenchCategory);
    out.push_back(svc.plan(key, c.query));
  }
  return out;
}

PlanPhase plan_grid(Deployment& d, const Workload& w, const std::vector<Cell>& grid, int reps,
                    CheckLog& log) {
  PlanPhase p;
  // Planning happens once per process, so repeated cold plans are what
  // make its median steady. The extra repetitions run first, each on a
  // fresh service released before the next, so at most one service holds
  // a profiled harness and peak RSS still reflects a single deployment.
  std::vector<std::vector<PlanResult>> extra;
  for (int rep = 1; rep < reps; ++rep) {
    PlanService fresh(d.service->config());
    const PlanKey key = fresh.register_network(d.model.net, d.model.analyzed, *d.dataset);
    const double c0 = cpu_seconds();
    extra.push_back(cold_plan(fresh, key, w, grid));
    p.plan_cpu_s.push_back(cpu_seconds() - c0);
  }
  const double c0 = cpu_seconds();
  p.cold = cold_plan(*d.service, d.key, w, grid);
  p.plan_cpu_s.push_back(cpu_seconds() - c0);
  // Answers are bit-identical across services with the same configuration.
  for (const auto& again : extra)
    for (std::size_t i = 0; i < grid.size(); ++i)
      log.expect(perfbench::same_answer(again[i], p.cold[i]),
                 "cold answer repeats on a fresh service (" + grid[i].label + ")");
  // PlanService's charged-once accounting: one profile, one sigma search
  // per target, and one tail per cell.
  const CacheStats s = d.service->stats();
  log.expect(s.profile_misses == 1 && s.sigma_misses == static_cast<int>(w.targets.size()) &&
                 s.plan_misses == static_cast<int>(grid.size()) && s.plan_hits == 0,
             "plan-service cache accounting of the cold grid");
  return p;
}

// One warm re-answer of the whole grid after clear_plan_memo(): every
// answer must equal the cold one, and every query must run its tail again
// on the cached profile and sigma search. Leaves the memo full.
void requery_round(Deployment& d, const std::vector<Cell>& grid,
                   const std::vector<PlanResult>& cold, bool corrupt,
                   std::vector<double>* requery_cpu_ms, CheckLog& log) {
  PlanService& svc = *d.service;
  const CacheStats before = svc.stats();
  svc.clear_plan_memo();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double c0 = cpu_seconds();
    PlanResult warm;
    {
      ScopedSpan span("core.requery", kBenchCategory);
      warm = svc.plan(d.key, grid[i].query);
    }
    requery_cpu_ms->push_back(1e3 * (cpu_seconds() - c0));
    if (corrupt && i == 0 && !warm.alloc.bits.empty()) warm.alloc.bits[0] ^= 1;
    log.expect(perfbench::same_answer(warm, cold[i]),
               "requery answer equals the cold answer (" + grid[i].label + ")");
  }
  const CacheStats after = svc.stats();
  const auto n = static_cast<std::int64_t>(grid.size());
  log.expect(after.plan_misses - before.plan_misses == n &&
                 after.profile_hits - before.profile_hits == n &&
                 after.sigma_hits - before.sigma_hits == n &&
                 after.profile_misses == before.profile_misses &&
                 after.sigma_misses == before.sigma_misses,
             "plan-service cache accounting of a requery round");
}

struct StorageMix {
  int int8 = 0, int16 = 0, int32 = 0, fp32 = 0;
};

StorageMix storage_mix(const CompiledNetwork& c) {
  StorageMix m;
  for (const auto& s : c.steps()) {
    if (!s.lowered) {
      ++m.fp32;
      continue;
    }
    switch (s.lw.type) {
      case QType::kInt8: ++m.int8; break;
      case QType::kInt16: ++m.int16; break;
      case QType::kInt32: ++m.int32; break;
    }
  }
  return m;
}

// A request as the generator sent it, and as it resolved.
struct Sent {
  std::future<InferenceResult> future;
  std::int64_t late_us = 0;  // submit() call time minus due time (open loop)
  int image = 0;             // index into the image pool
};

struct Served {
  InferenceResult result;
  std::int64_t late_us = 0;
  int image = 0;
  double latency_ms() const { return 1e-3 * static_cast<double>(late_us + result.total_us); }
};

struct ClosedLoop {
  std::vector<Served> rows;
  std::int64_t batches = 0, batch_rows = 0;  // server-side, this phase only
  std::vector<double> window_rps;
};

// Bookkeeping for one server: what was submitted and which plan each
// installed version serves.
struct ServerLedger {
  std::int64_t submitted = 0;
  std::map<std::uint64_t, int> version_cell;  // plan version -> grid cell
};

class Run {
 public:
  Run(const Workload& w, const Args& a) : w_(w), args_(a) {}

  int execute();

 private:
  void install(InferenceServer& server, ServerLedger& ledger, int cell);
  // Mixed workloads alternate backends every `period` requests: every
  // request in the open loop, every full batch in the closed loop (the
  // batcher coalesces only same-backend requests, so per-request
  // alternation there would halve every batch).
  InferOptions options(std::int64_t i, int period) const {
    InferOptions o;
    o.model = w_.net;
    o.backend = (w_.mixed && (i / period) % 2 == 0) ? InferBackend::kFloat : InferBackend::kInteger;
    return o;
  }
  std::vector<Served> open_loop(int requests);
  ClosedLoop closed_loop(InferenceServer& server, ServerLedger& ledger, double seconds,
                         int max_requests);
  void check_rows(const std::vector<Served>& rows, const ServerLedger& ledger,
                  const char* phase);
  void account(const std::vector<Served>& rows) {
    attempted_ += static_cast<std::int64_t>(rows.size());
    for (const auto& r : rows)
      if (r.result.status != InferStatus::kOk) ++failed_;
  }
  void per_layer_forwards();

  const Workload& w_;
  const Args& args_;
  CheckLog log_;
  std::unique_ptr<Deployment> d_;
  std::vector<Cell> grid_;
  std::vector<LoweredPlan> lowered_;  // by position in w_.served
  std::vector<Tensor> pool_;
  ServerLedger lat_ledger_, thr_ledger_;
  int next_swap_ = 0;
  std::int64_t open_sent_ = 0;  // open-loop requests so far, all slices
  std::int64_t attempted_ = 0, failed_ = 0;
  bool logit_flipped_ = false;
  double b1_qgemm_macs_ = 0.0;  // qgemm MACs of the traced batch-1 forwards
  std::map<std::string, std::pair<double, const char*>> metrics_;  // name -> (value, unit)
};

void Run::install(InferenceServer& server, ServerLedger& ledger, int served_index) {
  const int cell = w_.served[static_cast<std::size_t>(served_index)];
  ScopedSpan span("infer.install", kBenchCategory);
  const std::uint64_t version = server.install_plan(w_.net, *d_->service, d_->key,
                                                    grid_[static_cast<std::size_t>(cell)].query);
  ledger.version_cell[version] = served_index;
}

std::vector<Served> Run::open_loop(int requests) {
  InferenceServer& server = *d_->latency_server;
  std::vector<Sent> sent;
  sent.reserve(static_cast<std::size_t>(requests));
  const auto period = std::chrono::duration<double>(1.0 / w_.rate_rps);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (int i = 0; i < requests; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(period * i);
    // Sleep to just before the due time, then spin: waking from a sleep on
    // a shared host can run late by a millisecond, and that would be
    // charged to the request.
    std::this_thread::sleep_until(due - kSpinUs);
    while (Clock::now() < due) {
    }
    // The swap schedule counts open-loop requests across slices.
    if (w_.swap_every > 0 && open_sent_ > 0 && open_sent_ % w_.swap_every == 0) {
      next_swap_ = (next_swap_ + 1) % static_cast<int>(w_.served.size());
      install(server, lat_ledger_, next_swap_);
    }
    const int image = static_cast<int>(lat_ledger_.submitted % kImagePool);
    const InferOptions opts = options(lat_ledger_.submitted, 1);
    const auto at = Clock::now();
    ScopedSpan span("infer.submit", kBenchCategory);
    sent.push_back({server.submit(Tensor(pool_[static_cast<std::size_t>(image)]), opts),
                    micros(at - due), image});
    ++lat_ledger_.submitted;
    ++open_sent_;
  }
  std::vector<Served> out;
  out.reserve(sent.size());
  for (auto& s : sent) out.push_back({s.future.get(), s.late_us, s.image});
  return out;
}

ClosedLoop Run::closed_loop(InferenceServer& server, ServerLedger& ledger, double seconds,
                            int max_requests) {
  ClosedLoop c;
  std::deque<Sent> window;
  std::vector<Clock::time_point> done;
  auto take = [&] {
    Sent& s = window.front();
    c.rows.push_back({s.future.get(), 0, s.image});
    done.push_back(Clock::now());
    window.pop_front();
  };
  const ServerStats before = server.stats();
  const auto t0 = Clock::now();
  // A slice ends on a whole batch of requests, so that the drain at its end
  // leaves no partial batch (and a mixed run no split backend block).
  for (int n = 0; n < max_requests &&
                  (seconds_since(t0) < seconds || ledger.submitted % kMaxBatch != 0);
       ++n) {
    if (static_cast<int>(window.size()) == kWindow) take();
    const int image = static_cast<int>(ledger.submitted % kImagePool);
    ScopedSpan span("infer.submit", kBenchCategory);
    window.push_back({server.submit(Tensor(pool_[static_cast<std::size_t>(image)]),
                                    options(ledger.submitted, kMaxBatch)),
                      0, image});
    ++ledger.submitted;
  }
  while (!window.empty()) take();
  const ServerStats after = server.stats();
  c.batches = after.batches - before.batches;
  c.batch_rows = after.rows - before.rows;
  // Completion rate over consecutive windows of kRateWindow requests; the
  // median over windows discounts short stalls of a shared host.
  for (std::size_t j = kRateWindow; j < done.size(); j += kRateWindow) {
    const double dt = std::chrono::duration<double>(done[j] - done[j - kRateWindow]).count();
    if (dt > 0) c.window_rps.push_back(static_cast<double>(kRateWindow) / dt);
  }
  return c;
}

// Batched == sequential: a fixed sample of served rows is re-run alone
// under the plan version it was served with and must match bit for bit.
void Run::check_rows(const std::vector<Served>& rows, const ServerLedger& ledger,
                     const char* phase) {
  int unknown_version = 0, mismatched = 0, sampled = 0;
  for (const auto& r : rows) {
    if (r.result.status == InferStatus::kOk && r.result.backend == InferBackend::kInteger &&
        ledger.version_cell.count(r.result.plan_version) == 0)
      ++unknown_version;
  }
  // An odd stride, so that the sample covers both backends of a mixed run.
  const std::size_t stride = std::max<std::size_t>(1, rows.size() / kSampleRows) | 1;
  for (std::size_t i = 0; i < rows.size(); i += stride) {
    const InferenceResult& res = rows[i].result;
    if (res.status != InferStatus::kOk) continue;
    const Tensor& image = pool_[static_cast<std::size_t>(rows[i].image)];
    Tensor alone;
    if (res.backend == InferBackend::kInteger) {
      const auto it = ledger.version_cell.find(res.plan_version);
      if (it == ledger.version_cell.end()) continue;  // counted above
      alone = lowered_[static_cast<std::size_t>(it->second)].compiled->forward(image);
    } else {
      alone = d_->model.net.forward(image);
    }
    std::vector<float> logits = res.logits;
    if (args_.inject == "logit" && !logit_flipped_ && !logits.empty()) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &logits[0], sizeof bits);
      bits ^= 1u;
      std::memcpy(&logits[0], &bits, sizeof bits);
      logit_flipped_ = true;
    }
    ++sampled;
    if (!perfbench::same_logits(logits, alone)) ++mismatched;
  }
  log_.expect(unknown_version == 0,
              std::string(phase) + ": every integer result carries an installed plan version");
  log_.expect(sampled > 0 && mismatched == 0,
              std::string(phase) + ": sampled served rows equal the row run alone (" +
                  std::to_string(mismatched) + " of " + std::to_string(sampled) + " differ)");
}

// Traced-run forwards: batch-1 and batch-8 integer forwards of the first
// served plan, the float compiled forward, and the harness-batch float
// Network::forward, each under its own span, with the kernel counters of
// the batch-1 integer loop read from the obs registry.
void Run::per_layer_forwards() {
  const CompiledNetwork& qnet = *lowered_.front().compiled;
  const CompiledNetwork fnet = GraphCompiler().compile(d_->model.net);
  const Tensor& b1 = pool_.front();
  const Tensor b8 = d_->dataset->make_batch(2'000'000, kMaxBatch);
  const Tensor b64 = d_->dataset->make_batch(2'000'000, d_->service->config().pipeline.harness.batch);
  qnet.forward(b1);  // warm the scratch arenas
  metrics().reset();
  for (int i = 0; i < kForwardReps; ++i) {
    ScopedSpan span("compile.forward_b1", kBenchCategory);
    qnet.forward(b1);
  }
  const MetricsSnapshot k = metrics().snapshot();
  for (int i = 0; i < kForwardReps / 2; ++i) {
    ScopedSpan span("compile.forward_b8", kBenchCategory);
    qnet.forward(b8);
  }
  fnet.forward(b1);
  for (int i = 0; i < kForwardReps; ++i) {
    ScopedSpan span("compile.float_forward_b1", kBenchCategory);
    fnet.forward(b1);
  }
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span("nn.forward_b64", kBenchCategory);
    d_->model.net.forward(b64);
  }
  const double reps = kForwardReps;
  const double macs = static_cast<double>(k.counter("qgemm.macs"));
  metrics_["tensor.qgemm_macs_per_req"] = {macs / reps, "MAC"};
  metrics_["tensor.gemm_flops_per_req"] = {static_cast<double>(k.counter("gemm.flops")) / reps,
                                           "FLOP"};
  const double dispatches = static_cast<double>(
      k.counter("kernel.qgemm.scalar") + k.counter("kernel.qgemm.madd") +
      k.counter("kernel.qgemm.maddubs") + k.counter("kernel.qgemm.gemv"));
  metrics_["tensor.maddubs_share"] = {
      dispatches > 0 ? static_cast<double>(k.counter("kernel.qgemm.maddubs")) / dispatches : 0.0,
      "fraction"};
  b1_qgemm_macs_ = macs;
}

int Run::execute() {
  set_parallel_worker_count(kWorkers);
  if (args_.trace) {
    set_metrics_enabled(true);
    set_tracing_enabled(true);
  }

  // --- set-up: model, dataset, plan service, servers ------------------------
  // CPU seconds of each repetition, the first counted from process start.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d_.reset();  // the previous deployment's teardown is not set-up
    const double c0 = rep == 0 ? 0.0 : cpu_seconds();
    d_ = set_up(w_);
    setup_s.push_back(cpu_seconds() - c0);
  }
  grid_ = query_grid(w_, d_->model);

  // Request images come from the seed; the planned network and its
  // calibration data do not, so plan quality repeats across seeds.
  for (int k = 0; k < kImagePool; ++k) {
    const auto index = static_cast<std::int64_t>(
        splitmix64(args_.seed * kImagePool + static_cast<std::uint64_t>(k)) % 1'000'000);
    Tensor img(Shape({1, d_->model.channels, d_->model.height, d_->model.width}));
    d_->dataset->render_image(index, img, 0);
    pool_.push_back(std::move(img));
  }

  // --- network -> plan ----------------------------------------------------
  const PlanPhase plan = plan_grid(*d_, w_, grid_, args_.trace ? 1 : w_.plan_reps, log_);
  attempted_ += static_cast<std::int64_t>(plan.cold.size() * plan.plan_cpu_s.size());
  double bits = 0.0;
  for (const auto& p : plan.cold) bits += p.effective_bits;
  bits /= static_cast<double>(plan.cold.size());

  double served_drop = 0.0;
  for (const int cell : w_.served) {
    PlanValidation v;
    {
      ScopedSpan span("serve.validate", kBenchCategory);
      v = d_->service->validate_plan(d_->key, grid_[static_cast<std::size_t>(cell)].query);
    }
    served_drop = std::max(served_drop, v.compiled_drop);
    log_.expect(v.compiled_drop <= v.plan.query.accuracy_target + kValidationTolerance,
                "served drop of " + grid_[static_cast<std::size_t>(cell)].label +
                    " within target + kValidationTolerance");
  }

  for (const int cell : w_.served) {
    for (int rep = 0; rep < (args_.trace ? 3 : 1); ++rep) {
      LoweredPlan lp;
      {
        ScopedSpan span("compile.lower", kBenchCategory);
        lp = d_->service->lower_plan(d_->key, grid_[static_cast<std::size_t>(cell)].query);
      }
      if (rep == 0) lowered_.push_back(std::move(lp));
    }
  }

  std::printf("provenance: workload=%s seed=%llu workers=%d isa=%s max_batch=%d rate_rps=%g "
              "swap_every=%d trace=%d\n",
              w_.name, static_cast<unsigned long long>(args_.seed), parallel_worker_count(),
              kernel_isa_name(kernel_isa()), kMaxBatch, w_.rate_rps, w_.swap_every,
              args_.trace ? 1 : 0);
  for (std::size_t i = 0; i < lowered_.size(); ++i) {
    const StorageMix m = storage_mix(*lowered_[i].compiled);
    const FusionCoverage& c = lowered_[i].compiled->coverage();
    std::printf("provenance: plan %s: %.4f bits, steps int8=%d int16=%d int32=%d float=%d, "
                "relu_fused=%d qdq_elided=%d\n",
                grid_[static_cast<std::size_t>(w_.served[i])].label.c_str(),
                lowered_[i].plan.effective_bits, m.int8, m.int16, m.int32, m.fp32, c.relu_fused,
                c.qdq_elided);
  }

  if (args_.trace) per_layer_forwards();

  // --- serving --------------------------------------------------------------
  install(*d_->latency_server, lat_ledger_, 0);
  install(*d_->throughput_server, thr_ledger_, 0);
  d_->latency_server->start();
  d_->throughput_server->start();

  // Warm-up: fill scratch arenas and the batcher before anything is timed.
  account(closed_loop(*d_->latency_server, lat_ledger_, 1e9, 2 * kWindow).rows);
  account(closed_loop(*d_->throughput_server, thr_ledger_, 1e9, 2 * kWindow).rows);

  const int open_requests =
      args_.trace ? kTracedOpenRequests
                  : std::max(200, static_cast<int>(w_.rate_rps * w_.open_share * args_.seconds));
  double overhead_base_p50 = 0.0, untraced_p90 = 0.0;
  if (args_.trace) {
    // Untraced baseline for obs.trace_overhead, same rate and size.
    set_tracing_enabled(false);
    set_metrics_enabled(false);
    const auto base = open_loop(open_requests);
    account(base);
    check_rows(base, lat_ledger_, "untraced open loop");
    std::vector<double> lat;
    for (const auto& r : base) lat.push_back(r.latency_ms());
    overhead_base_p50 = median(lat);
    untraced_p90 = percentile(lat, 0.9);
    set_metrics_enabled(true);
    set_tracing_enabled(true);
  }
  // Open- and closed-loop slices alternate through the run, so a slow
  // stretch of a shared host lands on both phases alike.
  const int rounds = args_.trace ? 1 : kServeRounds;
  std::vector<Served> open;
  std::vector<double> slice_p50, slice_p90;
  ClosedLoop closed;
  std::vector<double> requery_cpu_ms;
  double serve_cpu_s[2] = {0.0, 0.0};  // server CPU of the open and the closed loop
  for (int round = 0; round < rounds; ++round) {
    ServerCpu open_cpu;
    const std::vector<Served> o = open_loop(open_requests / rounds);
    serve_cpu_s[0] += open_cpu.since();
    account(o);
    check_rows(o, lat_ledger_, "open loop");
    open.insert(open.end(), o.begin(), o.end());
    std::vector<double> lat;
    for (const auto& r : o) lat.push_back(r.latency_ms());
    slice_p50.push_back(percentile(lat, 0.5));
    slice_p90.push_back(percentile(lat, 0.9));
    ServerCpu closed_cpu;
    ClosedLoop c = closed_loop(*d_->throughput_server, thr_ledger_,
                               w_.closed_share * args_.seconds / rounds,
                               args_.trace ? kTracedClosedRequests : 1 << 30);
    serve_cpu_s[1] += closed_cpu.since();
    account(c.rows);
    check_rows(c.rows, thr_ledger_, "closed loop");
    closed.batches += c.batches;
    closed.batch_rows += c.batch_rows;
    closed.window_rps.insert(closed.window_rps.end(), c.window_rps.begin(), c.window_rps.end());
    // Requery rounds are spread between the serving slices, so their
    // samples too span the run.
    const int first = round * w_.requery_rounds / rounds;
    const int last = (round + 1) * w_.requery_rounds / rounds;
    for (int r = first; r < last; ++r)
      requery_round(*d_, grid_, plan.cold, args_.inject == "plan" && r == 0, &requery_cpu_ms, log_);
  }
  attempted_ += static_cast<std::int64_t>(requery_cpu_ms.size());
  std::fprintf(stderr, "open-loop slices (ms):");
  for (std::size_t i = 0; i < slice_p50.size(); ++i)
    std::fprintf(stderr, " %.3f/%.3f", slice_p50[i], slice_p90[i]);
  std::fprintf(stderr, "  (p50/p90 each)\n");
  std::fprintf(stderr, "closed-loop windows: %zu, rate p10 %.1f p50 %.1f p90 %.1f req/s\n",
               closed.window_rps.size(), percentile(closed.window_rps, 0.1),
               percentile(closed.window_rps, 0.5), percentile(closed.window_rps, 0.9));
  const double rows_mean = closed.batches > 0 ? static_cast<double>(closed.batch_rows) /
                                                    static_cast<double>(closed.batches)
                                              : 0.0;

  d_->latency_server->stop();
  d_->throughput_server->stop();
  auto resolved_once = [&](const InferenceServer& server, const ServerLedger& ledger) {
    const ServerStats st = server.stats();
    log_.expect(st.submitted == ledger.submitted && st.resolved() == ledger.submitted,
                "every submit resolves exactly once");
  };
  resolved_once(*d_->latency_server, lat_ledger_);
  resolved_once(*d_->throughput_server, thr_ledger_);
  // install_plan numbers versions 1, 2, ...: one per install, hot-swaps included.
  log_.expect(d_->latency_server->plan_version(w_.net) == lat_ledger_.version_cell.size(),
              "plan versions count the installs (" +
                  std::to_string(lat_ledger_.version_cell.size()) + ")");

  // --- figures ----------------------------------------------------------------
  std::vector<double> lat, late, queue, run;
  for (const auto& r : open) {
    lat.push_back(r.latency_ms());
    late.push_back(1e-3 * static_cast<double>(r.late_us));
    queue.push_back(1e-3 * static_cast<double>(r.result.queue_us));
    run.push_back(1e-3 * static_cast<double>(r.result.run_us));
  }
  const double queue_p50 = median(queue), run_p50 = median(run);
  log_.expect(queue_p50 <= 0.5 * run_p50,
              "open loop is not timer-bound: queue p50 " + std::to_string(queue_p50) +
                  " ms <= half of run p50 " + std::to_string(run_p50) + " ms");
  log_.expect(rows_mean >= 0.9 * kMaxBatch, "closed loop fills batches: mean rows " +
                                                std::to_string(rows_mean) + " >= 0.9 x " +
                                                std::to_string(kMaxBatch));

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  if (!args_.trace) {
    metrics_["setup_s"] = {median(setup_s), "s"};
    // Planning is pure computation whose pool waits block rather than spin,
    // so its CPU time is its work. Wall time on a shared host also counts
    // the time the host gave the CPUs to other machines (README.md).
    metrics_["plan_cpu_s"] = {median(plan.plan_cpu_s), "s"};
    metrics_["requery_cpu_ms"] = {median(requery_cpu_ms), "ms"};
    metrics_["plan_bits"] = {bits, "bits"};
    metrics_["served_drop"] = {served_drop, "fraction"};
    // Serving is measured in CPU time too, per request: the open loop runs
    // batches of one, the closed loop full batches. Wall-clock latency and
    // throughput are per-layer figures (README.md).
    metrics_["serve_cpu_ms_b1"] = {
        1e3 * serve_cpu_s[0] / static_cast<double>(open.size()), "ms"};
    metrics_["serve_cpu_ms_b8"] = {
        1e3 * serve_cpu_s[1] / static_cast<double>(closed.batch_rows), "ms"};
    metrics_["peak_rss_mb"] = {peak_rss_mb, "MB"};
  } else {
    log_.expect(tracer().dropped() == 0,
                "trace ring dropped no events (" + std::to_string(tracer().dropped()) + ")");
    log_.expect(write_chrome_trace(args_.trace_out), "chrome trace written to " + args_.trace_out);
    // No benchmark span encloses another, so each span's duration is the
    // time spent inside that one public call.
    std::map<std::string, std::vector<double>> span_us;
    for (const TraceEvent& e : tracer().events())
      if (e.ph == 'X' && std::strcmp(e.category, kBenchCategory) == 0)
        span_us[e.name].push_back(static_cast<double>(e.dur_us));
    auto span_ms = [&](const char* name, bool total) {
      const auto it = span_us.find(name);
      if (it == span_us.end()) return 0.0;
      double sum = 0.0;
      for (const double v : it->second) sum += v;
      return 1e-3 * (total ? sum : median(it->second));
    };
    const CacheStats cs = d_->service->stats();
    const StorageMix mix = storage_mix(*lowered_.front().compiled);
    const FusionCoverage& cov = lowered_.front().compiled->coverage();
    metrics_["zoo.build_s"] = {1e-3 * span_ms("zoo.build", false), "s"};
    metrics_["core.profile_s"] = {1e-3 * span_ms("core.profile", true), "s"};
    metrics_["core.sigma_ms"] = {span_ms("core.sigma", true), "ms"};
    metrics_["core.tail_ms"] = {span_ms("core.tail", true), "ms"};
    metrics_["core.forwards"] = {static_cast<double>(d_->service->forward_count(d_->key)), "count"};
    metrics_["nn.forward_ms_b64"] = {span_ms("nn.forward_b64", false), "ms"};
    metrics_["serve.profile_hits"] = {static_cast<double>(cs.profile_hits), "count"};
    metrics_["serve.sigma_hits"] = {static_cast<double>(cs.sigma_hits), "count"};
    metrics_["serve.plan_hits"] = {static_cast<double>(cs.plan_hits), "count"};
    metrics_["compile.lower_ms"] = {span_ms("compile.lower", false), "ms"};
    metrics_["compile.forward_ms_b1"] = {span_ms("compile.forward_b1", false), "ms"};
    metrics_["compile.forward_ms_b8"] = {span_ms("compile.forward_b8", false), "ms"};
    metrics_["compile.float_forward_ms_b1"] = {span_ms("compile.float_forward_b1", false), "ms"};
    metrics_["compile.int8_steps"] = {static_cast<double>(mix.int8), "count"};
    metrics_["compile.int16_steps"] = {static_cast<double>(mix.int16), "count"};
    metrics_["compile.int32_steps"] = {static_cast<double>(mix.int32), "count"};
    metrics_["compile.relu_fused"] = {static_cast<double>(cov.relu_fused), "count"};
    metrics_["compile.qdq_elided"] = {static_cast<double>(cov.qdq_elided), "count"};
    metrics_["infer.install_ms"] = {span_ms("infer.install", false), "ms"};
    metrics_["infer.queue_ms_p50"] = {queue_p50, "ms"};
    metrics_["infer.run_ms_p50"] = {run_p50, "ms"};
    metrics_["infer.batch_rows_mean"] = {rows_mean, "rows"};
    metrics_["infer.gen_late_ms_p90"] = {percentile(late, 0.9), "ms"};
    metrics_["infer.latency_ms_p50"] = {overhead_base_p50, "ms"};
    metrics_["infer.throughput_rps"] = {median(closed.window_rps), "req/s"};
    metrics_["infer.latency_ms_p90"] = {untraced_p90, "ms"};
    const double b1_s = 1e-3 * span_ms("compile.forward_b1", true);
    metrics_["tensor.qgemm_gops"] = {b1_s > 0 ? 2.0 * b1_qgemm_macs_ / b1_s / 1e9 : 0.0, "GOP/s"};
    metrics_["obs.trace_overhead"] = {
        overhead_base_p50 > 0 ? percentile(lat, 0.5) / overhead_base_p50 - 1.0 : 0.0,
        "fraction"};
  }

  for (const auto& [name, vu] : metrics_)
    std::fprintf(stderr, "  %-30s %14.6g %s\n", name.c_str(), vu.first, vu.second);
  for (const auto& f : log_.failures()) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::fprintf(stderr, "%d checks, %zu failed; %lld operations, %lld failed\n", log_.checked(),
               log_.failures().size(), static_cast<long long>(attempted_),
               static_cast<long long>(failed_));

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              log_.ok() ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), v, vu.second);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return log_.ok() ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--inject plan|logit] [--trace-out FILE]\n"
               "workloads:",
               why);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(v);
    else if (arg == "--trace") a.trace = std::atoi(v) != 0;
    else if (arg == "--inject") a.inject = v;
    else if (arg == "--trace-out") a.trace_out = v;
    else usage(("unknown argument " + arg).c_str());
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace && a.trace_out.empty()) usage("--trace 1 needs --trace-out FILE");
  if (!a.inject.empty() && a.inject != "plan" && a.inject != "logit")
    usage("--inject takes plan or logit");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  for (const auto& w : workloads()) {
    if (args.workload != w.name) continue;
    try {
      return Run(w, args).execute();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
  }
  usage(("unknown workload '" + args.workload + "'").c_str());
}
