// bench_forward: min-of-N forward throughput per zoo network on the
// register-blocked packed GEMM path (src/tensor/gemm.cpp). Two batch
// sizes per network:
//
//   batch 1   the serving case, where GEMM tile-task scheduling inside
//             one image matters most;
//   batch 8   the profiling case, where the conv layers parallelise
//             across images and the win is per-core kernel throughput.
//
// Each row additionally times the INTEGER execution backend
// (tensor/qgemm through the unfused compile, every CompileOptions rule
// off) at int16 and int8 activation formats derived from the network's
// own profiled input ranges — the edge-deployment measurement the
// paper's cost models predict. The integer columns report wall time plus
// max |Δ| vs the float logits (bounded by the formats' quantization
// error, NOT zero).
//
// Each row ALSO times the §17 graph-compiler artifacts — the fused float
// program the inference server registers and the fused int8 program a
// plan install builds — against their unfused counterparts. The fused
// float program must be bitwise identical to the blocked path
// (fused_max_diff == 0); fused int8 elides the interior
// dequantize/requantize passes and the separate ReLU passes. Whether that
// makes it faster than unfused int8 at batch 1 is recorded, not gated:
// the int8_fused_speedup column and `fused_int8_wins_batch1` in the JSON.
// It reads true on a 4-vCPU AVX2+FMA Xeon (int8_fused_speedup measured
// 1.09-1.19x on NiN and 1.01-1.04x on AlexNet); AlexNet's margin is
// within noise, so the flag can read false there. Per-net fusion
// counts land in the JSON rows; `--print-fusion` emits them alone as a
// JSON object for the bench manifest.
//
// Usage: bench_forward [--nets a,b,c] [--reps N] [--json FILE] [--print-fusion]
// scripts/run_benchmarks.sh parks the JSON at bench_logs/BENCH_forward.json
// so the forward-throughput trajectory is machine-readable per commit.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "compile/compiled_network.hpp"
#include "compile/graph_compiler.hpp"
#include "io/json_writer.hpp"
#include "stats/rng.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/parallel.hpp"
#include "zoo/zoo.hpp"

namespace {

using namespace mupod;
using mupod::bench::Stopwatch;

struct Row {
  std::string net;
  int batch = 0;
  double blocked_ms = 0.0;
  double int16_ms = 0.0;
  double int8_ms = 0.0;
  double int16_max_diff = 0.0;  // vs float logits; bounded by quant error
  double int8_max_diff = 0.0;
  double fused_ms = 0.0;           // compiled float program (§17)
  double fused_max_diff = 0.0;     // vs blocked path; must be exactly 0
  double int8_fused_ms = 0.0;      // compiled int8 program
  double int8_fused_max_diff = 0.0;
  FusionCoverage fusion;           // from the int8 compile
  double int8_fused_speedup() const {
    return int8_fused_ms > 0.0 ? int8_ms / int8_fused_ms : 0.0;
  }
};

// Activation formats for the integer rows, derived the way the allocator
// does: I from the profiled max |X_K| of each analyzed layer's input,
// F = total bits - I.
std::vector<FixedPointFormat> uniform_formats(const ZooModel& model, const Tensor& x, int bits) {
  const std::vector<double> ranges = model.net.profile_input_ranges(x);
  std::vector<FixedPointFormat> fmts;
  fmts.reserve(model.analyzed.size());
  for (int id : model.analyzed) {
    FixedPointFormat f;
    f.integer_bits = FixedPointFormat::integer_bits_for_range(ranges[static_cast<std::size_t>(id)]);
    f.fraction_bits = bits - f.integer_bits;
    fmts.push_back(f);
  }
  return fmts;
}

double min_cforward_ms(const CompiledNetwork& cnet, const Tensor& x, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    Tensor y = cnet.forward(x);
    best = std::min(best, sw.seconds() * 1e3);
  }
  return best;
}

// Interleaved min-of-N for the fused-vs-unfused comparison: alternating
// the two programs rep by rep inside one loop means slow clock drift
// (VM frequency wander, thermal throttling) lands on both measurements
// equally, so the difference between the two minima reflects real work
// rather than which program happened to run during the fast phase.
std::pair<double, double> min_interleaved_ms(const CompiledNetwork& qnet,
                                             const CompiledNetwork& cnet, const Tensor& x,
                                             int reps) {
  double best_q = 1e300, best_c = 1e300;
  for (int r = 0; r < reps; ++r) {
    {
      Stopwatch sw;
      Tensor y = qnet.forward(x);
      best_q = std::min(best_q, sw.seconds() * 1e3);
    }
    {
      Stopwatch sw;
      Tensor y = cnet.forward(x);
      best_c = std::min(best_c, sw.seconds() * 1e3);
    }
  }
  return {best_q, best_c};
}

double max_diff(const Tensor& a, const Tensor& b) {
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  return m;
}

Tensor random_input(const ZooModel& model, int batch, std::uint64_t seed) {
  Tensor x(Shape({batch, model.channels, model.height, model.width}));
  Rng rng(seed);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());
  return x;
}

double min_forward_ms(Network& net, const Tensor& x, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    Tensor y = net.forward(x);
    best = std::min(best, sw.seconds() * 1e3);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> nets = {"nin", "alexnet", "mobilenet"};
  int reps = 5;
  bool print_fusion = false;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-fusion") {
      print_fusion = true;
    } else if (arg == "--nets" && i + 1 < argc) {
      nets.clear();
      std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        nets.push_back(list.substr(pos, comma == std::string::npos ? comma : comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--nets a,b,c] [--reps N] [--json FILE] [--print-fusion]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  if (print_fusion) {
    // Per-net fusion counts for the int8 compile, as one JSON object —
    // embedded verbatim into BENCH_manifest.json by run_benchmarks.sh.
    JsonWriter j;
    j.begin_object();
    for (const std::string& name : nets) {
      ZooOptions zo;
      zo.calibration_images = 0;
      zo.head_images = 0;
      ZooModel model = build_model(name, zo);
      const Tensor x = random_input(model, 1, 8);
      CompileOptions co;
      co.weight_bits = 8;
      const CompiledGraph g =
          GraphCompiler(co).rewrite(model.net, model.analyzed, uniform_formats(model, x, 8));
      const FusionCoverage& c = g.coverage;
      j.key(name).begin_object();
      j.kv("relu_fused", c.relu_fused);
      j.kv("norm_folded", c.norm_folded);
      j.kv("noops_dropped", c.noops_dropped);
      j.kv("qdq_elided", c.qdq_elided);
      j.kv("regions", c.regions);
      j.end_object();
    }
    j.end_object();
    std::printf("%s\n", j.str().c_str());
    return 0;
  }

  bench::print_header("forward throughput: float, unfused and fused integer, compiled paths",
                      "forward hot path (Eq. 5 profiling / sigma search cost)");
  std::printf("workers %d (MUPOD_THREADS to pin), min of %d rep(s), kernel ISA %s\n\n",
              parallel_worker_count(), reps, kernel_isa_name(kernel_isa()));
  std::printf("%-10s %5s  %12s %10s %10s %10s %10s %8s\n", "net", "batch", "blocked ms",
              "int16 ms", "int8 ms", "fused ms", "i8fuse ms", "i8 gain");

  std::vector<Row> rows;
  bool all_finite = true;
  for (const std::string& name : nets) {
    // Forward timing only: skip calibration and head training so the
    // build cost stays out of the benchmark.
    ZooOptions zo;
    zo.calibration_images = 0;
    zo.head_images = 0;
    ZooModel model = build_model(name, zo);
    for (const int batch : {1, 8}) {
      const Tensor x = random_input(model, batch, 7 + batch);

      Tensor y_blocked = model.net.forward(x);  // warm-up + parity reference
      const double blocked_ms = min_forward_ms(model.net, x, reps);

      Row row;
      row.net = name;
      row.batch = batch;
      row.blocked_ms = blocked_ms;
      for (std::int64_t i = 0; i < y_blocked.numel(); ++i)
        if (!(std::abs(y_blocked[i]) < 1e30f)) all_finite = false;

      // Integer backend: uniform 16-bit and 8-bit activation formats from
      // the network's own profiled ranges, weights at the same width.
      {
        const CompiledNetwork q16 = GraphCompiler(CompileOptions::unfused(16))
                                        .compile(model.net, model.analyzed,
                                                 uniform_formats(model, x, 16));
        Tensor y16 = q16.forward(x);  // warm-up + parity sample
        row.int16_ms = min_cforward_ms(q16, x, reps);
        row.int16_max_diff = max_diff(y_blocked, y16);

        const CompiledNetwork q8 = GraphCompiler(CompileOptions::unfused(8))
                                       .compile(model.net, model.analyzed,
                                                uniform_formats(model, x, 8));
        Tensor y8 = q8.forward(x);
        row.int8_max_diff = max_diff(y_blocked, y8);
        if (!(row.int16_max_diff < 1e30) || !(row.int8_max_diff < 1e30)) all_finite = false;

        // §17 compiled artifacts: the fused float program (must be bitwise
        // identical to the blocked path) and the fused int8 program, whose
        // fused relu epilogues and elided interior requantize passes are
        // the serving-path win.
        const CompiledNetwork cf = GraphCompiler().compile(model.net);
        Tensor yf = cf.forward(x);  // warm-up + parity
        row.fused_ms = min_cforward_ms(cf, x, reps);
        row.fused_max_diff = max_diff(y_blocked, yf);
        if (row.fused_max_diff != 0.0) all_finite = false;

        CompileOptions co;
        co.weight_bits = 8;
        const CompiledNetwork c8 =
            GraphCompiler(co).compile(model.net, model.analyzed, uniform_formats(model, x, 8));
        Tensor y8f = c8.forward(x);
        row.int8_fused_max_diff = max_diff(y_blocked, y8f);
        row.fusion = c8.coverage();
        if (!(row.int8_fused_max_diff < 1e30)) all_finite = false;

        // Fused vs unfused int8 is the headline claim, and at batch 1 the
        // true gap is a few percent — so measure the pair interleaved, and
        // with extra reps at batch 1 where a single forward is ~1 ms.
        const int ireps = batch == 1 ? reps * 8 : reps;
        const auto [q8_ms, c8_ms] = min_interleaved_ms(q8, c8, x, ireps);
        row.int8_ms = q8_ms;
        row.int8_fused_ms = c8_ms;
      }

      rows.push_back(row);
      std::printf("%-10s %5d  %12.2f %10.2f %10.2f %10.2f %10.2f %7.2fx\n", name.c_str(), batch,
                  blocked_ms, row.int16_ms, row.int8_ms, row.fused_ms, row.int8_fused_ms,
                  row.int8_fused_speedup());
    }
  }

  // Recorded, not gated: whether the fused int8 program strictly beats
  // unfused int8 at batch 1 on the conv workhorses (true when every such
  // row did; recorded false when neither is in --nets).
  bool fused_int8_wins_batch1 = false;
  bool saw_batch1_conv_net = false;
  for (const Row& r : rows) {
    if (r.batch != 1 || (r.net != "nin" && r.net != "alexnet")) continue;
    if (!saw_batch1_conv_net) fused_int8_wins_batch1 = true;
    saw_batch1_conv_net = true;
    fused_int8_wins_batch1 = fused_int8_wins_batch1 && r.int8_fused_ms < r.int8_ms;
  }

  if (!json_out.empty()) {
    JsonWriter j;
    j.begin_object();
    j.kv("bench", "forward");
    j.kv("workers", parallel_worker_count());
    j.kv("reps", reps);
    j.kv("kernel_isa", kernel_isa_name(kernel_isa()));
    j.kv("paths_agree", all_finite);
    j.kv("fused_int8_wins_batch1", fused_int8_wins_batch1);
    j.key("rows").begin_array();
    for (const Row& r : rows) {
      j.begin_object();
      j.kv("net", r.net);
      j.kv("batch", r.batch);
      j.kv("blocked_ms_min", r.blocked_ms);
      j.kv("int16_ms_min", r.int16_ms);
      j.kv("int8_ms_min", r.int8_ms);
      j.kv("int16_max_diff", r.int16_max_diff);
      j.kv("int8_max_diff", r.int8_max_diff);
      j.kv("fused_ms_min", r.fused_ms);
      j.kv("fused_max_diff", r.fused_max_diff);
      j.kv("int8_fused_ms_min", r.int8_fused_ms);
      j.kv("int8_fused_max_diff", r.int8_fused_max_diff);
      j.kv("int8_fused_speedup", r.int8_fused_speedup());
      j.key("fusion").begin_object();
      j.kv("relu_fused", r.fusion.relu_fused);
      j.kv("norm_folded", r.fusion.norm_folded);
      j.kv("noops_dropped", r.fusion.noops_dropped);
      j.kv("qdq_elided", r.fusion.qdq_elided);
      j.kv("regions", r.fusion.regions);
      j.end_object();
      j.end_object();
    }
    j.end_array();
    j.end_object();
    errno = 0;
    if (!write_json_file(json_out, j.str())) {
      std::fprintf(stderr, "error: cannot write '%s': %s\n", json_out.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::printf("\nwrote %s\n", json_out.c_str());
  }
  return 0;
}
