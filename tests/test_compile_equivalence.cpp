// Differential equivalence battery for the graph compiler: the compiled
// artifact against the executors it replaces.
//
//   * FLOAT: compiled == Network::forward BITWISE, for every zoo model
//     and a seeded sweep of random boundary networks, across worker
//     counts and across forced-scalar vs the detected ISA. Fused
//     epilogues (ReLU, folded norm) apply the exact same float
//     expressions at the same store points, so not a single bit may move.
//   * INTEGER, elision off: compiled == the unfused compile (every rule
//     off) BITWISE — same lowering math (lower_layer_operands), same
//     float-carrier stores, so fusing ReLU into the epilogue and dropping
//     noops are invisible at the bit level.
//   * INTEGER, elision on: each fused boundary is held to the committed
//     one-quantization-step contract. Every lowered step is recomputed
//     with a naive int64 reference from the compiled network's own
//     captured inputs: carrier stores must equal apply_requant(acc)
//     EXACTLY (kernels vs naive), and must sit within one step of the
//     unfused double-rounding value (float dequant store, then
//     quantize-on-load) that the elision replaced.
//   * DETERMINISM: the compiled integer forward is byte-identical across
//     worker counts and across scalar vs detected ISA (the qgemm
//     contract, inherited).
//
// Vacuity guards: the battery asserts each fusion rule and the region
// former actually fired in the nets it checked — a refactor that silently
// stops fusing fails here, not in a benchmark three PRs later.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "compile/compiled_network.hpp"
#include "compile/graph_compiler.hpp"
#include "compile_testlib.hpp"
#include "kernel_isas.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/parallel.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

using compiletest::RandomNet;
using compiletest::int8_formats;
using compiletest::make_random_net;
using compiletest::mixed_formats;
using compiletest::random_input;

ZooOptions small_zoo_options() {
  ZooOptions zo;
  zo.num_classes = 10;
  zo.seed = 404;
  zo.data_seed = 8;
  zo.calibration_images = 4;
  return zo;
}

// RAII: restore worker count + ISA after each configuration sweep.
struct ExecConfigGuard {
  ~ExecConfigGuard() {
    set_parallel_worker_count(0);
    set_kernel_isa(detected_kernel_isa());
  }
};

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << what << ": compiled output differs bitwise";
}

// ---------------------------------------------------------------------------
// Float path: bitwise across every zoo model, worker counts, ISAs.

TEST(CompileEquivalence, FloatBitwiseAcrossZooModels) {
  ExecConfigGuard guard;
  int total_relu_fused = 0;
  for (const std::string& name : zoo_model_names()) {
    ZooModel m = build_model(name, small_zoo_options());
    const CompiledNetwork cn = GraphCompiler().compile(m.net);
    total_relu_fused += cn.coverage().relu_fused;
    const Tensor x = random_input(2, m.channels, m.height, m.width, 77);
    for (KernelIsa isa : available_isas()) {
      set_kernel_isa(isa);
      for (int workers : {1, 0}) {
        set_parallel_worker_count(workers);
        const Tensor ref = m.net.forward(x);
        const Tensor got = cn.forward(x);
        expect_bitwise_equal(got, ref,
                             name + " isa=" + kernel_isa_name(isa) +
                                 " workers=" + std::to_string(workers));
      }
    }
  }
  EXPECT_GT(total_relu_fused, 0) << "no zoo model fused a ReLU: battery is vacuous";
}

TEST(CompileEquivalence, FloatBitwiseAcrossRandomBoundaryNets) {
  ExecConfigGuard guard;
  FusionCoverage total;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomNet r = make_random_net(seed);
    const CompiledNetwork cn = GraphCompiler().compile(r.net);
    total.relu_fused += cn.coverage().relu_fused;
    total.norm_folded += cn.coverage().norm_folded;
    total.noops_dropped += cn.coverage().noops_dropped;
    const Tensor x = random_input(3, r.channels, r.height, r.width, 1000 + seed);
    for (int workers : {1, 0}) {
      set_parallel_worker_count(workers);
      expect_bitwise_equal(cn.forward(x), r.net.forward(x),
                           "random net seed " + std::to_string(seed) + " workers=" +
                               std::to_string(workers));
    }
  }
  // The generator must have exercised every float-path fusion rule.
  EXPECT_GT(total.relu_fused, 0);
  EXPECT_GT(total.norm_folded, 0) << "no random net folded a norm: battery is vacuous";
  EXPECT_GT(total.noops_dropped, 0) << "no random net dropped a noop: battery is vacuous";
}

// ---------------------------------------------------------------------------
// Integer path, requantize elision OFF: the compiled program must be
// bitwise identical to the unfused compile (every rule off: one step per
// node) — every store is still a float dequant store, fused ReLU applies
// the same expression the separate ReLU layer would, and the operands
// come from the same lower_layer_operands. (fold_norm changes the folded
// weights' w_fmt, so it is disabled here to keep operands identical on
// nets with norms.)
TEST(CompileEquivalence, IntegerElisionOffMatchesUnfusedCompileBitwise) {
  ExecConfigGuard guard;
  CompileOptions co;
  co.weight_bits = 8;
  co.elide_requant = false;
  co.fold_norm = false;

  const auto check = [&](const Network& net, const std::vector<int>& analyzed,
                         const std::vector<FixedPointFormat>& formats, const Tensor& x,
                         const std::string& tag) {
    const CompiledNetwork cn = GraphCompiler(co).compile(net, analyzed, formats);
    const CompiledNetwork qn =
        GraphCompiler(CompileOptions::unfused(8)).compile(net, analyzed, formats);
    ASSERT_EQ(qn.coverage().steps, net.num_nodes()) << tag;
    for (KernelIsa isa : available_isas()) {
      set_kernel_isa(isa);
      for (int workers : {1, 0}) {
        set_parallel_worker_count(workers);
        expect_bitwise_equal(cn.forward(x), qn.forward(x),
                             tag + " isa=" + kernel_isa_name(isa) + " workers=" +
                                 std::to_string(workers));
      }
    }
  };

  for (const char* name : {"tiny", "nin"}) {
    ZooModel m = build_model(name, small_zoo_options());
    check(m.net, m.analyzed, mixed_formats(m.analyzed.size()),
          random_input(2, m.channels, m.height, m.width, 31), name);
  }
  for (std::uint64_t seed : {2, 5, 9}) {
    RandomNet r = make_random_net(seed);
    check(r.net, r.analyzed, mixed_formats(r.analyzed.size()),
          random_input(2, r.channels, r.height, r.width, 400 + seed),
          "random seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Integer path, elision ON: naive int64 reference per lowered step.

template <typename T>
void quantize_input(const Tensor& x, const QGrid& g, std::vector<T>* out) {
  out->resize(static_cast<std::size_t>(x.numel()));
  const double inv = 1.0 / g.step;
  const float* p = x.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    double q = std::nearbyint(static_cast<double>(p[i]) * inv);
    if (q > g.hi) q = g.hi;
    if (q < g.lo) q = g.lo;
    (*out)[static_cast<std::size_t>(i)] = static_cast<T>(static_cast<std::int32_t>(q));
  }
}

// Naive int64 accumulators for one lowered step from its (quantized)
// input — the ground truth both store modes are judged against.
template <typename T>
std::vector<std::int64_t> naive_accumulate(const CompiledStep& st, const std::vector<T>& xq,
                                           const Shape& in_shape, const Shape& out_shape) {
  const T* w = static_cast<const T*>(st.lw.weights_ptr());
  std::vector<std::int64_t> acc(static_cast<std::size_t>(out_shape.numel()), 0);
  if (st.layer->kind() == LayerKind::kConv) {
    const auto& cfg = static_cast<const Conv2DLayer&>(*st.layer).config();
    const int N = in_shape.n(), IC = in_shape.c(), H = in_shape.h(), W = in_shape.w();
    const int OC = out_shape.c(), OH = out_shape.h(), OW = out_shape.w();
    const int icg = IC / cfg.groups, ocg = OC / cfg.groups;
    for (int n = 0; n < N; ++n)
      for (int oc = 0; oc < OC; ++oc) {
        const int g = oc / ocg;
        for (int oh = 0; oh < OH; ++oh)
          for (int ow = 0; ow < OW; ++ow) {
            std::int64_t a = st.lw.bias.empty() ? 0 : st.lw.bias[static_cast<std::size_t>(oc)];
            for (int ic2 = 0; ic2 < icg; ++ic2) {
              const int ic = g * icg + ic2;
              for (int kh = 0; kh < cfg.kernel_h; ++kh) {
                const int ih = oh * cfg.stride - cfg.pad + kh;
                if (ih < 0 || ih >= H) continue;
                for (int kw = 0; kw < cfg.kernel_w; ++kw) {
                  const int iw = ow * cfg.stride - cfg.pad + kw;
                  if (iw < 0 || iw >= W) continue;
                  const std::int64_t xi = ((static_cast<std::int64_t>(n) * IC + ic) * H + ih) * W + iw;
                  const std::int64_t wi =
                      ((static_cast<std::int64_t>(oc) * icg + ic2) * cfg.kernel_h + kh) *
                          cfg.kernel_w + kw;
                  a += static_cast<std::int64_t>(xq[static_cast<std::size_t>(xi)]) *
                       static_cast<std::int64_t>(w[wi]);
                }
              }
            }
            acc[((static_cast<std::size_t>(n) * OC + oc) * OH + oh) * OW + ow] = a;
          }
      }
  } else {
    const auto& ip = static_cast<const InnerProductLayer&>(*st.layer);
    const int N = in_shape.n(), IF = ip.in_features(), OF = ip.out_features();
    for (int n = 0; n < N; ++n)
      for (int of = 0; of < OF; ++of) {
        std::int64_t a = st.lw.bias.empty() ? 0 : st.lw.bias[static_cast<std::size_t>(of)];
        for (int k = 0; k < IF; ++k)
          a += static_cast<std::int64_t>(xq[static_cast<std::size_t>(n) * IF + k]) *
               static_cast<std::int64_t>(w[static_cast<std::int64_t>(of) * IF + k]);
        acc[static_cast<std::size_t>(n) * OF + of] = a;
      }
  }
  return acc;
}

struct BoundaryStats {
  std::int64_t boundary_elems = 0;  // carrier elements checked at elided edges
  std::int64_t float_elems = 0;     // float store elements checked
  int quant_store_steps = 0;
};

template <typename T>
void verify_lowered_step(const CompiledNetwork& cn, int si, const std::vector<Tensor>& cap,
                         const Tensor& input, BoundaryStats* stats) {
  const CompiledStep& st = cn.steps()[static_cast<std::size_t>(si)];
  ASSERT_EQ(st.inputs.size(), 1u);
  const int pi = st.inputs[0];
  const CompiledStep& producer = cn.steps()[static_cast<std::size_t>(pi)];
  const Tensor& in_t = cap[static_cast<std::size_t>(pi)];
  const Tensor& out_t = cap[static_cast<std::size_t>(si)];

  const QGrid ag = qgrid_for(st.lw.act_fmt);
  const QGrid wg = qgrid_for(st.lw.w_fmt);
  const double acc_scale = ag.step * wg.step;
  const QGemmEpilogue& ep = st.binding.ep;

  std::vector<T> xq;
  if (st.binding.in_quantized) {
    // The producer stored carrier integers already on THIS step's grid.
    ASSERT_TRUE(producer.binding.ep.quant_store);
    const T* c = reinterpret_cast<const T*>(in_t.data());
    xq.assign(c, c + in_t.numel());
  } else {
    quantize_input<T>(in_t, ag, &xq);
  }
  (void)input;

  const std::vector<std::int64_t> acc = naive_accumulate<T>(st, xq, in_t.shape(), out_t.shape());

  if (ep.quant_store) {
    ++stats->quant_store_steps;
    // The consumer's activation grid, from the IR rather than the epilogue.
    const IrNode& node = cn.graph().nodes[static_cast<std::size_t>(st.src)];
    const QGrid store_grid =
        qgrid_for(cn.graph().nodes[static_cast<std::size_t>(node.quant_consumer)].act_fmt);
    ASSERT_EQ(ep.lo, store_grid.lo);
    ASSERT_EQ(ep.hi, store_grid.hi);
    const T* got = reinterpret_cast<const T*>(out_t.data());
    for (std::int64_t i = 0; i < out_t.numel(); ++i) {
      const std::int64_t a = acc[static_cast<std::size_t>(i)];
      // Exact contract: the kernel's carrier store IS apply_requant(acc).
      std::int32_t q = apply_requant(a, ep.requant);
      if (ep.relu && q < 0) q = 0;
      if (q > store_grid.hi) q = store_grid.hi;
      if (q < store_grid.lo) q = store_grid.lo;
      ASSERT_EQ(static_cast<std::int32_t>(got[i]), q)
          << "step " << si << " elem " << i << ": carrier store != requant(naive acc)";
      // One-step contract vs the unfused double rounding this elision
      // replaced: float dequant store, then quantize-on-load.
      float y = static_cast<float>(static_cast<double>(a) * acc_scale);
      if (ep.relu) y = y > 0.0f ? y : 0.0f;
      double qdd = std::nearbyint(static_cast<double>(y) / store_grid.step);
      if (qdd > store_grid.hi) qdd = store_grid.hi;
      if (qdd < store_grid.lo) qdd = store_grid.lo;
      ASSERT_LE(std::abs(q - static_cast<std::int32_t>(qdd)), 1)
          << "step " << si << " elem " << i
          << ": fused requantize more than one step from the unfused value";
      ++stats->boundary_elems;
    }
  } else {
    const float* got = out_t.data();
    for (std::int64_t i = 0; i < out_t.numel(); ++i) {
      float y = static_cast<float>(static_cast<double>(acc[static_cast<std::size_t>(i)]) *
                                   acc_scale);
      if (ep.relu) y = y > 0.0f ? y : 0.0f;
      ASSERT_EQ(got[i], y) << "step " << si << " elem " << i
                           << ": float dequant store != naive reference";
      ++stats->float_elems;
    }
  }
}

TEST(CompileEquivalence, ElidedBoundariesWithinOneQuantStep) {
  ExecConfigGuard guard;
  CompileOptions co;
  co.weight_bits = 8;
  BoundaryStats stats;

  const auto check_net = [&](const Network& net, const std::vector<int>& analyzed,
                             const std::vector<FixedPointFormat>& formats, const Tensor& x) {
    const CompiledNetwork cn = GraphCompiler(co).compile(net, analyzed, formats);
    std::vector<Tensor> cap;
    const Tensor out = cn.forward_captured(x, &cap);
    (void)out;
    for (int si = 0; si < static_cast<int>(cn.steps().size()); ++si) {
      const CompiledStep& st = cn.steps()[static_cast<std::size_t>(si)];
      if (!st.lowered) continue;
      switch (st.lw.type) {
        case QType::kInt8: verify_lowered_step<std::int8_t>(cn, si, cap, x, &stats); break;
        case QType::kInt16: verify_lowered_step<std::int16_t>(cn, si, cap, x, &stats); break;
        case QType::kInt32: verify_lowered_step<std::int32_t>(cn, si, cap, x, &stats); break;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  };

  {
    ZooModel m = build_model("tiny", small_zoo_options());
    check_net(m.net, m.analyzed, int8_formats(m.analyzed.size()),
              random_input(2, m.channels, m.height, m.width, 55));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  for (std::uint64_t seed : {1, 4, 7}) {
    RandomNet r = make_random_net(seed);
    const Tensor x = random_input(2, r.channels, r.height, r.width, 700 + seed);
    check_net(r.net, r.analyzed, int8_formats(r.analyzed.size()), x);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    check_net(r.net, r.analyzed, mixed_formats(r.analyzed.size()), x);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }

  // Vacuity: the battery must actually have crossed elided boundaries.
  EXPECT_GT(stats.quant_store_steps, 0) << "no requantized store was ever checked";
  EXPECT_GT(stats.boundary_elems, 0);
  EXPECT_GT(stats.float_elems, 0) << "no float dequant store was ever checked";
}

// ---------------------------------------------------------------------------
// Determinism of the fused integer forward: byte-identical across worker
// counts and across scalar vs the detected ISA (every dot-product step in
// these nets is lowered; interior layers are scalar elementwise code).
TEST(CompileEquivalence, CompiledIntegerForwardDeterministicAcrossWorkersAndIsa) {
  ExecConfigGuard guard;
  CompileOptions co;
  co.weight_bits = 8;
  for (std::uint64_t seed : {3, 8}) {
    RandomNet r = make_random_net(seed);
    const CompiledNetwork cn =
        GraphCompiler(co).compile(r.net, r.analyzed, int8_formats(r.analyzed.size()));
    const Tensor x = random_input(2, r.channels, r.height, r.width, 900 + seed);

    set_kernel_isa(KernelIsa::kScalar);
    set_parallel_worker_count(1);
    const Tensor ref = cn.forward(x);
    for (KernelIsa isa : available_isas()) {
      set_kernel_isa(isa);
      for (int workers : {1, 2, 0}) {
        set_parallel_worker_count(workers);
        expect_bitwise_equal(cn.forward(x), ref,
                             "seed " + std::to_string(seed) + " isa=" + kernel_isa_name(isa) +
                                 " workers=" + std::to_string(workers));
      }
    }
  }
}

}  // namespace
}  // namespace mupod
