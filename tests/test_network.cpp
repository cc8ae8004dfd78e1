#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>

#include "compile/compiled_network.hpp"
#include "compile/graph_compiler.hpp"
#include "compile_testlib.hpp"
#include "nn/layers.hpp"
#include "stats/rng.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

// A small diamond DAG: data -> conv1 -> {branch_a, branch_b} -> add -> relu.
Network make_diamond() {
  Network net("diamond");
  net.add_input("data", 2, 4, 4);
  Conv2DLayer::Config c1;
  c1.in_channels = 2;
  c1.out_channels = 4;
  c1.kernel_h = c1.kernel_w = 3;
  c1.pad = 1;
  net.add("conv1", std::make_unique<Conv2DLayer>(c1), std::vector<std::string>{"data"});
  Conv2DLayer::Config cb;
  cb.in_channels = 4;
  cb.out_channels = 4;
  cb.kernel_h = cb.kernel_w = 1;
  net.add("branch_a", std::make_unique<Conv2DLayer>(cb), std::vector<std::string>{"conv1"});
  net.add("branch_b", std::make_unique<Conv2DLayer>(cb), std::vector<std::string>{"conv1"});
  net.add("add", std::make_unique<EltwiseAddLayer>(),
          std::vector<std::string>{"branch_a", "branch_b"});
  net.add("relu", std::make_unique<ReLULayer>(), std::vector<std::string>{"add"});
  net.finalize();
  init_weights_he(net, 99);
  return net;
}

Tensor random_input(const Shape& s, std::uint64_t seed) {
  Tensor t(s);
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.gaussian());
  return t;
}

TEST(Network, BuildAndIntrospect) {
  Network net = make_diamond();
  EXPECT_EQ(net.num_nodes(), 6);
  EXPECT_EQ(net.input_node(), 0);
  EXPECT_EQ(net.output_node(), 5);
  EXPECT_EQ(net.node_id("conv1"), 1);
  EXPECT_EQ(net.node_id("missing"), -1);
  EXPECT_EQ(net.analyzable_nodes().size(), 3u);  // conv1, branch_a, branch_b
}

TEST(Network, RejectsDuplicateNames) {
  Network net;
  net.add_input("data", 1, 2, 2);
  EXPECT_THROW(net.add_input("data2", 1, 2, 2), std::logic_error);  // second input
  Conv2DLayer::Config c;
  c.in_channels = 1;
  c.out_channels = 1;
  c.kernel_h = c.kernel_w = 1;
  net.add("conv", std::make_unique<Conv2DLayer>(c), std::vector<std::string>{"data"});
  EXPECT_THROW(net.add("conv", std::make_unique<ReLULayer>(), std::vector<std::string>{"data"}),
               std::invalid_argument);
}

TEST(Network, RejectsUnknownInput) {
  Network net;
  net.add_input("data", 1, 2, 2);
  EXPECT_THROW(net.add("relu", std::make_unique<ReLULayer>(), std::vector<std::string>{"nope"}),
               std::invalid_argument);
}

TEST(Network, UnitShapesInferred) {
  Network net = make_diamond();
  EXPECT_EQ(net.node(net.node_id("conv1")).unit_shape, Shape({1, 4, 4, 4}));
  EXPECT_EQ(net.node(net.node_id("relu")).unit_shape, Shape({1, 4, 4, 4}));
}

TEST(Network, CostsPopulated) {
  Network net = make_diamond();
  const auto& conv1 = net.node(net.node_id("conv1"));
  EXPECT_EQ(conv1.cost.input_elems, 2 * 4 * 4);
  EXPECT_EQ(conv1.cost.macs, 4LL * 4 * 4 * 2 * 3 * 3);
  EXPECT_EQ(net.total_macs(),
            conv1.cost.macs + 2 * net.node(net.node_id("branch_a")).cost.macs);
}

TEST(Network, ForwardShapes) {
  Network net = make_diamond();
  const Tensor x = random_input(Shape({3, 2, 4, 4}), 1);
  const Tensor y = net.forward(x);
  EXPECT_EQ(y.shape(), Shape({3, 4, 4, 4}));
}

TEST(Network, ForwardDeterministic) {
  Network net = make_diamond();
  const Tensor x = random_input(Shape({2, 2, 4, 4}), 2);
  const Tensor a = net.forward(x);
  const Tensor b = net.forward(x);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.0);
}

TEST(Network, ForwardAllMatchesForward) {
  Network net = make_diamond();
  const Tensor x = random_input(Shape({2, 2, 4, 4}), 3);
  const Tensor y = net.forward(x);
  const std::vector<Tensor> acts = net.forward_all(x);
  EXPECT_DOUBLE_EQ(max_abs_diff(acts[static_cast<std::size_t>(net.output_node())], y), 0.0);
  // Input is materialized in the cache.
  EXPECT_DOUBLE_EQ(max_abs_diff(acts[0], x), 0.0);
}

TEST(Network, ForwardFromIdentityWithoutInjection) {
  Network net = make_diamond();
  const Tensor x = random_input(Shape({2, 2, 4, 4}), 4);
  const std::vector<Tensor> acts = net.forward_all(x);
  for (int k = 0; k < net.num_nodes(); ++k) {
    const Tensor y = net.forward_from(k, acts);
    EXPECT_NEAR(max_abs_diff(y, acts[static_cast<std::size_t>(net.output_node())]), 0.0, 1e-6)
        << "node " << k;
  }
}

TEST(Network, ForwardFromMatchesFullForwardWithInjection) {
  Network net = make_diamond();
  const Tensor x = random_input(Shape({2, 2, 4, 4}), 5);
  const std::vector<Tensor> acts = net.forward_all(x);

  const int target = net.node_id("branch_a");
  std::unordered_map<int, InjectionSpec> inject;
  inject.emplace(target, InjectionSpec::uniform(0.05));
  ForwardOptions opts;
  opts.inject = &inject;
  opts.seed = 42;

  const Tensor full = net.forward(x, opts);
  const Tensor partial = net.forward_from(target, acts, opts);
  EXPECT_NEAR(max_abs_diff(full, partial), 0.0, 1e-6);
}

TEST(Network, UpdateFromRecomputesDownstreamOnly) {
  Network net = make_diamond();
  const Tensor x = random_input(Shape({1, 2, 4, 4}), 6);
  std::vector<Tensor> acts = net.forward_all(x);

  // Scale branch_a weights and update in place.
  const int target = net.node_id("branch_a");
  *net.layer(target).mutable_weights() *= 2.0f;
  std::vector<Tensor> fresh = net.forward_all(x);
  net.update_from(target, acts);
  for (int k = 0; k < net.num_nodes(); ++k) {
    EXPECT_NEAR(max_abs_diff(acts[static_cast<std::size_t>(k)], fresh[static_cast<std::size_t>(k)]),
                0.0, 1e-6)
        << "node " << k;
  }
}

TEST(Network, ProfileInputRanges) {
  Network net = make_diamond();
  const Tensor x = random_input(Shape({2, 2, 4, 4}), 7);
  const std::vector<double> ranges = net.profile_input_ranges(x);
  // conv1's input is the raw data tensor.
  EXPECT_DOUBLE_EQ(ranges[static_cast<std::size_t>(net.node_id("conv1"))],
                   static_cast<double>(x.max_abs()));
  for (int id : net.analyzable_nodes()) EXPECT_GT(ranges[static_cast<std::size_t>(id)], 0.0);
}

TEST(Network, WeightSnapshotRestores) {
  Network net = make_diamond();
  const Tensor x = random_input(Shape({1, 2, 4, 4}), 8);
  const Tensor before = net.forward(x);

  const Network::WeightSnapshot snap = net.snapshot_weights();
  net.quantize_weights_uniform(3);
  const Tensor coarse = net.forward(x);
  EXPECT_GT(max_abs_diff(before, coarse), 0.0);

  net.restore_weights(snap);
  const Tensor after = net.forward(x);
  EXPECT_DOUBLE_EQ(max_abs_diff(before, after), 0.0);
}

TEST(Network, QuantizeWeightsReducesPrecisionMonotonically) {
  const Tensor x = random_input(Shape({2, 2, 4, 4}), 9);
  Network net = make_diamond();
  const Tensor exact = net.forward(x);
  const Network::WeightSnapshot snap = net.snapshot_weights();

  double prev_err = 0.0;
  for (int bits : {12, 8, 5, 3}) {
    net.quantize_weights_uniform(bits);
    const double err = max_abs_diff(exact, net.forward(x));
    net.restore_weights(snap);
    // Fewer weight bits -> larger forward error (weakly monotone).
    EXPECT_GE(err, prev_err * 0.5) << bits;
    prev_err = err;
  }
  EXPECT_GT(prev_err, 0.0);
}

TEST(Network, FinalizeRequiredBeforeUse) {
  Network net;
  net.add_input("data", 1, 2, 2);
  EXPECT_THROW(net.finalize(), std::logic_error);  // single-node network
}

// ---------------------------------------------------------------------------
// Forward arena. forward / forward_from run in a per-thread grow-only
// arena; these tests pin them bitwise to the fresh-allocation executor they
// replaced, across the reuse patterns that could leak state between calls.
// Compiled into the `sanitize`-labeled binary, so the TSan lane of
// scripts/run_sanitized_tests.sh runs the 4-thread case with real pool
// interleavings.

// The fresh-allocation reference: every node output is a new zero-filled
// tensor, injected inputs are fresh copies.
Tensor reference_forward(const Network& net, const Tensor& input, const ForwardOptions& opts = {}) {
  std::vector<Tensor> outs(static_cast<std::size_t>(net.num_nodes()));
  for (int id = 0; id < net.num_nodes(); ++id) {
    const Network::Node& n = net.node(id);
    if (n.layer->kind() == LayerKind::kInput) {
      outs[static_cast<std::size_t>(id)] = input;
      continue;
    }
    std::vector<const Tensor*> ins;
    for (int in : n.inputs) ins.push_back(&outs[static_cast<std::size_t>(in)]);
    Tensor perturbed;
    if (opts.inject != nullptr) {
      auto it = opts.inject->find(id);
      if (it != opts.inject->end()) {
        perturbed = *ins[0];
        apply_injection(perturbed, it->second, opts.seed, id);
        ins[0] = &perturbed;
      }
    }
    std::vector<Shape> shapes;
    for (const Tensor* t : ins) shapes.push_back(t->shape());
    Tensor out(n.layer->output_shape(shapes));
    n.layer->forward(ins, out);
    outs[static_cast<std::size_t>(id)] = std::move(out);
  }
  return outs[static_cast<std::size_t>(net.output_node())];
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

ZooModel small_tiny_cnn() {
  ZooOptions zo;
  zo.calibration_images = 4;
  zo.head_images = 0;
  return build_tiny_cnn(zo);
}

// One network's expected outputs for a fixed schedule of calls: a plain
// forward and a noisy forward_from at every analyzable node, per batch size.
struct ArenaCase {
  const Network* net;
  int batch;
  Tensor input;
  std::vector<Tensor> cache;
  std::vector<std::unordered_map<int, InjectionSpec>> injects;  // one per analyzable node
  Tensor plain;
  std::vector<Tensor> injected;  // reference for forward_from(node, cache, inject)
};

ArenaCase make_arena_case(const Network& net, int batch, std::uint64_t seed) {
  ArenaCase c;
  c.net = &net;
  c.batch = batch;
  const Shape unit = net.node(net.input_node()).unit_shape;
  c.input = random_input(unit.with_dim(0, batch), seed);
  c.cache = net.forward_all(c.input);
  c.plain = reference_forward(net, c.input);
  for (int id : net.analyzable_nodes()) {
    std::unordered_map<int, InjectionSpec> inj;
    inj.emplace(id, InjectionSpec::uniform(0.05));
    c.injects.push_back(std::move(inj));
  }
  for (const auto& inj : c.injects) {
    ForwardOptions opts;
    opts.inject = &inj;
    opts.seed = seed;
    c.injected.push_back(reference_forward(net, c.input, opts));
  }
  return c;
}

// Runs the case's schedule through the arena-backed entry points; returns
// the number of outputs that differ from the reference.
int run_arena_case(const ArenaCase& c, std::uint64_t seed) {
  int mismatches = 0;
  if (!bitwise_equal(c.net->forward(c.input), c.plain)) ++mismatches;
  for (std::size_t i = 0; i < c.injects.size(); ++i) {
    ForwardOptions opts;
    opts.inject = &c.injects[i];
    opts.seed = seed;
    const int node = c.injects[i].begin()->first;
    if (!bitwise_equal(c.net->forward_from(node, c.cache, opts), c.injected[i])) ++mismatches;
    if (!bitwise_equal(c.net->forward(c.input, opts), c.injected[i])) ++mismatches;
  }
  return mismatches;
}

TEST(ForwardArena, ChangingBatchSizesMatchFreshAllocation) {
  const ZooModel model = small_tiny_cnn();
  // Grow, shrink, regrow: a stale tail or a skipped resize would show.
  for (int batch : {3, 1, 5, 2, 5, 1}) {
    const ArenaCase c = make_arena_case(model.net, batch, 100 + static_cast<std::uint64_t>(batch));
    EXPECT_EQ(run_arena_case(c, 100 + static_cast<std::uint64_t>(batch)), 0) << "batch " << batch;
  }
}

TEST(ForwardArena, InterleavedNetworksOnOneThread) {
  const ZooModel model = small_tiny_cnn();
  const Network diamond = make_diamond();
  const ArenaCase a = make_arena_case(model.net, 4, 7);
  const ArenaCase b = make_arena_case(diamond, 3, 8);
  const ArenaCase a1 = make_arena_case(model.net, 1, 9);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(run_arena_case(a, 7), 0) << "round " << round;
    EXPECT_EQ(run_arena_case(b, 8), 0) << "round " << round;
    EXPECT_EQ(run_arena_case(a1, 9), 0) << "round " << round;
  }
}

TEST(ForwardArena, FourThreadsAtOnce) {
  const ZooModel model = small_tiny_cnn();
  const Network diamond = make_diamond();
  std::vector<ArenaCase> cases;
  cases.push_back(make_arena_case(model.net, 4, 11));
  cases.push_back(make_arena_case(diamond, 2, 12));
  cases.push_back(make_arena_case(model.net, 1, 13));
  cases.push_back(make_arena_case(diamond, 5, 14));
  const std::uint64_t seeds[] = {11, 12, 13, 14};

  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks all cases from a different start, so every
      // thread's arena sees both networks and several batch sizes.
      for (int round = 0; round < 3; ++round)
        for (int i = 0; i < 4; ++i) {
          const int k = (t + i) % 4;
          mismatches[static_cast<std::size_t>(t)] +=
              run_arena_case(cases[static_cast<std::size_t>(k)], seeds[k]);
        }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
}

// Compiled forwards (compile/) run in the same per-thread arena as
// Network::forward. A schedule that interleaves the three executors at
// changing batch sizes must reproduce, bit for bit, what each produces
// with nothing reused.
struct MixedArenaCase {
  Tensor input;
  Tensor plain;          // Network::forward, fresh allocation
  Tensor compiled_f32;   // compiled float program, fresh arena
  Tensor compiled_int8;  // fused int8 program, fresh arena
};

struct MixedArenaFixture {
  // A random net with norms, branches and noops; its int8 compile has
  // fused regions, so carrier tensors pass through the arena slots.
  compiletest::RandomNet model = compiletest::make_random_net(3);
  CompiledNetwork cfloat;
  CompiledNetwork cint8;
  std::vector<MixedArenaCase> cases;  // one per batch of the schedule
};

const MixedArenaFixture& mixed_arena_fixture() {
  static const MixedArenaFixture* f = [] {
    auto* fx = new MixedArenaFixture();
    fx->cfloat = GraphCompiler().compile(fx->model.net);
    CompileOptions co;
    co.weight_bits = 8;
    fx->cint8 = GraphCompiler(co).compile(fx->model.net, fx->model.analyzed,
                                          compiletest::int8_formats(fx->model.analyzed.size()));
    const Shape unit = fx->model.net.node(fx->model.net.input_node()).unit_shape;
    for (int batch : {3, 1, 5, 2, 5, 1}) {
      MixedArenaCase c;
      c.input = random_input(unit.with_dim(0, batch), 200 + static_cast<std::uint64_t>(batch));
      c.plain = reference_forward(fx->model.net, c.input);
      // A new thread starts with an empty arena: every slot is freshly
      // allocated for these reference runs.
      std::thread([&] {
        c.compiled_f32 = fx->cfloat.forward(c.input);
        c.compiled_int8 = fx->cint8.forward(c.input);
      }).join();
      fx->cases.push_back(std::move(c));
    }
    return fx;
  }();
  return *f;
}

// Walks the batch schedule from `start`, alternating the executor order
// per case; returns the number of outputs that differ from the fresh runs.
int run_mixed_schedule(const MixedArenaFixture& f, std::size_t start) {
  int mismatches = 0;
  const std::size_t n = f.cases.size();
  for (std::size_t i = 0; i < n; ++i) {
    const MixedArenaCase& c = f.cases[(start + i) % n];
    if (i % 2 == 0) {
      if (!bitwise_equal(f.cint8.forward(c.input), c.compiled_int8)) ++mismatches;
      if (!bitwise_equal(f.model.net.forward(c.input), c.plain)) ++mismatches;
      if (!bitwise_equal(f.cfloat.forward(c.input), c.compiled_f32)) ++mismatches;
    } else {
      if (!bitwise_equal(f.cfloat.forward(c.input), c.compiled_f32)) ++mismatches;
      if (!bitwise_equal(f.cint8.forward(c.input), c.compiled_int8)) ++mismatches;
      if (!bitwise_equal(f.model.net.forward(c.input), c.plain)) ++mismatches;
    }
  }
  return mismatches;
}

TEST(ForwardArena, CompiledAndNetworkForwardsInterleavedOnOneThread) {
  const MixedArenaFixture& f = mixed_arena_fixture();
  ASSERT_GT(f.cint8.coverage().qdq_elided, 0) << "no carrier tensors: the int8 leg is vacuous";
  for (const MixedArenaCase& c : f.cases)
    EXPECT_TRUE(bitwise_equal(c.compiled_f32, c.plain)) << "compiled float != Network::forward";
  for (int round = 0; round < 2; ++round)
    EXPECT_EQ(run_mixed_schedule(f, 0), 0) << "round " << round;
}

TEST(ForwardArena, CompiledAndNetworkForwardsInterleavedOnFourThreads) {
  const MixedArenaFixture& f = mixed_arena_fixture();
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round)
        mismatches[static_cast<std::size_t>(t)] +=
            run_mixed_schedule(f, static_cast<std::size_t>(t));
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
}

TEST(ForwardArena, UpdateFromMatchesFreshForwardAll) {
  Network net = make_diamond();
  const Tensor x = random_input(Shape({3, 2, 4, 4}), 15);
  std::vector<Tensor> acts = net.forward_all(x);
  const int target = net.node_id("branch_b");
  *net.layer(target).mutable_weights() *= 0.5f;
  net.update_from(target, acts);
  const std::vector<Tensor> fresh = net.forward_all(x);
  for (int k = 0; k < net.num_nodes(); ++k)
    EXPECT_TRUE(bitwise_equal(acts[static_cast<std::size_t>(k)], fresh[static_cast<std::size_t>(k)]))
        << "node " << k;
}

}  // namespace
}  // namespace mupod
