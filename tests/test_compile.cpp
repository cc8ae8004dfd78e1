// Graph-compiler structural battery: metamorphic/property tests over the
// rewriter plus the golden fusion-coverage report.
//
//   * Idempotence / fixpoint: running the structural rule set again (a
//     doubled rule order) emits the identical graph — the fixpoint is
//     genuine, not an artifact of iteration count.
//   * Rule-order invariance: all six permutations of {drop-noop,
//     fold-norm, fuse-relu} emit the identical graph (the rule set is
//     confluent by construction; this is the check that keeps it so).
//   * Guard unit tests: hand-built networks at each fusible/non-fusible
//     boundary — multi-consumer producers, conv->ReLU->BN ordering,
//     flatten before non-FC consumers, mixed-precision region splits.
//   * Golden coverage: per-zoo-model fusion report
//     (tests/golden/fusion_coverage.txt), regenerated with
//     --update-golden / MUPOD_UPDATE_GOLDEN=1 exactly like
//     plan_conformance. Counts are pure graph structure: independent of
//     worker count, ISA, and rule order, so the comparison is exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "compile/compiled_network.hpp"
#include "compile/graph_compiler.hpp"
#include "compile_testlib.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

using compiletest::RandomNet;
using compiletest::init_layer;
using compiletest::init_norm;
using compiletest::int8_formats;
using compiletest::make_random_net;
using compiletest::mixed_formats;

bool g_update_golden = false;

#ifndef MUPOD_SOURCE_DIR
#error "tests/CMakeLists.txt must define MUPOD_SOURCE_DIR"
#endif

std::string golden_path() {
  return std::string(MUPOD_SOURCE_DIR) + "/tests/golden/fusion_coverage.txt";
}

ZooOptions small_zoo_options() {
  ZooOptions zo;
  zo.num_classes = 10;
  zo.seed = 404;
  zo.data_seed = 8;
  zo.calibration_images = 4;
  return zo;
}

constexpr RewriteRule kAllRules[] = {RewriteRule::kDropNoop, RewriteRule::kFoldNorm,
                                     RewriteRule::kFuseReLU};

// ---------------------------------------------------------------------------
// Metamorphic: fixpoint + rule-order invariance.

TEST(Compile, RewriteIsDeterministicAndIdempotent) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomNet r = make_random_net(seed);
    const auto formats = mixed_formats(r.analyzed.size());
    GraphCompiler gc;
    const CompiledGraph once = gc.rewrite(r.net, r.analyzed, formats);
    const CompiledGraph again = gc.rewrite(r.net, r.analyzed, formats);
    EXPECT_EQ(once, again) << "seed " << seed << ": rewrite not deterministic";

    // Doubling the rule order runs the whole fixpoint twice; a true
    // fixpoint emits the same graph (compile(compile(g)) == compile(g)).
    const RewriteRule doubled[] = {RewriteRule::kDropNoop, RewriteRule::kFoldNorm,
                                   RewriteRule::kFuseReLU, RewriteRule::kDropNoop,
                                   RewriteRule::kFoldNorm, RewriteRule::kFuseReLU};
    const CompiledGraph twice = gc.rewrite_with_order(r.net, r.analyzed, formats, doubled);
    EXPECT_EQ(once, twice) << "seed " << seed << ": rule fixpoint is not idempotent";
  }
}

TEST(Compile, RuleOrderDoesNotChangeEmittedGraph) {
  std::vector<RewriteRule> order(kAllRules, kAllRules + 3);
  std::sort(order.begin(), order.end(),
            [](RewriteRule a, RewriteRule b) { return static_cast<int>(a) < static_cast<int>(b); });
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomNet r = make_random_net(seed);
    const auto formats = mixed_formats(r.analyzed.size());
    GraphCompiler gc;
    const CompiledGraph ref = gc.rewrite(r.net, r.analyzed, formats);
    std::vector<RewriteRule> perm = order;
    do {
      const CompiledGraph g = gc.rewrite_with_order(r.net, r.analyzed, formats, perm);
      EXPECT_EQ(ref, g) << "seed " << seed << ": rule order changed the emitted graph";
    } while (std::next_permutation(perm.begin(), perm.end(),
                                   [](RewriteRule a, RewriteRule b) {
                                     return static_cast<int>(a) < static_cast<int>(b);
                                   }));
  }
}

TEST(Compile, RuleOrderInvarianceHoldsOnZooModels) {
  for (const char* name : {"tiny", "nin", "mobilenet"}) {
    ZooModel m = build_model(name, small_zoo_options());
    const auto formats = mixed_formats(m.analyzed.size());
    GraphCompiler gc;
    const CompiledGraph ref = gc.rewrite(m.net, m.analyzed, formats);
    std::vector<RewriteRule> perm(kAllRules, kAllRules + 3);
    std::sort(perm.begin(), perm.end(), [](RewriteRule a, RewriteRule b) {
      return static_cast<int>(a) < static_cast<int>(b);
    });
    do {
      EXPECT_EQ(ref, gc.rewrite_with_order(m.net, m.analyzed, formats, perm)) << name;
    } while (std::next_permutation(perm.begin(), perm.end(),
                                   [](RewriteRule a, RewriteRule b) {
                                     return static_cast<int>(a) < static_cast<int>(b);
                                   }));
  }
}

// ---------------------------------------------------------------------------
// Guard unit tests on hand-built boundary networks.

TEST(Compile, ConvNormReluChainFusesIntoOneStep) {
  Rng rng(7);
  Network net("chain");
  const int in = net.add_input("in", 3, 6, 6);
  Conv2DLayer::Config cc;
  cc.in_channels = 3;
  cc.out_channels = 4;
  cc.pad = 1;
  const int conv = net.add("conv", std::make_unique<Conv2DLayer>(cc), std::vector<int>{in});
  init_layer(&net, conv, &rng);
  const int bn =
      net.add("bn", std::make_unique<BatchNormScaleLayer>(4), std::vector<int>{conv});
  init_norm(&net, bn, &rng);
  const int relu = net.add("relu", std::make_unique<ReLULayer>(), std::vector<int>{bn});
  net.finalize();

  const CompiledGraph g = GraphCompiler().rewrite(net);
  EXPECT_EQ(g.coverage.steps, 2);  // input + fused conv
  EXPECT_EQ(g.coverage.norm_folded, 1);
  EXPECT_EQ(g.coverage.relu_fused, 1);
  EXPECT_TRUE(g.nodes[conv].relu_fused);
  EXPECT_EQ(g.nodes[conv].norm_src, bn);
  EXPECT_EQ(g.resolve(relu), conv);
}

TEST(Compile, ConvReluNormKeepsNormSeparate) {
  // conv -> ReLU -> BN: the store epilogue applies norm THEN relu, so
  // folding here would reorder; the BN must stay its own step.
  Rng rng(7);
  Network net("rbn");
  const int in = net.add_input("in", 3, 6, 6);
  Conv2DLayer::Config cc;
  cc.in_channels = 3;
  cc.out_channels = 4;
  cc.pad = 1;
  const int conv = net.add("conv", std::make_unique<Conv2DLayer>(cc), std::vector<int>{in});
  init_layer(&net, conv, &rng);
  const int relu = net.add("relu", std::make_unique<ReLULayer>(), std::vector<int>{conv});
  const int bn = net.add("bn", std::make_unique<BatchNormScaleLayer>(4), std::vector<int>{relu});
  init_norm(&net, bn, &rng);
  net.finalize();

  const CompiledGraph g = GraphCompiler().rewrite(net);
  EXPECT_TRUE(g.nodes[conv].relu_fused);
  EXPECT_EQ(g.nodes[conv].norm_src, -1);
  EXPECT_EQ(g.coverage.norm_folded, 0);
  EXPECT_LT(g.nodes[bn].absorbed_into, 0) << "BN across a fused ReLU must keep executing";
}

TEST(Compile, MultiConsumerConvKeepsNormSeparate) {
  // conv feeds BOTH a BN and an eltwise add: folding the BN into the
  // conv's operands would change what the add reads, so it stays a step.
  Rng rng(8);
  Network net("nbranch");
  const int in = net.add_input("in", 3, 6, 6);
  Conv2DLayer::Config cc;
  cc.in_channels = 3;
  cc.out_channels = 4;
  cc.pad = 1;
  const int conv = net.add("conv", std::make_unique<Conv2DLayer>(cc), std::vector<int>{in});
  init_layer(&net, conv, &rng);
  const int bn = net.add("bn", std::make_unique<BatchNormScaleLayer>(4), std::vector<int>{conv});
  init_norm(&net, bn, &rng);
  net.add("add", std::make_unique<EltwiseAddLayer>(), std::vector<int>{bn, conv});
  net.finalize();

  const CompiledGraph g = GraphCompiler().rewrite(net);
  EXPECT_EQ(g.nodes[conv].norm_src, -1);
  EXPECT_EQ(g.coverage.norm_folded, 0);
  EXPECT_LT(g.nodes[bn].absorbed_into, 0) << "BN on a two-consumer conv must keep executing";
}

TEST(Compile, MultiConsumerProducerBlocksFusionAndElision) {
  // conv0 feeds BOTH a ReLU and a second conv: nothing may absorb into
  // conv0, and with a plan its store must stay float (two readers).
  Rng rng(9);
  Network net("branch");
  const int in = net.add_input("in", 3, 6, 6);
  Conv2DLayer::Config cc;
  cc.in_channels = 3;
  cc.out_channels = 4;
  cc.pad = 1;
  const int c0 = net.add("c0", std::make_unique<Conv2DLayer>(cc), std::vector<int>{in});
  init_layer(&net, c0, &rng);
  const int relu = net.add("relu", std::make_unique<ReLULayer>(), std::vector<int>{c0});
  Conv2DLayer::Config c2;
  c2.in_channels = 4;
  c2.out_channels = 4;
  c2.pad = 1;
  const int c1 = net.add("c1", std::make_unique<Conv2DLayer>(c2), std::vector<int>{c0});
  init_layer(&net, c1, &rng);
  const int c1r = net.add("c1relu", std::make_unique<ReLULayer>(), std::vector<int>{c1});
  const int add =
      net.add("add", std::make_unique<EltwiseAddLayer>(), std::vector<int>{relu, c1r});
  net.finalize();
  (void)add;

  const std::vector<int> analyzed = {c0, c1};
  const CompiledGraph g =
      GraphCompiler().rewrite(net, analyzed, int8_formats(analyzed.size()));
  EXPECT_FALSE(g.nodes[c0].relu_fused) << "ReLU on a two-consumer producer must not fuse";
  EXPECT_LT(g.nodes[relu].absorbed_into, 0) << "that ReLU must keep executing";
  EXPECT_TRUE(g.nodes[c1].relu_fused) << "single-consumer sibling still fuses";
  EXPECT_FALSE(g.nodes[c0].quant_store) << "two readers: no cross-layer requantize";
}

TEST(Compile, NoopDropGuards) {
  Rng rng(11);
  // dropout always drops, including as the output node; flatten drops
  // only when all its live consumers are inner products.
  Network net("noops");
  const int in = net.add_input("in", 2, 4, 4);
  Conv2DLayer::Config cc;
  cc.in_channels = 2;
  cc.out_channels = 2;
  cc.kernel_h = cc.kernel_w = 1;
  const int conv = net.add("conv", std::make_unique<Conv2DLayer>(cc), std::vector<int>{in});
  init_layer(&net, conv, &rng);
  const int drop = net.add("drop", std::make_unique<DropoutLayer>(), std::vector<int>{conv});
  const int flat = net.add("flat", std::make_unique<FlattenLayer>(), std::vector<int>{drop});
  const int fc = net.add("fc", std::make_unique<InnerProductLayer>(2 * 4 * 4, 3),
                         std::vector<int>{flat});
  init_layer(&net, fc, &rng);
  const int dropout_out =
      net.add("drop_out", std::make_unique<DropoutLayer>(), std::vector<int>{fc});
  net.finalize();

  const CompiledGraph g = GraphCompiler().rewrite(net);
  EXPECT_GE(g.nodes[drop].absorbed_into, 0);
  EXPECT_GE(g.nodes[flat].absorbed_into, 0) << "flatten before FC is a noop";
  EXPECT_GE(g.nodes[dropout_out].absorbed_into, 0) << "dropout as output node still drops";
  EXPECT_EQ(g.resolve(dropout_out), fc);
  EXPECT_EQ(g.coverage.noops_dropped, 3);

  // Flatten whose consumer is NOT an inner product stays.
  Network net2("keepflat");
  const int in2 = net2.add_input("in", 2, 4, 4);
  const int flat2 = net2.add("flat", std::make_unique<FlattenLayer>(), std::vector<int>{in2});
  net2.finalize();
  const CompiledGraph g2 = GraphCompiler().rewrite(net2);
  EXPECT_LT(g2.nodes[flat2].absorbed_into, 0)
      << "flatten that produces the observed output shape must keep executing";
}

TEST(Compile, MixedPrecisionSplitsRegionsAtTypeBoundaries) {
  // Three chained convs, the middle one lowered to int16: the int8->int16
  // and int16->int8 edges must NOT elide, leaving zero fused regions.
  Rng rng(13);
  Network net("mixed");
  int cur = net.add_input("in", 3, 6, 6);
  std::vector<int> convs;
  for (int i = 0; i < 3; ++i) {
    Conv2DLayer::Config cc;
    cc.in_channels = i == 0 ? 3 : 4;
    cc.out_channels = 4;
    cc.pad = 1;
    cur = net.add("conv" + std::to_string(i), std::make_unique<Conv2DLayer>(cc),
                  std::vector<int>{cur});
    init_layer(&net, cur, &rng);
    convs.push_back(cur);
  }
  net.finalize();

  const std::vector<FixedPointFormat> split = {{2, 5}, {2, 12}, {2, 5}};
  CompileOptions co;
  co.weight_bits = 8;
  const CompiledGraph g = GraphCompiler(co).rewrite(net, convs, split);
  EXPECT_EQ(g.nodes[convs[0]].type, QType::kInt8);
  EXPECT_EQ(g.nodes[convs[1]].type, QType::kInt16);
  EXPECT_EQ(g.coverage.qdq_elided, 0) << "type boundary must not requantize-elide";
  EXPECT_EQ(g.coverage.regions, 0);

  // Same chain, homogeneous formats: one region spanning all three convs.
  const CompiledGraph h = GraphCompiler(co).rewrite(net, convs, int8_formats(3));
  EXPECT_EQ(h.coverage.qdq_elided, 2);
  EXPECT_EQ(h.coverage.regions, 1);
  EXPECT_EQ(h.coverage.largest_region, 3);
  EXPECT_TRUE(h.nodes[convs[0]].quant_store);
  EXPECT_TRUE(h.nodes[convs[1]].in_quantized);
  EXPECT_TRUE(h.nodes[convs[2]].in_quantized);
  EXPECT_FALSE(h.nodes[convs[2]].quant_store) << "region tail stores dequantized floats";
}

TEST(Compile, CompiledNetworkStepMappingIsConsistent) {
  for (std::uint64_t seed : {3u, 6u}) {
    RandomNet r = make_random_net(seed);
    CompileOptions co;
    co.weight_bits = 8;
    const CompiledNetwork cn =
        GraphCompiler(co).compile(r.net, r.analyzed, int8_formats(r.analyzed.size()));
    const CompiledGraph& g = cn.graph();
    int executing = 0;
    for (int id = 0; id < r.net.num_nodes(); ++id) {
      if (g.nodes[static_cast<std::size_t>(id)].absorbed_into >= 0) {
        EXPECT_EQ(cn.step_of_src(id), -1);
      } else {
        const int si = cn.step_of_src(id);
        ASSERT_GE(si, 0);
        EXPECT_EQ(cn.steps()[static_cast<std::size_t>(si)].src, id);
        ++executing;
      }
    }
    EXPECT_EQ(executing, static_cast<int>(cn.steps().size()));
    EXPECT_EQ(cn.steps()[static_cast<std::size_t>(cn.output_step())].src,
              g.resolve(r.net.output_node()));
    EXPECT_EQ(g.coverage.steps, executing);
  }
}

// ---------------------------------------------------------------------------
// Vacuity guard: across the generator's seed sweep plus the zoo, every
// rewrite rule and the region former fired at least once, and every
// non-fusible guard was exercised (some ReLU/norm/flatten survived).
TEST(Compile, VacuityGuardEveryRuleFires) {
  FusionCoverage total;
  int kept_relu = 0, kept_norm = 0, kept_flatten = 0;
  CompileOptions co;
  co.weight_bits = 8;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomNet r = make_random_net(seed);
    const CompiledGraph g =
        GraphCompiler(co).rewrite(r.net, r.analyzed, int8_formats(r.analyzed.size()));
    total.relu_fused += g.coverage.relu_fused;
    total.norm_folded += g.coverage.norm_folded;
    total.noops_dropped += g.coverage.noops_dropped;
    total.qdq_elided += g.coverage.qdq_elided;
    total.regions += g.coverage.regions;
    total.largest_region = std::max(total.largest_region, g.coverage.largest_region);
    for (const IrNode& n : g.nodes) {
      if (n.absorbed_into >= 0) continue;
      if (n.kind == LayerKind::kReLU) ++kept_relu;
      if (n.kind == LayerKind::kBatchNormScale) ++kept_norm;
      if (n.kind == LayerKind::kFlatten) ++kept_flatten;
    }
  }
  EXPECT_GT(total.relu_fused, 0) << "fuse-relu never fired: battery is vacuous";
  EXPECT_GT(total.norm_folded, 0) << "fold-norm never fired: battery is vacuous";
  EXPECT_GT(total.noops_dropped, 0) << "drop-noop never fired: battery is vacuous";
  EXPECT_GT(total.qdq_elided, 0) << "requantize elision never fired: battery is vacuous";
  EXPECT_GT(total.regions, 0);
  EXPECT_GE(total.largest_region, 2);
  EXPECT_GT(kept_relu, 0) << "generator never produced a non-fusible ReLU";
  EXPECT_GT(kept_norm, 0) << "generator never produced a non-foldable norm";
}

// ---------------------------------------------------------------------------
// Golden fusion-coverage report, one float and one int8-plan line per zoo
// model. Update flow identical to plan_conformance:
//   ./mupod_compile_tests --update-golden   (or MUPOD_UPDATE_GOLDEN=1)
TEST(Compile, FusionCoverageMatchesGolden) {
  std::ostringstream all;
  CompileOptions co8;
  co8.weight_bits = 8;
  int total_elided = 0, max_region = 0;
  for (const std::string& name : zoo_model_names()) {
    ZooModel m = build_model(name, small_zoo_options());
    const CompiledGraph gf = GraphCompiler().rewrite(m.net);
    all << render_fusion_coverage(name + " float:", gf.coverage) << '\n';
    const CompiledGraph gi =
        GraphCompiler(co8).rewrite(m.net, m.analyzed, int8_formats(m.analyzed.size()));
    all << render_fusion_coverage(name + " int8:", gi.coverage) << '\n';

    // Committed floor, independent of the golden: every zoo model has at
    // least one fusible ReLU. Elision is aggregated: branch-everywhere
    // topologies (SqueezeNet fire modules: every conv output feeds two
    // expand convs or a concat) legitimately have no single-consumer
    // integer edge to elide.
    EXPECT_GT(gf.coverage.relu_fused, 0) << name;
    total_elided += gi.coverage.qdq_elided;
    max_region = std::max(max_region, gi.coverage.largest_region);
  }
  EXPECT_GT(total_elided, 0) << "no zoo model elided any boundary";
  EXPECT_GE(max_region, 2);
  const std::string actual = all.str();

  if (g_update_golden) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual;
    std::fprintf(stderr, "updated %s\n", golden_path().c_str());
    return;
  }
  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " — run mupod_compile_tests --update-golden once and commit it";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual)
      << "fusion coverage drifted from the golden snapshot; if intentional re-run with "
         "--update-golden and commit the new file";
}

}  // namespace
}  // namespace mupod

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--update-golden") mupod::g_update_golden = true;
  if (std::getenv("MUPOD_UPDATE_GOLDEN") != nullptr) mupod::g_update_golden = true;
  return RUN_ALL_TESTS();
}
