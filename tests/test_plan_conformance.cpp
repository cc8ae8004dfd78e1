// Golden end-to-end plan conformance: plan -> integer-executed forward ->
// accuracy, for two small zoo networks.
//
// Two layers of assertion:
//   1. The committed contract (always enforced): each plan's
//      integer-executed accuracy drop stays within its accuracy budget
//      plus kValidationTolerance — the same bound sweep_tool --validate
//      gates on.
//   2. A golden snapshot of the full validation record — allocated
//      bits, float/emulated/integer/compiled accuracy — so any change in the lowering, the kernels, the graph
//      compiler, or the planner shows up as a reviewable diff, not a
//      silent drift. The whole pipeline is deterministic (see
//      test_determinism.cpp), so the comparison is exact. The plans
//      depend on the float arithmetic of the profiling forwards, so
//      there is one golden per arithmetic: plan_conformance.txt for
//      the FMA kernel (kAvx2Fma) and plan_conformance.scalar.txt for
//      separate multiply-then-add (kScalar).
//
// The compiled columns (added with the graph compiler) measure the FUSED
// artifact the inference server serves; `integer` stays the unfused
// path (the same plan compiled with every rule off). The two may differ by at most one quantization step per fused
// region boundary (requantize-once vs dequantize+requantize;
// docs/method.md Sec. 17), which can flip individual argmaxes — hence
// separate columns rather than an equality assertion. Both are held to
// the same drop budget.
//
// Updating the golden after an intentional change:
//   ./mupod_quant_tests --update-golden
//   (or MUPOD_UPDATE_GOLDEN=1 ./mupod_quant_tests)
// under each arithmetic (MUPOD_FORCE_KERNEL=scalar for the second
// golden), then review and commit the new files in tests/golden/.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/plan_service.hpp"
#include "tensor/kernels/kernels.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

bool g_update_golden = false;

#ifndef MUPOD_SOURCE_DIR
#error "tests/CMakeLists.txt must define MUPOD_SOURCE_DIR"
#endif

std::string golden_path() {
  const bool fma = kernel_isa() == KernelIsa::kAvx2Fma;
  return std::string(MUPOD_SOURCE_DIR) + "/tests/golden/plan_conformance" +
         (fma ? "" : ".scalar") + ".txt";
}

struct ConformanceCase {
  const char* net;
  double drop;
  const char* objective;  // "input" or "mac"
};

// Two small zoo networks x two budgets; nin is the smallest *real* paper
// topology (mlpconv stacks + global average pooling).
const ConformanceCase kCases[] = {
    {"tiny", 0.05, "input"},
    {"tiny", 0.01, "mac"},
    {"nin", 0.05, "input"},
    {"nin", 0.02, "mac"},
};

// One validation rendered as a stable, greppable line. Accuracies are
// ratios of integer hit counts over a fixed eval set, so %.6f is exact
// for any eval size this test uses.
std::string render_line(const ConformanceCase& c, const PlanValidation& v) {
  std::ostringstream os;
  char head[64];
  std::snprintf(head, sizeof head, "%s drop=%.4f objective=%s bits=", c.net, c.drop, c.objective);
  os << head;
  for (std::size_t i = 0; i < v.plan.alloc.bits.size(); ++i) {
    if (i > 0) os << ',';
    os << v.plan.alloc.bits[i];
  }
  char buf[240];
  std::snprintf(buf, sizeof buf,
                " float=%.6f emulated=%.6f integer=%.6f compiled=%.6f lowered=%d relu_fused=%d "
                "qdq_elided=%d regions=%d",
                v.float_accuracy, v.emulated_accuracy, v.integer_accuracy, v.compiled_accuracy,
                v.lowered_layers, v.fusion.relu_fused, v.fusion.qdq_elided, v.fusion.regions);
  os << buf;
  return os.str();
}

PlanValidation run_case(const ConformanceCase& c) {
  ZooOptions zo;
  zo.num_classes = 10;
  zo.seed = 404;
  zo.data_seed = 8;
  zo.calibration_images = 8;
  ZooModel m = build_model(c.net, zo);

  DatasetConfig dc;
  dc.num_classes = 10;
  dc.channels = m.channels;
  dc.height = m.height;
  dc.width = m.width;
  dc.seed = 8;
  SyntheticImageDataset dataset(dc);

  PlanServiceConfig scfg;
  scfg.pipeline.harness.profile_images = 16;
  scfg.pipeline.harness.eval_images = 128;
  scfg.pipeline.profiler.points = 6;
  PlanService service(scfg);
  const PlanKey key = service.register_network(m.net, m.analyzed, dataset);

  PlanQuery q;
  q.accuracy_target = c.drop;
  q.objective = std::string(c.objective) == "input"
                    ? objective_input_bits(m.net, m.analyzed)
                    : objective_mac_energy(m.net, m.analyzed);
  return service.validate_plan(key, q);
}

TEST(PlanConformance, IntegerExecutionStaysWithinBudgetAndMatchesGolden) {
  std::vector<std::string> lines;
  for (const ConformanceCase& c : kCases) {
    SCOPED_TRACE(std::string(c.net) + " " + c.objective);
    const PlanValidation v = run_case(c);

    // The committed contract — holds regardless of the golden state.
    EXPECT_GT(v.lowered_layers, 0);
    EXPECT_GT(v.integer_accuracy, 0.0);
    EXPECT_LE(v.integer_drop, c.drop + v.tolerance)
        << c.net << " " << c.objective << " drop budget " << c.drop << ": integer-executed drop "
        << v.integer_drop << " exceeds budget + tolerance " << (c.drop + v.tolerance);
    EXPECT_TRUE(v.within_budget);
    // The fused serving artifact is held to the same contract.
    EXPECT_GT(v.compiled_accuracy, 0.0);
    EXPECT_LE(v.compiled_drop, c.drop + v.tolerance)
        << c.net << " " << c.objective << ": compiled (fused) drop " << v.compiled_drop
        << " exceeds budget + tolerance " << (c.drop + v.tolerance);
    EXPECT_TRUE(v.compiled_within_budget);

    lines.push_back(render_line(c, v));
  }

  std::ostringstream all;
  for (const std::string& l : lines) all << l << '\n';
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
                         << " — run mupod_quant_tests --update-golden once and commit it";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual)
      << "conformance results drifted from the golden snapshot; if the change is intentional "
         "re-run with --update-golden and commit the new file";
}

// The memoized plan() inside validate_plan must not perturb the check:
// validating the same query twice gives identical ground truth.
TEST(PlanConformance, RepeatedValidationIsIdentical) {
  const ConformanceCase c{"tiny", 0.05, "input"};
  ZooOptions zo;
  zo.num_classes = 10;
  zo.seed = 404;
  zo.data_seed = 8;
  zo.calibration_images = 8;
  ZooModel m = build_model(c.net, zo);
  DatasetConfig dc;
  dc.num_classes = 10;
  dc.channels = m.channels;
  dc.height = m.height;
  dc.width = m.width;
  dc.seed = 8;
  SyntheticImageDataset dataset(dc);
  PlanServiceConfig scfg;
  scfg.pipeline.harness.profile_images = 16;
  scfg.pipeline.harness.eval_images = 128;
  scfg.pipeline.profiler.points = 6;
  PlanService service(scfg);
  const PlanKey key = service.register_network(m.net, m.analyzed, dataset);
  PlanQuery q;
  q.accuracy_target = c.drop;
  q.objective = objective_input_bits(m.net, m.analyzed);

  const PlanValidation v1 = service.validate_plan(key, q);
  const PlanValidation v2 = service.validate_plan(key, q);
  EXPECT_EQ(v1.integer_accuracy, v2.integer_accuracy);
  EXPECT_EQ(v1.compiled_accuracy, v2.compiled_accuracy);
  EXPECT_EQ(v1.emulated_accuracy, v2.emulated_accuracy);
  EXPECT_EQ(v1.act_saturated, v2.act_saturated);
  EXPECT_EQ(v1.plan.alloc.bits, v2.plan.alloc.bits);
  EXPECT_FALSE(v1.plan.plan_cached);
  EXPECT_TRUE(v2.plan.plan_cached);
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
