// Graph compiler: rewrites a Network (+ optional per-layer fixed-point
// plan) into a fused execution program (compile/compiled_network.hpp).
//
// The rewriter runs three STRUCTURAL rules to a fixpoint over the DAG —
// the rule set is confluent (each rule only removes a single-consumer
// intermediate node and marks its producer, and no rule ever un-fires),
// so the emitted graph is independent of rule order, which the
// metamorphic battery in tests/test_compile.cpp asserts by permuting it:
//
//   drop-noop   kDropout is the identity at inference and is always
//               elided; kFlatten is a pure NCHW reshape and is elided
//               when its sole consumer is an inner product (which
//               flattens by construction). The network's output node is
//               never dropped — the caller observes its shape.
//   fold-norm   a BatchNormScale whose producer is a conv with exactly
//               one consumer folds into the conv: the float path keeps
//               the per-channel affine as a store epilogue (bitwise
//               identical to the separate layer); the integer path folds
//               it into the weights/bias BEFORE quantization
//               (w' = w*s[oc], b' = b*s[oc] + t[oc]). A conv folds at
//               most one norm and never one across a fused ReLU — the
//               epilogue applies norm-then-relu, so conv->ReLU->BN keeps
//               its BN separate.
//   fuse-relu   a ReLU whose producer is a conv/FC with exactly one
//               consumer runs inside the producer's GEMM/qgemm store
//               epilogue (tensor/gemm.hpp, tensor/qgemm.hpp) — no extra
//               tensor pass.
//
// After the structural fixpoint, REGION FORMATION (a deterministic
// function of the rewritten graph, so not part of the permutable rule
// set) walks integer-lowered producer/consumer pairs: when a lowered
// node's only consumer is another lowered node of the same storage type,
// the dequantize/quantize pair at the boundary is elided — the producer
// stores integers directly on the consumer's activation grid through one
// gemmlowp-style q31 requantize (acc_scale_u / act_step_v; both are
// powers of two, so the q31 decomposition is exact). Chains of such
// edges form fused regions whose interior activations stay int8/int16.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/network.hpp"
#include "quant/qexec.hpp"

namespace mupod {

struct CompileOptions {
  // Uniform weight bitwidth for integer lowering, matching
  // PlanServiceConfig::weight_bits.
  int weight_bits = 16;
  // Per-rule gates (all on by default; tests use them to isolate rules).
  bool drop_noops = true;
  bool fold_norm = true;
  bool fuse_relu = true;
  bool elide_requant = true;

  // Every rule off: one step per source node, quantize-on-load and
  // dequantize-on-store at every lowered layer. This is the unfused
  // integer reference (plan validation, parity tests).
  static CompileOptions unfused(int weight_bits) {
    CompileOptions o;
    o.weight_bits = weight_bits;
    o.drop_noops = o.fold_norm = o.fuse_relu = o.elide_requant = false;
    return o;
  }
};

// The permutable structural rules (see rewrite_with_order).
enum class RewriteRule { kDropNoop, kFoldNorm, kFuseReLU };

// Per-model fusion report; also the schema of the golden coverage file
// (tests/golden/fusion_coverage.txt, docs/method.md section 17).
struct FusionCoverage {
  int source_nodes = 0;   // nodes in the source network
  int steps = 0;          // executing steps after rewriting
  int lowered = 0;        // steps running integer dot products
  int relu_fused = 0;     // fuse-relu firings
  int norm_folded = 0;    // fold-norm firings
  int noops_dropped = 0;  // drop-noop firings
  int qdq_elided = 0;     // integer boundaries stored requantized
  int regions = 0;        // fused integer regions (>= 2 layers)
  int largest_region = 0; // layers in the largest fused region
};

// One source node after rewriting.
struct IrNode {
  int src = -1;          // source network node id
  LayerKind kind = LayerKind::kInput;
  std::vector<int> inputs;  // producer SRC ids, resolved through absorptions

  // >= 0: this node no longer executes; its value is that src node's
  // output (the producer for noops, the producer WITH the fused epilogue
  // for absorbed ReLU/norm nodes).
  int absorbed_into = -1;
  bool noop_dropped = false;  // absorbed by drop-noop (vs a fusion)

  bool relu_fused = false;  // a consumer ReLU runs in this node's store
  int norm_src = -1;        // src id of the BatchNormScale folded in here

  // Integer lowering (plan-aware compiles only).
  bool lowered = false;
  FixedPointFormat act_fmt;  // the plan's activation format
  FixedPointFormat w_fmt;    // derived from the FOLDED weights' max |w|
  QType type = QType::kInt16;
  bool in_quantized = false;  // input arrives as carrier integers
  bool quant_store = false;   // store requantized onto the consumer grid
  int quant_consumer = -1;    // src id whose activation grid the store targets

  bool operator==(const IrNode& o) const = default;
};

// The rewriter's output: one IrNode per source node (indexed by src id)
// plus the coverage counters. compile() lowers this into a
// CompiledNetwork; the metamorphic tests compare CompiledGraphs directly.
struct CompiledGraph {
  std::vector<IrNode> nodes;
  FusionCoverage coverage;

  // Follows absorption chains to the src id whose step carries `src`'s
  // value.
  int resolve(int src) const;

  // Structural equality (nodes only — coverage is derived).
  bool operator==(const CompiledGraph& o) const { return nodes == o.nodes; }
};

class CompiledNetwork;

class GraphCompiler {
 public:
  explicit GraphCompiler(const CompileOptions& opts = {}) : opts_(opts) {}

  const CompileOptions& options() const { return opts_; }

  // Rewrite only — exposed for the metamorphic/property battery. The
  // plan-aware overload additionally marks integer lowering and forms
  // fused regions; `analyzed[i]` is the node id `formats[i]` applies to.
  CompiledGraph rewrite(const Network& net) const;
  CompiledGraph rewrite(const Network& net, const std::vector<int>& analyzed,
                        const std::vector<FixedPointFormat>& formats) const;
  // Same, with an explicit structural-rule order (each listed rule is
  // attempted in sequence inside every fixpoint iteration; rules absent
  // from `order` never fire). The default order is kDropNoop, kFoldNorm,
  // kFuseReLU.
  CompiledGraph rewrite_with_order(const Network& net, const std::vector<int>& analyzed,
                                   const std::vector<FixedPointFormat>& formats,
                                   std::span<const RewriteRule> order) const;

  // Rewrite + lower into an executable program. The float overload emits
  // no integer steps; the plan-aware overload lowers every formatted
  // weight-bearing node through lower_layer_operands, on norm-folded
  // weights where fold-norm fired. The source network is borrowed and never mutated —
  // it must outlive the CompiledNetwork.
  CompiledNetwork compile(const Network& net) const;
  CompiledNetwork compile(const Network& net, const std::vector<int>& analyzed,
                          const std::vector<FixedPointFormat>& formats) const;

 private:
  CompileOptions opts_;
};

// Renders the coverage report line used by the golden file:
//   "<tag> nodes=N steps=S lowered=L relu_fused=R norm_folded=B
//    noops_dropped=D qdq_elided=Q regions=G largest_region=M"
std::string render_fusion_coverage(const std::string& tag, const FusionCoverage& c);

}  // namespace mupod
