// Network: a DAG of layers executed in inference mode, with the
// instrumentation the paper's analysis needs:
//
//  * error injection into the input of any layer K (uniform noise with
//    boundary Delta, or actual fixed-point quantization)  — Sec. V-A;
//  * full-pass activation caching plus partial re-execution of only the
//    nodes downstream of K, which makes the (layers x ~20 Delta points)
//    profiling sweep affordable on a CPU;
//  * per-layer cost metadata (#inputs, #MACs) and max|X_K| range
//    profiling used to derive integer bitwidths — Sec. V-D;
//  * weight snapshot / restore, supporting the weight bitwidth search of
//    Sec. V-E.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/layer.hpp"
#include "quant/fixed_point.hpp"

namespace mupod {

// Perturbation applied to the (first) input of a node before its compute.
struct InjectionSpec {
  enum class Kind {
    kUniformNoise,  // add e ~ U[-delta, +delta]; the synthetic error model
    kQuantize,      // apply an actual fixed point format (validation mode)
  };
  Kind kind = Kind::kUniformNoise;
  double delta = 0.0;
  // The paper's error model excludes exact zeros (a fixed point zero is
  // exact, so a ReLU's zeros carry no rounding error).
  bool skip_zeros = true;
  FixedPointFormat format;

  static InjectionSpec uniform(double delta, bool skip_zeros = true);
  static InjectionSpec quantize(const FixedPointFormat& fmt);
};

struct ForwardOptions {
  // node id -> perturbation of that node's data input. Borrowed; may be null.
  const std::unordered_map<int, InjectionSpec>* inject = nullptr;
  // Seed for the injected noise. Each (seed, node) pair gets a
  // decorrelated stream.
  std::uint64_t seed = 1;
};

class Network {
 public:
  struct Node {
    std::string name;
    std::unique_ptr<Layer> layer;
    std::vector<int> inputs;    // producer node ids (all < this node's id)
    std::vector<int> children;  // consumer node ids (filled by finalize)
    Shape unit_shape;           // output shape at batch size 1
    LayerCost cost;             // per-image cost
  };

  explicit Network(std::string name = "net") : name_(std::move(name)) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  const std::string& name() const { return name_; }

  // --- construction (nodes must be added in topological order) ---------
  int add_input(const std::string& name, int c, int h, int w);
  int add(const std::string& name, std::unique_ptr<Layer> layer,
          const std::vector<std::string>& inputs);
  int add(const std::string& name, std::unique_ptr<Layer> layer, std::vector<int> inputs);

  // Infers unit shapes and per-layer costs; must be called once after the
  // last add() and before any forward.
  void finalize();
  bool finalized() const { return finalized_; }

  // --- introspection ----------------------------------------------------
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const Node& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  Layer& layer(int id) { return *nodes_[static_cast<std::size_t>(id)].layer; }
  const Layer& layer(int id) const { return *nodes_[static_cast<std::size_t>(id)].layer; }
  // -1 when no node has that name.
  int node_id(const std::string& name) const;
  int input_node() const { return input_node_; }
  // The final node; its output is Y_L (networks built for analysis end at
  // the logits, i.e. before softmax).
  int output_node() const { return num_nodes() - 1; }
  // Dot-product nodes in topological order — the K's of the paper.
  const std::vector<int>& analyzable_nodes() const { return analyzable_; }

  // --- execution ---------------------------------------------------------
  // Full forward; returns the output of the final node.
  Tensor forward(const Tensor& input, const ForwardOptions& opts = {}) const;

  // Full forward keeping every node's output (the activation cache).
  std::vector<Tensor> forward_all(const Tensor& input, const ForwardOptions& opts = {}) const;

  // Recompute only node `from` and its transitive consumers, reading
  // everything else from `cache` (a forward_all result for the same
  // input). Returns the final node's output.
  Tensor forward_from(int from, const std::vector<Tensor>& cache,
                      const ForwardOptions& opts = {}) const;

  // In-place variant: recomputes node `from` and its transitive consumers
  // directly inside `acts` (a forward_all result). Used by the activation
  // calibration pass in src/zoo.
  void update_from(int from, std::vector<Tensor>& acts, const ForwardOptions& opts = {}) const;

  // --- profiling -----------------------------------------------------------
  // max |X| of each node's data input over the batch (indexed by node id).
  std::vector<double> profile_input_ranges(const Tensor& input) const;

  // --- weights -------------------------------------------------------------
  struct WeightSnapshot {
    std::vector<std::pair<int, Tensor>> weights;
    std::vector<std::pair<int, Tensor>> biases;
  };
  WeightSnapshot snapshot_weights() const;
  void restore_weights(const WeightSnapshot& snap);
  // Quantize every analyzable layer's weights to `bits` total bits, with
  // the integer part derived per layer from max |w|.
  void quantize_weights_uniform(int bits);

  // Sum of per-image costs over analyzable nodes.
  std::int64_t total_input_elems() const;
  std::int64_t total_macs() const;

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::unordered_map<std::string, int> by_name_;
  std::vector<int> analyzable_;
  int input_node_ = -1;
  bool finalized_ = false;
};

// Applies `spec` to tensor `t` in place using noise stream (seed, node_id).
void apply_injection(Tensor& t, const InjectionSpec& spec, std::uint64_t seed, int node_id);

// --- content addressing ---------------------------------------------------
// FNV-1a structural hash over the finalized DAG: network name, node names,
// layer kinds, wiring, unit shapes and cost metadata. Equal for two
// networks built the same way regardless of their weight values.
std::uint64_t network_topology_hash(const Network& net);

// Topology hash extended with every layer's weight/bias bytes: changes
// whenever anything that affects the network's numerical behaviour does.
// This is the key under which profiles are cached (PlanService) and
// persisted (profile format v3), so a profile computed for one network
// can never be silently applied to another.
std::uint64_t network_content_hash(const Network& net);

}  // namespace mupod
