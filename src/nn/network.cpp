#include "nn/network.hpp"

#include <cassert>
#include <stdexcept>

#include "nn/forward_arena.hpp"
#include "nn/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_scope.hpp"
#include "stats/rng.hpp"

namespace mupod {

InjectionSpec InjectionSpec::uniform(double delta, bool skip_zeros) {
  InjectionSpec s;
  s.kind = Kind::kUniformNoise;
  s.delta = delta;
  s.skip_zeros = skip_zeros;
  return s;
}

InjectionSpec InjectionSpec::quantize(const FixedPointFormat& fmt) {
  InjectionSpec s;
  s.kind = Kind::kQuantize;
  s.format = fmt;
  return s;
}

void apply_injection(Tensor& t, const InjectionSpec& spec, std::uint64_t seed, int node_id) {
  if (spec.kind == InjectionSpec::Kind::kQuantize) {
    quantize_tensor(t, spec.format);
    return;
  }
  if (spec.delta <= 0.0) return;
  std::uint64_t mix = seed;
  (void)splitmix64(mix);
  mix ^= 0x517cc1b727220a95ULL * static_cast<std::uint64_t>(node_id + 1);
  Rng rng(splitmix64(mix));
  float* p = t.data();
  const std::int64_t n = t.numel();
  const double d = spec.delta;
  if (spec.skip_zeros) {
    for (std::int64_t i = 0; i < n; ++i) {
      if (p[i] != 0.0f) p[i] += static_cast<float>(rng.uniform(-d, d));
    }
  } else {
    for (std::int64_t i = 0; i < n; ++i) p[i] += static_cast<float>(rng.uniform(-d, d));
  }
}

int Network::add_input(const std::string& name, int c, int h, int w) {
  if (input_node_ != -1) throw std::logic_error("Network: only one input supported");
  return add(name, std::make_unique<InputLayer>(c, h, w), std::vector<int>{});
}

int Network::add(const std::string& name, std::unique_ptr<Layer> layer,
                 const std::vector<std::string>& inputs) {
  std::vector<int> ids;
  ids.reserve(inputs.size());
  for (const std::string& in : inputs) {
    const int id = node_id(in);
    if (id < 0) throw std::invalid_argument("Network: unknown input node '" + in + "'");
    ids.push_back(id);
  }
  return add(name, std::move(layer), std::move(ids));
}

int Network::add(const std::string& name, std::unique_ptr<Layer> layer, std::vector<int> inputs) {
  if (finalized_) throw std::logic_error("Network: add() after finalize()");
  if (by_name_.count(name) != 0) throw std::invalid_argument("Network: duplicate node '" + name + "'");
  const int id = num_nodes();
  for (int in : inputs) {
    if (in < 0 || in >= id) throw std::invalid_argument("Network: inputs must precede the node");
  }
  if (layer->kind() == LayerKind::kInput) {
    if (!inputs.empty()) throw std::invalid_argument("Network: input node takes no inputs");
    input_node_ = id;
  } else if (inputs.empty()) {
    throw std::invalid_argument("Network: non-input node needs inputs");
  }
  Node n;
  n.name = name;
  n.layer = std::move(layer);
  n.inputs = std::move(inputs);
  nodes_.push_back(std::move(n));
  by_name_.emplace(name, id);
  return id;
}

void Network::finalize() {
  if (finalized_) return;
  if (input_node_ == -1) throw std::logic_error("Network: no input node");
  if (num_nodes() < 2) throw std::logic_error("Network: empty network");

  for (auto& n : nodes_) n.children.clear();
  analyzable_.clear();

  for (int id = 0; id < num_nodes(); ++id) {
    Node& n = nodes_[static_cast<std::size_t>(id)];
    std::vector<Shape> in_shapes;
    in_shapes.reserve(n.inputs.size());
    for (int in : n.inputs) {
      in_shapes.push_back(nodes_[static_cast<std::size_t>(in)].unit_shape);
      nodes_[static_cast<std::size_t>(in)].children.push_back(id);
    }
    n.unit_shape = n.layer->output_shape(in_shapes);
    n.cost = n.layer->cost(in_shapes);
    if (n.layer->analyzable()) analyzable_.push_back(id);
  }
  finalized_ = true;
}

int Network::node_id(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

namespace {

// The calling thread's arena, set up for one call on `net`.
ForwardArena& forward_arena(const Network& net) {
  return ForwardArena::local(static_cast<std::size_t>(net.num_nodes()));
}

// Marks `from` and its transitive consumers in ar.recompute, and points
// every other node's output at its entry in `cache`.
void mark_downstream(const Network& net, int from, const std::vector<Tensor>& cache,
                     ForwardArena& ar) {
  ar.recompute.assign(static_cast<std::size_t>(net.num_nodes()), 0);
  ar.recompute[static_cast<std::size_t>(from)] = 1;
  for (int id = 0; id < net.num_nodes(); ++id) {
    if (ar.recompute[static_cast<std::size_t>(id)] == 0) {
      ar.outs[static_cast<std::size_t>(id)] = &cache[static_cast<std::size_t>(id)];
      continue;
    }
    for (int child : net.node(id).children) ar.recompute[static_cast<std::size_t>(child)] = 1;
  }
}

// Executes nodes [first, n) in topological order, each into store[id]
// (resized to the node's output shape). With `only_marked`, only the nodes
// marked by mark_downstream run; without, every node runs.
void run_nodes(const Network& net, int first, bool only_marked, std::vector<Tensor>& store,
               ForwardArena& ar, const Tensor& input, const ForwardOptions& opts) {
  assert(net.finalized());
  for (int id = first; id < net.num_nodes(); ++id) {
    if (only_marked && ar.recompute[static_cast<std::size_t>(id)] == 0) continue;
    const Network::Node& n = net.node(id);

    if (n.layer->kind() == LayerKind::kInput) {
      ar.outs[static_cast<std::size_t>(id)] = &input;
      continue;
    }

    ar.ins.clear();
    for (int in : n.inputs) {
      const Tensor* t = ar.outs[static_cast<std::size_t>(in)];
      assert(t != nullptr && "forward_from: node consumed before produced");
      ar.ins.push_back(t);
    }

    // Injection into the data input of this node.
    if (opts.inject != nullptr) {
      auto it = opts.inject->find(id);
      if (it != opts.inject->end()) {
        ar.perturbed = *ar.ins[0];
        apply_injection(ar.perturbed, it->second, opts.seed, id);
        ar.ins[0] = &ar.perturbed;
      }
    }

    // Output shape at the actual batch size.
    ar.in_shapes.clear();
    for (const Tensor* t : ar.ins) ar.in_shapes.push_back(t->shape());
    Tensor& out = store[static_cast<std::size_t>(id)];
    out.resize(n.layer->output_shape(ar.in_shapes));
    n.layer->forward(ar.ins, out);
    ar.outs[static_cast<std::size_t>(id)] = &out;
  }
}

}  // namespace

Tensor Network::forward(const Tensor& input, const ForwardOptions& opts) const {
  if (metrics_enabled()) {
    static Counter& calls = metrics().counter("net.forward.calls");
    calls.add(1);
    note_forwards(input.shape().n());
  }
  ForwardArena& ar = forward_arena(*this);
  run_nodes(*this, 0, false, ar.nodes, ar, input, opts);
  return ar.nodes[static_cast<std::size_t>(output_node())];
}

std::vector<Tensor> Network::forward_all(const Tensor& input, const ForwardOptions& opts) const {
  if (metrics_enabled()) {
    static Counter& calls = metrics().counter("net.forward_all.calls");
    calls.add(1);
    note_forwards(input.shape().n());
  }
  std::vector<Tensor> local(static_cast<std::size_t>(num_nodes()));
  run_nodes(*this, 0, false, local, forward_arena(*this), input, opts);
  // The input node's activation is the external input; materialize it so
  // the cache is self-contained.
  local[static_cast<std::size_t>(input_node_)] = input;
  return local;
}

Tensor Network::forward_from(int from, const std::vector<Tensor>& cache,
                             const ForwardOptions& opts) const {
  assert(finalized_);
  assert(from >= 0 && from < num_nodes());
  assert(cache.size() == static_cast<std::size_t>(num_nodes()));
  if (metrics_enabled()) {
    static Counter& calls = metrics().counter("net.forward_from.calls");
    calls.add(1);
    // Charged as a full-batch forward even though only the downstream
    // sub-DAG re-executes: forward_count accounting is denominated in
    // full-net-equivalent passes (see AnalysisHarness::forward_count).
    note_forwards(cache[static_cast<std::size_t>(input_node_)].shape().n());
  }

  ForwardArena& ar = forward_arena(*this);
  mark_downstream(*this, from, cache, ar);
  const auto out_id = static_cast<std::size_t>(output_node());
  if (ar.recompute[out_id] == 0) return cache[out_id];
  run_nodes(*this, from, true, ar.nodes, ar, cache[static_cast<std::size_t>(input_node_)], opts);
  return ar.nodes[out_id];
}

void Network::update_from(int from, std::vector<Tensor>& acts, const ForwardOptions& opts) const {
  assert(finalized_);
  assert(from >= 0 && from < num_nodes());
  assert(acts.size() == static_cast<std::size_t>(num_nodes()));

  // Recomputes straight into `acts`: a marked node's entry is only read
  // after this pass has rewritten it, and the input node is never written.
  ForwardArena& ar = forward_arena(*this);
  mark_downstream(*this, from, acts, ar);
  run_nodes(*this, from, true, acts, ar, acts[static_cast<std::size_t>(input_node_)], opts);
}

std::vector<double> Network::profile_input_ranges(const Tensor& input) const {
  std::vector<Tensor> acts = forward_all(input);
  std::vector<double> ranges(static_cast<std::size_t>(num_nodes()), 0.0);
  for (int id = 0; id < num_nodes(); ++id) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.inputs.empty()) continue;
    ranges[static_cast<std::size_t>(id)] = acts[static_cast<std::size_t>(n.inputs[0])].max_abs();
  }
  return ranges;
}

Network::WeightSnapshot Network::snapshot_weights() const {
  WeightSnapshot snap;
  for (int id = 0; id < num_nodes(); ++id) {
    const Layer& l = layer(id);
    if (const Tensor* w = l.weights()) snap.weights.emplace_back(id, *w);
    if (const Tensor* b = l.bias()) snap.biases.emplace_back(id, *b);
  }
  return snap;
}

void Network::restore_weights(const WeightSnapshot& snap) {
  for (const auto& [id, w] : snap.weights) *layer(id).mutable_weights() = w;
  for (const auto& [id, b] : snap.biases) *layer(id).mutable_bias() = b;
}

void Network::quantize_weights_uniform(int bits) {
  for (int id : analyzable_) {
    Tensor* w = layer(id).mutable_weights();
    if (w == nullptr) continue;
    const double max_abs = w->max_abs();
    FixedPointFormat fmt;
    fmt.integer_bits = FixedPointFormat::integer_bits_for_range(max_abs);
    fmt.fraction_bits = bits - fmt.integer_bits;
    quantize_tensor(*w, fmt);
  }
}

std::int64_t Network::total_input_elems() const {
  std::int64_t s = 0;
  for (int id : analyzable_) s += node(id).cost.input_elems;
  return s;
}

std::int64_t Network::total_macs() const {
  std::int64_t s = 0;
  for (int id : analyzable_) s += node(id).cost.macs;
  return s;
}

namespace {

// Incremental FNV-1a (64-bit). Not cryptographic — the hash guards against
// *accidental* profile/network mixups (stale file, wrong model name), not
// adversaries.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(int v) { i64(v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void shape(const Shape& s) {
    i32(s.rank());
    for (int i = 0; i < s.rank(); ++i) i32(s.dim(i));
  }
  void tensor(const Tensor* t) {
    if (t == nullptr) {
      i64(-1);
      return;
    }
    i64(t->numel());
    // Raw float bytes: bit-exact, so ±0.0 and NaN payloads distinguish too.
    bytes(t->data(), static_cast<std::size_t>(t->numel()) * sizeof(float));
  }
};

void hash_topology(Fnv1a& f, const Network& net) {
  f.str(net.name());
  f.i32(net.num_nodes());
  f.i32(net.input_node());
  for (int id = 0; id < net.num_nodes(); ++id) {
    const Network::Node& n = net.node(id);
    f.str(n.name);
    f.i32(static_cast<int>(n.layer->kind()));
    f.i64(static_cast<std::int64_t>(n.inputs.size()));
    for (int in : n.inputs) f.i32(in);
    f.shape(n.unit_shape);
    f.i64(n.cost.input_elems);
    f.i64(n.cost.macs);
  }
}

}  // namespace

std::uint64_t network_topology_hash(const Network& net) {
  assert(net.finalized());
  Fnv1a f;
  hash_topology(f, net);
  return f.h;
}

std::uint64_t network_content_hash(const Network& net) {
  assert(net.finalized());
  Fnv1a f;
  hash_topology(f, net);
  for (int id = 0; id < net.num_nodes(); ++id) {
    f.tensor(net.layer(id).weights());
    f.tensor(net.layer(id).bias());
  }
  return f.h;
}

}  // namespace mupod
