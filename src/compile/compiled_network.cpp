#include "compile/compiled_network.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <span>
#include <utility>

#include "nn/forward_arena.hpp"
#include "nn/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_scope.hpp"

namespace mupod {

namespace {

std::int64_t max_abs_weight(const QLayerLowering& lw) {
  std::int64_t m = 0;
  const auto scan = [&m](const auto& w) {
    for (const auto v : w) m = std::max<std::int64_t>(m, std::abs(static_cast<std::int64_t>(v)));
  };
  scan(lw.w8);
  scan(lw.w16);
  scan(lw.w32);
  return m;
}

}  // namespace

CompiledNetwork::CompiledNetwork(const Network& net, CompiledGraph graph,
                                 const CompileOptions& opts)
    : net_(&net), graph_(std::move(graph)) {
  assert(net.finalized());
  const int n_nodes = net.num_nodes();
  step_of_src_.assign(static_cast<std::size_t>(n_nodes), -1);

  for (int id = 0; id < n_nodes; ++id) {
    const IrNode& n = graph_.nodes[static_cast<std::size_t>(id)];
    if (n.absorbed_into >= 0) continue;

    CompiledStep st;
    st.src = id;
    st.layer = &net.layer(id);
    st.inputs.reserve(n.inputs.size());
    for (int in : n.inputs) {
      const int si = step_of_src_[static_cast<std::size_t>(in)];
      assert(si >= 0 && "compiled step consumes an absorbed node");
      st.inputs.push_back(si);
    }
    if (n.lowered) {
      const Tensor* w = st.layer->weights();
      const Tensor* b = st.layer->bias();
      Tensor wf, bf;
      if (n.norm_src >= 0) {
        // Fold the norm affine into the operands BEFORE quantization:
        // w' = w * s[oc], b' = b * s[oc] + t[oc]; the same float
        // products folded_wmax scanned, so the derived w_fmt/type match
        // the rewriter's decision.
        const auto& bn = static_cast<const BatchNormScaleLayer&>(net.layer(n.norm_src));
        const float* sc = bn.scale().data();
        const float* sh = bn.shift().data();
        const int oc_n = w->shape().dim(0);
        const std::int64_t per_oc = w->numel() / oc_n;
        wf = *w;
        float* wd = wf.data();
        for (int oc = 0; oc < oc_n; ++oc) {
          const float s = sc[oc];
          float* row = wd + static_cast<std::int64_t>(oc) * per_oc;
          for (std::int64_t j = 0; j < per_oc; ++j) row[j] = row[j] * s;
        }
        bf = Tensor(Shape({oc_n}));
        for (int oc = 0; oc < oc_n; ++oc)
          bf[oc] = (b != nullptr ? (*b)[oc] : 0.0f) * sc[oc] + sh[oc];
        w = &wf;
        b = &bf;
      }
      const bool ok = lower_layer_operands(id, n.act_fmt, opts.weight_bits, w, b, &st.lw);
      assert(ok);
      (void)ok;
      assert(st.lw.type == n.type && "rewrite/lowering storage-type mismatch");
      st.lowered = true;
    } else if (n.norm_src >= 0) {
      // Float execution keeps the folded norm as a store epilogue —
      // bitwise identical to the separate BatchNormScale pass.
      const auto& bn = static_cast<const BatchNormScaleLayer&>(net.layer(n.norm_src));
      const float* sc = bn.scale().data();
      const float* sh = bn.shift().data();
      const std::int64_t c_n = bn.scale().numel();
      st.norm_scale.assign(sc, sc + c_n);
      st.norm_shift.assign(sh, sh + c_n);
    }

    step_of_src_[static_cast<std::size_t>(id)] = static_cast<int>(steps_.size());
    steps_.push_back(std::move(st));
  }
  output_step_ = step_of_src_[static_cast<std::size_t>(graph_.resolve(net.output_node()))];
  assert(output_step_ >= 0);

  // Store epilogues, once the steps (and the buffers they point into) sit
  // at their final addresses.
  for (CompiledStep& st : steps_) {
    const IrNode& n = graph_.nodes[static_cast<std::size_t>(st.src)];
    st.fusion.relu = n.relu_fused;
    if (!st.norm_scale.empty()) {
      st.fusion.scale = st.norm_scale.data();
      st.fusion.shift = st.norm_shift.data();
    }
    if (!st.lowered) continue;
    const QGrid ag = qgrid_for(st.lw.act_fmt);
    const QGrid wg = qgrid_for(st.lw.w_fmt);
    QLayerBinding& b = st.binding;
    b.type = st.lw.type;
    b.weights = st.lw.weights_ptr();
    b.bias = st.lw.bias.empty() ? nullptr : st.lw.bias.data();
    b.act_step = ag.step;
    b.act_lo = ag.lo;
    b.act_hi = ag.hi;
    b.in_quantized = n.in_quantized;
    b.ep.scale = ag.step * wg.step;
    b.ep.relu = n.relu_fused;
    // Derived operand bounds (tensor/qgemm.hpp): they let qgemm prove
    // int32 accumulators exact. The weights are A for a conv and the
    // batch-1 inner product; the batched inner product substitutes its
    // input grid bound.
    b.ep.a_max = max_abs_weight(st.lw);
    for (const std::int64_t v : st.lw.bias) b.ep.bias_max = std::max(b.ep.bias_max, std::abs(v));
    if (n.quant_store) {
      // Fused-region output: requantize straight onto the consumer's
      // grid. acc_scale / consumer act_step are all powers of two, so the
      // q31 decomposition is exact and the requantize rounds exactly once.
      const QGrid cg = qgrid_for(graph_.nodes[static_cast<std::size_t>(n.quant_consumer)].act_fmt);
      b.ep.quant_store = true;
      b.ep.requant = make_requant(b.ep.scale / cg.step);
      b.ep.lo = cg.lo;
      b.ep.hi = cg.hi;
    }
  }
}

int CompiledNetwork::step_of_src(int src) const {
  if (src < 0 || src >= static_cast<int>(step_of_src_.size())) return -1;
  return step_of_src_[static_cast<std::size_t>(src)];
}

std::int64_t CompiledNetwork::weight_saturated() const {
  std::int64_t total = 0;
  for (const CompiledStep& st : steps_)
    if (st.lowered) total += st.lw.weight_saturated;
  return total;
}

Tensor CompiledNetwork::forward(const Tensor& input) const { return run(input, nullptr); }

Tensor CompiledNetwork::forward_captured(const Tensor& input,
                                         std::vector<Tensor>* step_outputs) const {
  return run(input, step_outputs);
}

namespace {

// Runs one step into `out`: conv/FC through the explicit entry point with
// the step's store epilogue, everything else through the virtual forward.
void run_step(const CompiledStep& st, std::span<const Tensor* const> ins, Tensor& out,
              std::atomic<std::int64_t>* sat) {
  const LayerKind kind = st.layer->kind();
  if (kind != LayerKind::kConv && kind != LayerKind::kInnerProduct) {
    st.layer->forward(ins, out);
    return;
  }
  const Tensor& x = *ins[0];
  if (st.lowered) {
    QLayerBinding b = st.binding;
    b.ep.saturated = sat;
    if (kind == LayerKind::kConv)
      static_cast<const Conv2DLayer&>(*st.layer).forward_integer(b, x, out);
    else
      static_cast<const InnerProductLayer&>(*st.layer).forward_integer(b, x, out);
  } else if (kind == LayerKind::kConv) {
    static_cast<const Conv2DLayer&>(*st.layer).forward(st.fusion, x, out);
  } else {
    static_cast<const InnerProductLayer&>(*st.layer).forward(st.fusion, x, out);
  }
}

}  // namespace

Tensor CompiledNetwork::run(const Tensor& input, std::vector<Tensor>* cap) const {
  forwards_.fetch_add(1, std::memory_order_relaxed);
  // Same cost currency as Network::forward: compiled batches are forward
  // passes charged to the caller's stage.
  note_forwards(input.shape().n());
  if (metrics_enabled()) {
    static Counter& calls = metrics().counter("compile.forward.calls");
    calls.add(1);
  }

  const auto n_steps = steps_.size();
  ForwardArena& ar = ForwardArena::local(n_steps);
  if (cap != nullptr) {
    cap->clear();
    cap->resize(n_steps);
  }
  std::atomic<std::int64_t> sat{0};

  for (std::size_t i = 0; i < n_steps; ++i) {
    const CompiledStep& st = steps_[i];
    if (st.layer->kind() == LayerKind::kInput) {
      ar.outs[i] = &input;
      if (cap != nullptr) (*cap)[i] = input;
      continue;
    }

    ar.ins.clear();
    for (int in : st.inputs) {
      const Tensor* t = ar.outs[static_cast<std::size_t>(in)];
      assert(t != nullptr && "compiled step consumed before produced");
      ar.ins.push_back(t);
    }
    ar.in_shapes.clear();
    for (const Tensor* t : ar.ins) ar.in_shapes.push_back(t->shape());
    Tensor& out = ar.nodes[i];
    out.resize(st.layer->output_shape(ar.in_shapes));
    run_step(st, ar.ins, out, &sat);
    ar.outs[i] = &out;
    if (cap != nullptr) (*cap)[i] = out;
  }

  const std::int64_t total_sat = sat.load(std::memory_order_relaxed);
  if (total_sat != 0) {
    act_saturated_.fetch_add(total_sat, std::memory_order_relaxed);
    if (metrics_enabled()) {
      static Counter& c = metrics().counter("compile.act.saturated");
      c.add(total_sat);
    }
  }
  return *ar.outs[static_cast<std::size_t>(output_step_)];
}

}  // namespace mupod
