// Per-thread scratch of the forwards, in the GemmScratch pattern: buffers
// only grow, so a steady stream of forwards at one batch size allocates
// nothing and zero-fills nothing. Network::forward/forward_from
// (nn/network.cpp) and CompiledNetwork::forward (compile/) share one
// arena per thread. `nodes` holds the step outputs of the running call,
// indexed by node (or compiled step) id. Every call writes each slot
// before it reads it and hands out only copies, so executors interleaved
// on one thread share the slots safely; growth from one network to the
// next costs at most what a fresh buffer did. Like GemmScratch, it
// assumes no forward runs inside another on one thread.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace mupod {

struct ForwardArena {
  std::vector<Tensor> nodes;
  Tensor perturbed;                  // injected copy of a node's data input
  std::vector<const Tensor*> outs;   // where each node's output is read from
  std::vector<const Tensor*> ins;    // the current node's inputs
  std::vector<Shape> in_shapes;
  std::vector<char> recompute;       // the downstream set of forward_from

  // The calling thread's arena, set up for one call over `slots` nodes:
  // at least that many node slots, and every `outs` entry reset.
  static ForwardArena& local(std::size_t slots) {
    thread_local ForwardArena a;
    if (a.nodes.size() < slots) a.nodes.resize(slots);
    a.outs.assign(slots, nullptr);
    return a;
  }
};

}  // namespace mupod
