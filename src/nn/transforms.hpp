// Introspection of a network: network_summary, a torchsummary-style
// table of the DAG. (Folding a BatchNormScale into its producer is the
// graph compiler's fold-norm rule, src/compile/graph_compiler.hpp.)
#pragma once

#include <string>

#include "nn/network.hpp"

namespace mupod {

// Human-readable summary: one row per node with kind, output shape,
// #params, #MACs; plus totals.
std::string network_summary(const Network& net);

}  // namespace mupod
