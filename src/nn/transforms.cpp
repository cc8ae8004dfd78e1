#include "nn/transforms.hpp"

#include <iomanip>
#include <sstream>

#include "nn/layers.hpp"

namespace mupod {

std::string network_summary(const Network& net) {
  std::ostringstream os;
  os << "network '" << net.name() << "': " << net.num_nodes() << " nodes, "
     << net.analyzable_nodes().size() << " analyzable\n";
  os << std::left << std::setw(5) << "#" << std::setw(22) << "name" << std::setw(10) << "kind"
     << std::setw(18) << "output" << std::right << std::setw(10) << "params" << std::setw(14)
     << "MACs" << '\n';
  os << std::string(79, '-') << '\n';
  std::int64_t total_params = 0, total_macs = 0;
  for (int id = 0; id < net.num_nodes(); ++id) {
    const auto& node = net.node(id);
    std::int64_t params = 0;
    if (const Tensor* w = node.layer->weights()) params += w->numel();
    if (const Tensor* b = node.layer->bias()) params += b->numel();
    total_params += params;
    total_macs += node.cost.macs;
    os << std::left << std::setw(5) << id << std::setw(22) << node.name << std::setw(10)
       << layer_kind_name(node.layer->kind()) << std::setw(18) << node.unit_shape.to_string()
       << std::right << std::setw(10) << params << std::setw(14) << node.cost.macs << '\n';
  }
  os << "total params: " << total_params << " | total MACs/image: " << total_macs << '\n';
  return os.str();
}

}  // namespace mupod
