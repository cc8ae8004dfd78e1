// Test-side remnants of the fault-injection harness. The reusable
// machinery (FaultKind / FaultSchedule / FaultyLayer / FaultInjector)
// was promoted to src/core/fault.hpp so the inference server can inject
// the same faults at its forward seam; what stays here is the small CNN builder
// with a fault planted mid-network, which depends on the zoo/data helpers
// and is only meaningful to tests. The pipeline must survive these faults
// with diagnostics and a conservative allocation — never a crash or a
// confident-but-garbage result.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/fault.hpp"
#include "data/synthetic.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "zoo/zoo.hpp"

namespace mupod::faulttest {

using mupod::FaultKind;
using mupod::FaultSchedule;
using mupod::FaultyLayer;

struct FaultyNet {
  Network net;
  std::vector<int> analyzed;     // conv1, conv2, fc — the allocated layers
  int faulty_node = -1;          // node id of the FaultyLayer (the relu)
  FaultyLayer* fault = nullptr;
  int channels = 3, height = 16, width = 16, num_classes = 10;
};

// input 3x16x16 -> conv1 -> [FaultyLayer around ReLU] -> pool -> conv2
// -> relu -> gap -> fc(10). He-initialized and calibrated like the zoo
// nets so activations have sane scales when the fault is dormant.
inline FaultyNet build_faulty_net(const FaultSchedule& schedule,
                                  const SyntheticImageDataset& dataset) {
  FaultyNet f;
  f.net = Network("faulty-net");
  const int in = f.net.add_input("data", f.channels, f.height, f.width);

  Conv2DLayer::Config c1;
  c1.in_channels = 3;
  c1.out_channels = 8;
  c1.kernel_h = c1.kernel_w = 3;
  c1.pad = 1;
  const int conv1 = f.net.add("conv1", std::make_unique<Conv2DLayer>(c1), std::vector<int>{in});

  auto faulty = std::make_unique<FaultyLayer>(std::make_unique<ReLULayer>(), schedule);
  f.fault = faulty.get();
  f.faulty_node = f.net.add("relu1(faulty)", std::move(faulty), std::vector<int>{conv1});

  PoolLayer::Config pc;
  pc.mode = PoolLayer::Mode::kMax;
  const int pool = f.net.add("pool1", std::make_unique<PoolLayer>(pc), std::vector<int>{f.faulty_node});

  Conv2DLayer::Config c2;
  c2.in_channels = 8;
  c2.out_channels = 12;
  c2.kernel_h = c2.kernel_w = 3;
  c2.pad = 1;
  const int conv2 = f.net.add("conv2", std::make_unique<Conv2DLayer>(c2), std::vector<int>{pool});
  const int relu2 = f.net.add("relu2", std::make_unique<ReLULayer>(), std::vector<int>{conv2});

  PoolLayer::Config gc;
  gc.mode = PoolLayer::Mode::kAvg;
  gc.global = true;
  const int gap = f.net.add("gap", std::make_unique<PoolLayer>(gc), std::vector<int>{relu2});
  const int fc =
      f.net.add("fc", std::make_unique<InnerProductLayer>(12, f.num_classes), std::vector<int>{gap});
  (void)fc;
  f.net.finalize();
  f.analyzed = f.net.analyzable_nodes();

  init_weights_he(f.net, 4242);
  // Calibrate with the fault disarmed so scales reflect the healthy net;
  // arm it afterwards with the call counter at zero.
  f.fault->arm(false);
  calibrate_activations(f.net, dataset.make_batch(0, 16));
  center_output_logits(f.net, dataset.make_batch(0, 16));
  f.fault->reset_calls();
  f.fault->arm(true);
  return f;
}

inline SyntheticImageDataset make_faulty_dataset() {
  DatasetConfig dc;
  dc.num_classes = 10;
  dc.channels = 3;
  dc.height = 16;
  dc.width = 16;
  dc.seed = 7;
  return SyntheticImageDataset(dc);
}

}  // namespace mupod::faulttest
