#include "nn/transforms.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "nn/layers.hpp"
#include "stats/rng.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

// conv -> bn -> relu -> conv -> bn -> conv -> bn, the last conv also
// feeding an eltwise add.
Network make_bn_net() {
  Network net("bn_net");
  net.add_input("data", 2, 6, 6);
  Conv2DLayer::Config c;
  c.in_channels = 2;
  c.out_channels = 4;
  c.kernel_h = c.kernel_w = 3;
  c.pad = 1;
  net.add("conv1", std::make_unique<Conv2DLayer>(c), std::vector<std::string>{"data"});
  net.add("bn1", std::make_unique<BatchNormScaleLayer>(4), std::vector<std::string>{"conv1"});
  net.add("relu1", std::make_unique<ReLULayer>(), std::vector<std::string>{"bn1"});
  Conv2DLayer::Config c2 = c;
  c2.in_channels = 4;
  c2.has_bias = false;  // exercises the bias-materialization path
  net.add("conv2", std::make_unique<Conv2DLayer>(c2), std::vector<std::string>{"relu1"});
  net.add("bn2", std::make_unique<BatchNormScaleLayer>(4), std::vector<std::string>{"conv2"});
  // conv3 feeds BOTH bn3 and the eltwise: bn3 must NOT fold.
  Conv2DLayer::Config c3 = c;
  c3.in_channels = 4;
  net.add("conv3", std::make_unique<Conv2DLayer>(c3), std::vector<std::string>{"bn2"});
  net.add("bn3", std::make_unique<BatchNormScaleLayer>(4), std::vector<std::string>{"conv3"});
  net.add("add", std::make_unique<EltwiseAddLayer>(), std::vector<std::string>{"bn3", "conv3"});
  net.finalize();

  init_weights_he(net, 17);
  // Non-trivial BN parameters.
  Rng rng(5);
  for (const char* name : {"bn1", "bn2", "bn3"}) {
    auto& bn = static_cast<BatchNormScaleLayer&>(net.layer(net.node_id(name)));
    for (std::int64_t i = 0; i < bn.scale().numel(); ++i) {
      bn.scale()[i] = static_cast<float>(rng.uniform(0.5, 1.5));
      bn.shift()[i] = static_cast<float>(rng.uniform(-0.3, 0.3));
    }
  }
  return net;
}

TEST(NetworkSummary, ListsEveryNodeAndTotals) {
  Network net = make_bn_net();
  const std::string s = network_summary(net);
  EXPECT_NE(s.find("conv1"), std::string::npos);
  EXPECT_NE(s.find("bn3"), std::string::npos);
  EXPECT_NE(s.find("total params:"), std::string::npos);
  EXPECT_NE(s.find("total MACs/image:"), std::string::npos);
}

}  // namespace
}  // namespace mupod
