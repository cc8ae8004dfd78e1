#include "zoo/zoo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "data/synthetic.hpp"
#include "nn/layers.hpp"

namespace mupod {
namespace {

ZooOptions fast_opts() {
  ZooOptions o;
  o.num_classes = 20;
  o.seed = 77;
  o.calibration_images = 4;
  return o;
}

ZooOptions uncalibrated() {
  ZooOptions o = fast_opts();
  o.calibration_images = 0;
  return o;
}

// The paper's Table III "# layers" column — the load-bearing topology fact.
struct LayerCountCase {
  const char* name;
  int layers;
};

// Without this, gtest prints the raw bytes of the case, pointer included, so
// the listed test name changed with every process (address randomisation).
void PrintTo(const LayerCountCase& c, std::ostream* os) { *os << c.name << '/' << c.layers; }

class ZooLayerCount : public ::testing::TestWithParam<LayerCountCase> {};

TEST_P(ZooLayerCount, MatchesPaperTable3) {
  const auto& p = GetParam();
  const ZooModel m = build_model(p.name, uncalibrated());
  EXPECT_EQ(static_cast<int>(m.analyzed.size()), p.layers) << p.name;
}

INSTANTIATE_TEST_SUITE_P(PaperTable3, ZooLayerCount,
                         ::testing::Values(LayerCountCase{"alexnet", 5},
                                           LayerCountCase{"nin", 12},
                                           LayerCountCase{"googlenet", 57},
                                           LayerCountCase{"vgg19", 16},
                                           LayerCountCase{"resnet50", 54},
                                           LayerCountCase{"resnet152", 156},
                                           LayerCountCase{"squeezenet", 26},
                                           LayerCountCase{"mobilenet", 28}),
                         [](const auto& info) { return std::string(info.param.name); });

class ZooForward : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooForward, ProducesFiniteLogits) {
  ZooModel m = build_model(GetParam(), fast_opts());
  DatasetConfig dc;
  dc.channels = m.channels;
  dc.height = m.height;
  dc.width = m.width;
  dc.num_classes = m.num_classes;
  SyntheticImageDataset ds(dc);
  const Tensor logits = m.net.forward(ds.make_batch(0, 2));
  EXPECT_EQ(logits.shape().dim(0), 2);
  EXPECT_EQ(logits.numel() / 2, m.num_classes);
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(logits[i])) << GetParam();
  }
  // Calibrated activations: logits should be O(1), not exploded/vanished.
  EXPECT_GT(logits.stddev(), 1e-3) << GetParam();
  EXPECT_LT(logits.stddev(), 100.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooForward,
                         ::testing::Values("tiny", "alexnet", "nin", "googlenet", "vgg19",
                                           "resnet50", "squeezenet", "mobilenet"),
                         [](const auto& info) { return std::string(info.param); });

TEST(Zoo, NamesListMatchesPaperOrder) {
  const auto names = zoo_model_names();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "alexnet");
  EXPECT_EQ(names.back(), "mobilenet");
}

TEST(Zoo, UnknownNameThrows) {
  EXPECT_THROW(build_model("lenet9000", fast_opts()), std::invalid_argument);
}

TEST(Zoo, DeterministicGivenSeed) {
  ZooModel a = build_model("tiny", fast_opts());
  ZooModel b = build_model("tiny", fast_opts());
  DatasetConfig dc;
  dc.height = a.height;
  dc.width = a.width;
  SyntheticImageDataset ds(dc);
  const Tensor batch = ds.make_batch(0, 2);
  EXPECT_DOUBLE_EQ(max_abs_diff(a.net.forward(batch), b.net.forward(batch)), 0.0);
}

TEST(Zoo, AlexNetExcludesFcFromAnalysis) {
  const ZooModel m = build_alexnet(uncalibrated());
  for (int id : m.analyzed) {
    EXPECT_EQ(m.net.layer(id).kind(), LayerKind::kConv);
  }
  // But the network itself still has the fc layers for classification.
  EXPECT_GE(m.net.analyzable_nodes().size(), m.analyzed.size() + 3);
}

TEST(Zoo, ResnetIncludesFcInAnalysis) {
  const ZooModel m = build_resnet50(uncalibrated());
  bool has_fc = false;
  for (int id : m.analyzed)
    if (m.net.layer(id).kind() == LayerKind::kInnerProduct) has_fc = true;
  EXPECT_TRUE(has_fc);
}

TEST(Zoo, CalibrationNormalizesActivations) {
  ZooModel raw = build_model("vgg19", uncalibrated());
  ZooModel cal = build_model("vgg19", fast_opts());

  DatasetConfig dc;
  dc.num_classes = 20;
  SyntheticImageDataset ds(dc);
  const Tensor batch = ds.make_batch(0, 4);

  // Without calibration, a 16-layer He-initialized stack drifts in scale;
  // with calibration every analyzable layer's output s.d. is ~1 — except
  // the classifier head, whose scale is set by head training instead.
  const std::vector<Tensor> acts = cal.net.forward_all(batch);
  const auto& nodes = cal.net.analyzable_nodes();
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const int id = nodes[i];
    const double sd = acts[static_cast<std::size_t>(id)].stddev();
    EXPECT_GT(sd, 0.5) << "node " << id;
    EXPECT_LT(sd, 2.0) << "node " << id;
  }
  (void)raw;
}

TEST(Zoo, CostsAggregateOverAnalyzedLayers) {
  const ZooModel m = build_nin(uncalibrated());
  std::int64_t inputs = 0, macs = 0;
  for (int id : m.analyzed) {
    inputs += m.net.node(id).cost.input_elems;
    macs += m.net.node(id).cost.macs;
    EXPECT_GT(m.net.node(id).cost.macs, 0);
  }
  EXPECT_GT(inputs, 0);
  EXPECT_GT(macs, inputs);  // convolutions always do >1 MAC per input read
}

TEST(Zoo, MobilenetUsesDepthwiseGroups) {
  const ZooModel m = build_mobilenet(uncalibrated());
  bool found_depthwise = false;
  for (int id : m.analyzed) {
    if (m.net.layer(id).kind() != LayerKind::kConv) continue;
    const auto& cfg = static_cast<const Conv2DLayer&>(m.net.layer(id)).config();
    if (cfg.groups > 1 && cfg.groups == cfg.in_channels) found_depthwise = true;
  }
  EXPECT_TRUE(found_depthwise);
}

}  // namespace
}  // namespace mupod
