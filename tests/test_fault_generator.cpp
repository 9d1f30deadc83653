#include "core/fault_generator.h"

#include <gtest/gtest.h>

#include <map>

#include "models/classification.h"
#include "nn/layers.h"

namespace alfi::core {
namespace {

std::shared_ptr<nn::Sequential> three_layer_net() {
  auto net = std::make_shared<nn::Sequential>();
  net->append(std::make_shared<nn::Conv2d>(1, 4, 3, 1, 1));   // weights 36
  net->append(std::make_shared<nn::ReLU>());
  net->append(std::make_shared<nn::Conv2d>(4, 8, 3, 1, 1));   // weights 288
  net->append(std::make_shared<nn::ReLU>());
  net->append(std::make_shared<nn::Flatten>());
  net->append(std::make_shared<nn::Linear>(8 * 8 * 8, 10));   // weights 5120
  return net;
}

class GeneratorFixture : public ::testing::Test {
 protected:
  GeneratorFixture()
      : net_(three_layer_net()), profile_(*net_, Tensor(Shape{1, 1, 8, 8})) {}

  std::shared_ptr<nn::Sequential> net_;
  ModelProfile profile_;
};

TEST_F(GeneratorFixture, TotalCountIsProduct) {
  Scenario s;
  s.dataset_size = 10;
  s.num_runs = 2;
  s.max_faults_per_image = 3;
  Rng rng(1);
  const FaultMatrix matrix = generate_fault_matrix(s, profile_, rng);
  EXPECT_EQ(matrix.size(), 60u);
}

TEST_F(GeneratorFixture, NeuronCoordinatesAlwaysInRange) {
  Scenario s;
  s.target = FaultTarget::kNeurons;
  s.dataset_size = 500;
  Rng rng(2);
  const FaultMatrix matrix = generate_fault_matrix(s, profile_, rng);
  for (const Fault& f : matrix.faults()) {
    ASSERT_GE(f.layer, 0);
    const LayerInfo& layer = profile_.layer(static_cast<std::size_t>(f.layer));
    // neuron_offset itself range-checks every coordinate
    EXPECT_LT(f.neuron_offset(layer.output_shape), layer.neuron_count);
    EXPECT_GE(f.bit_pos, 0);
    EXPECT_LE(f.bit_pos, 31);
  }
}

TEST_F(GeneratorFixture, WeightCoordinatesAlwaysInRange) {
  Scenario s;
  s.target = FaultTarget::kWeights;
  s.dataset_size = 500;
  Rng rng(3);
  const FaultMatrix matrix = generate_fault_matrix(s, profile_, rng);
  for (const Fault& f : matrix.faults()) {
    const LayerInfo& layer = profile_.layer(static_cast<std::size_t>(f.layer));
    EXPECT_LT(f.weight_offset(layer.weight_shape), layer.weight_count);
  }
}

TEST_F(GeneratorFixture, BitRangeRespected) {
  Scenario s;
  s.rnd_bit_range_lo = 23;
  s.rnd_bit_range_hi = 30;
  s.dataset_size = 300;
  Rng rng(4);
  const FaultMatrix matrix = generate_fault_matrix(s, profile_, rng);
  for (const Fault& f : matrix.faults()) {
    EXPECT_GE(f.bit_pos, 23);
    EXPECT_LE(f.bit_pos, 30);
  }
}

TEST_F(GeneratorFixture, RandomValueRangeRespected) {
  Scenario s;
  s.value_type = ValueType::kRandomValue;
  s.rnd_value_min = -0.5f;
  s.rnd_value_max = 0.5f;
  s.dataset_size = 300;
  Rng rng(5);
  const FaultMatrix matrix = generate_fault_matrix(s, profile_, rng);
  for (const Fault& f : matrix.faults()) {
    EXPECT_GE(f.number_value, -0.5f);
    EXPECT_LT(f.number_value, 0.5f);
    EXPECT_EQ(f.bit_pos, -1);
  }
}

TEST_F(GeneratorFixture, LayerTypeRestrictionHonored) {
  Scenario s;
  s.layer_types = {nn::LayerKind::kLinear};
  s.dataset_size = 100;
  Rng rng(6);
  const FaultMatrix matrix = generate_fault_matrix(s, profile_, rng);
  for (const Fault& f : matrix.faults()) {
    EXPECT_EQ(f.layer, 2);  // only the Linear layer is eligible
  }
}

TEST_F(GeneratorFixture, LayerRangeRestrictionHonored) {
  Scenario s;
  s.layer_range = {{0, 1}};
  s.dataset_size = 200;
  Rng rng(7);
  const FaultMatrix matrix = generate_fault_matrix(s, profile_, rng);
  for (const Fault& f : matrix.faults()) {
    EXPECT_LE(f.layer, 1);
  }
}

TEST_F(GeneratorFixture, ImpossibleRestrictionThrows) {
  Scenario s;
  s.layer_types = {nn::LayerKind::kConv3d};  // net has no conv3d
  EXPECT_THROW(eligible_layers(s, profile_), ConfigError);
}

TEST_F(GeneratorFixture, WeightedSelectionFollowsEq1) {
  // Eq. (1): draw frequency of layer i ~ size_i / total.  For weights:
  // 36 / 288 / 5120 out of 5444.
  Scenario s;
  s.target = FaultTarget::kWeights;
  s.weighted_layer_selection = true;
  s.dataset_size = 20000;
  Rng rng(8);
  const FaultMatrix matrix = generate_fault_matrix(s, profile_, rng);
  std::map<std::int64_t, std::size_t> counts;
  for (const Fault& f : matrix.faults()) ++counts[f.layer];

  const double total = 36.0 + 288.0 + 5120.0;
  EXPECT_NEAR(counts[0] / 20000.0, 36.0 / total, 0.01);
  EXPECT_NEAR(counts[1] / 20000.0, 288.0 / total, 0.02);
  EXPECT_NEAR(counts[2] / 20000.0, 5120.0 / total, 0.02);
}

TEST_F(GeneratorFixture, UniformSelectionIgnoresSize) {
  Scenario s;
  s.target = FaultTarget::kWeights;
  s.weighted_layer_selection = false;
  s.dataset_size = 9000;
  Rng rng(9);
  const FaultMatrix matrix = generate_fault_matrix(s, profile_, rng);
  std::map<std::int64_t, std::size_t> counts;
  for (const Fault& f : matrix.faults()) ++counts[f.layer];
  for (const auto& [layer, count] : counts) {
    EXPECT_NEAR(count / 9000.0, 1.0 / 3.0, 0.02) << "layer " << layer;
  }
}

TEST_F(GeneratorFixture, NeuronWeightingUsesNeuronCounts) {
  // Neuron counts: conv1 4*8*8=256, conv2 8*8*8=512, linear 10.
  Scenario s;
  s.target = FaultTarget::kNeurons;
  s.weighted_layer_selection = true;
  s.dataset_size = 20000;
  Rng rng(10);
  const FaultMatrix matrix = generate_fault_matrix(s, profile_, rng);
  std::map<std::int64_t, std::size_t> counts;
  for (const Fault& f : matrix.faults()) ++counts[f.layer];
  const double total = 256.0 + 512.0 + 10.0;
  EXPECT_NEAR(counts[0] / 20000.0, 256.0 / total, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 512.0 / total, 0.02);
}

TEST_F(GeneratorFixture, PolicyControlsBatchSlot) {
  Scenario s;
  s.target = FaultTarget::kNeurons;
  s.dataset_size = 100;

  s.inj_policy = InjectionPolicy::kPerImage;
  Rng rng1(11);
  const FaultMatrix per_image = generate_fault_matrix(s, profile_, rng1);
  for (const Fault& f : per_image.faults()) {
    EXPECT_EQ(f.batch, 0);
  }

  s.inj_policy = InjectionPolicy::kPerBatch;
  s.batch_size = 4;
  Rng rng2(12);
  bool any_nonzero = false;
  const FaultMatrix per_batch = generate_fault_matrix(s, profile_, rng2);
  for (const Fault& f : per_batch.faults()) {
    EXPECT_GE(f.batch, 0);
    EXPECT_LT(f.batch, 4);
    if (f.batch != 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);

  s.inj_policy = InjectionPolicy::kPerEpoch;
  Rng rng3(13);
  const FaultMatrix per_epoch = generate_fault_matrix(s, profile_, rng3);
  for (const Fault& f : per_epoch.faults()) {
    EXPECT_EQ(f.batch, -1);  // applies to every sample
  }
}

TEST_F(GeneratorFixture, DeterministicFromSeed) {
  Scenario s;
  s.dataset_size = 50;
  Rng a(99), b(99);
  EXPECT_EQ(generate_fault_matrix(s, profile_, a),
            generate_fault_matrix(s, profile_, b));
}

TEST_F(GeneratorFixture, TargetRecordedOnFaults) {
  Scenario s;
  s.target = FaultTarget::kWeights;
  s.dataset_size = 10;
  Rng rng(14);
  const FaultMatrix matrix = generate_fault_matrix(s, profile_, rng);
  for (const Fault& f : matrix.faults()) {
    EXPECT_EQ(f.target, FaultTarget::kWeights);
    EXPECT_EQ(f.batch, -1);  // weight faults have no batch slot
  }
}

TEST(GeneratorConv3d, DepthCoordinateUsed) {
  auto net = models::make_conv3d_classifier({});
  const ModelProfile profile(*net, Tensor(Shape{1, 1, 8, 16, 16}));
  Scenario s;
  s.target = FaultTarget::kNeurons;
  s.layer_types = {nn::LayerKind::kConv3d};
  s.dataset_size = 200;
  Rng rng(15);
  const FaultMatrix matrix = generate_fault_matrix(s, profile, rng);
  bool any_depth = false;
  for (const Fault& f : matrix.faults()) {
    if (f.depth > 0) any_depth = true;
  }
  EXPECT_TRUE(any_depth) << "conv3d neuron faults must use the Depth row";
}

}  // namespace
}  // namespace alfi::core
