#include "models/classification.h"
#include "models/train.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "tensor/bits.h"
#include "test_common.h"

namespace alfi::models {
namespace {

TEST(Classifiers, OutputShapes) {
  const Tensor input(Shape{2, 3, 32, 32});
  for (const char* name : {"alexnet", "vgg", "resnet", "lenet"}) {
    auto net = make_classifier(name, {});
    const Tensor logits = net->forward(input);
    EXPECT_EQ(logits.shape(), Shape({2, 10})) << name;
  }
}

TEST(Classifiers, UnknownNameThrows) {
  EXPECT_THROW(make_classifier("transformer", {}), ConfigError);
}

TEST(Classifiers, ParameterOrdering) {
  // MiniVGG (no batch-norm) has more parameters than MiniResNet — the
  // relative-size property behind the paper's Fig. 2a SDE ordering.
  auto vgg = make_mini_vgg({});
  auto resnet = make_mini_resnet({});
  auto alexnet = make_mini_alexnet({});
  EXPECT_GT(vgg->parameter_count(), resnet->parameter_count());
  EXPECT_GT(alexnet->parameter_count(), resnet->parameter_count());
}

TEST(Classifiers, CustomClassCount) {
  auto net = make_lenet({.num_classes = 4});
  EXPECT_EQ(net->forward(Tensor(Shape{1, 3, 32, 32})).shape(), Shape({1, 4}));
}

TEST(Conv3dClassifier, ForwardShape) {
  auto net = make_conv3d_classifier({});
  const Tensor logits = net->forward(Tensor(Shape{2, 1, 8, 16, 16}));
  EXPECT_EQ(logits.shape(), Shape({2, 4}));
}

TEST(Training, LenetLearnsSyntheticClasses) {
  const data::SyntheticShapesClassification dataset(
      {.size = 80, .num_classes = 4, .seed = 11});
  auto net = make_lenet({.num_classes = 4});
  TrainConfig config;
  config.epochs = 8;
  config.batch_size = 16;
  config.learning_rate = 0.02f;
  const float accuracy = train_classifier(*net, dataset, config);
  EXPECT_GT(accuracy, 0.8f) << "LeNet failed to learn the synthetic set";
  EXPECT_GT(evaluate_classifier(*net, dataset), 0.8f);
}

TEST(Training, EvaluationMatchesTrainingMetric) {
  const data::SyntheticShapesClassification dataset(
      {.size = 40, .num_classes = 4, .seed = 13});
  auto net = make_lenet({.num_classes = 4});
  TrainConfig config;
  config.epochs = 6;
  config.batch_size = 20;
  train_classifier(*net, dataset, config);
  const float eval1 = evaluate_classifier(*net, dataset);
  const float eval2 = evaluate_classifier(*net, dataset);
  EXPECT_FLOAT_EQ(eval1, eval2);  // eval is deterministic
}

TEST(Training, CachedTrainingSkipsRetraining) {
  test::TempDir dir("cache");
  const data::SyntheticShapesClassification dataset(
      {.size = 40, .num_classes = 4, .seed = 17});
  auto net = make_lenet({.num_classes = 4});
  TrainConfig config;
  config.epochs = 4;
  config.batch_size = 20;
  const std::string cache = dir.file("lenet.bin");
  const float first = train_classifier_cached(*net, dataset, config, cache);
  EXPECT_GE(first, 0.0f);

  auto net2 = make_lenet({.num_classes = 4});
  const float second = train_classifier_cached(*net2, dataset, config, cache);
  EXPECT_LT(second, 0.0f);  // loaded from cache
  const Tensor input = dataset.get(0).image.reshaped(Shape{1, 3, 32, 32});
  EXPECT_LT(Tensor::max_abs_diff(net->forward(input), net2->forward(input)), 1e-6f);
}

TEST(Training, StaleCacheRetrainsInsteadOfThrowing) {
  // A cache written for another definition of the architecture (here a
  // 10-class LeNet head under a 4-class model) is a miss: the model
  // retrains and the cache is rewritten with the retrained weights.
  test::TempDir dir("stale_cache");
  const data::SyntheticShapesClassification dataset(
      {.size = 40, .num_classes = 4, .seed = 17});
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 20;
  const std::string cache = dir.file("lenet.params");
  nn::save_parameters(*make_lenet({.num_classes = 10}), cache);

  auto cached = make_lenet({.num_classes = 4});
  float accuracy = -1.0f;
  EXPECT_NO_THROW(accuracy = train_classifier_cached(*cached, dataset, config, cache));
  EXPECT_GE(accuracy, 0.0f);  // retrained, not loaded

  auto reloaded = make_lenet({.num_classes = 4});
  EXPECT_LT(train_classifier_cached(*reloaded, dataset, config, cache), 0.0f);
  const Tensor input = dataset.get(0).image.reshaped(Shape{1, 3, 32, 32});
  EXPECT_EQ(Tensor::max_abs_diff(reloaded->forward(input), cached->forward(input)), 0.0f);
}

TEST(Training, FailedLoadLeavesModelUntouched) {
  // A 10-class LeNet file matches a 4-class LeNet by name and shape in
  // every layer but the head, so its load fails at the last tensor.  The
  // load is all or nothing: the 4-class model keeps its own weights, and
  // its outputs stay bit-identical.
  test::TempDir dir("failed_load");
  const std::string path = dir.file("lenet10.params");
  auto ten = make_lenet({.num_classes = 10});
  Rng ten_rng(5);
  nn::kaiming_init(*ten, ten_rng);
  nn::save_parameters(*ten, path);

  auto four = make_lenet({.num_classes = 4});
  Rng four_rng(6);
  nn::kaiming_init(*four, four_rng);
  four->set_training(false);
  const data::SyntheticShapesClassification dataset(
      {.size = 4, .num_classes = 4, .seed = 17});
  const Tensor input = dataset.get(0).image.reshaped(Shape{1, 3, 32, 32});
  const Tensor before = four->forward(input);

  EXPECT_THROW(nn::load_parameters(*four, path), ParseError);
  const Tensor after = four->forward(input);
  ASSERT_EQ(before.shape(), after.shape());
  for (std::size_t i = 0; i < before.numel(); ++i) {
    EXPECT_EQ(bits::to_bits(before.data()[i]), bits::to_bits(after.data()[i]))
        << "logit " << i;
  }
}

}  // namespace
}  // namespace alfi::models
