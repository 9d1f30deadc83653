#include "nn/prune.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "models/classification.h"
#include "models/train.h"
#include "nn/layers.h"

namespace alfi::nn {
namespace {

std::shared_ptr<Sequential> small_net() {
  auto net = std::make_shared<Sequential>();
  net->append(std::make_shared<Conv2d>(1, 4, 3, 1, 1));
  net->append(std::make_shared<ReLU>());
  net->append(std::make_shared<Flatten>());
  net->append(std::make_shared<Linear>(4 * 4 * 4, 5));
  Rng rng(3);
  kaiming_init(*net, rng);
  return net;
}

TEST(Prune, ZeroFractionIsNoop) {
  auto net = small_net();
  const PruneReport report = prune_by_magnitude(*net, 0.0f);
  EXPECT_EQ(report.pruned, 0u);
  EXPECT_NEAR(weight_sparsity(*net), 0.0f, 1e-6f);
}

TEST(Prune, PrunesRequestedFraction) {
  auto net = small_net();
  const PruneReport report = prune_by_magnitude(*net, 0.5f);
  EXPECT_EQ(report.considered, 4u * 9u + 320u);
  EXPECT_NEAR(static_cast<float>(report.pruned) /
                  static_cast<float>(report.considered),
              0.5f, 0.02f);
  EXPECT_NEAR(weight_sparsity(*net), 0.5f, 0.02f);
}

TEST(Prune, RemovesSmallestMagnitudesFirst) {
  auto net = small_net();
  const PruneReport report = prune_by_magnitude(*net, 0.3f);
  // every surviving weight is at least as large as the threshold
  net->for_each_module([&](const std::string&, Module& m) {
    if (m.kind() == LayerKind::kOther) return;
    for (const float v : m.weight_param()->value.data()) {
      if (v != 0.0f) {
        EXPECT_GE(std::fabs(v), report.threshold);
      }
    }
  });
}

TEST(Prune, BiasesUntouched) {
  auto net = small_net();
  for (Parameter* p : net->parameters()) {
    if (p->name == "bias") p->value.fill(1e-12f);  // tiny but must survive
  }
  prune_by_magnitude(*net, 0.9f);
  net->for_each_module([&](const std::string&, Module& m) {
    if (m.kind() == LayerKind::kOther) return;
    for (const float v : m.bias_param()->value.data()) {
      EXPECT_NE(v, 0.0f);
    }
  });
}

TEST(Prune, RejectsBadFraction) {
  auto net = small_net();
  EXPECT_THROW(prune_by_magnitude(*net, 1.0f), Error);
  EXPECT_THROW(prune_by_magnitude(*net, -0.1f), Error);
}

TEST(Prune, ModeratePruningKeepsAccuracy) {
  // end-to-end sanity: a trained LeNet keeps most accuracy at 30%
  // sparsity (the premise of the pruned-robustness use case).
  const data::SyntheticShapesClassification dataset(
      {.size = 60, .num_classes = 4, .seed = 8});
  auto net = models::make_lenet({.num_classes = 4});
  models::TrainConfig config;
  config.epochs = 12;
  config.batch_size = 20;
  config.learning_rate = 0.02f;
  models::train_classifier(*net, dataset, config);
  const float before = models::evaluate_classifier(*net, dataset);
  prune_by_magnitude(*net, 0.3f);
  const float after = models::evaluate_classifier(*net, dataset);
  EXPECT_GT(before, 0.85f);
  EXPECT_GT(after, before - 0.2f);
}

}  // namespace
}  // namespace alfi::nn
