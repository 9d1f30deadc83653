#include "nn/layers.h"

#include <gtest/gtest.h>

#include "test_common.h"

namespace alfi::nn {
namespace {

/// Generic numerical gradient check: builds loss = sum(gy * model(x))
/// and compares Module::backward against central differences on both a
/// parameter entry and an input entry.
void check_gradients(Module& layer, const Shape& input_shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor input = Tensor::uniform(input_shape, rng, -1, 1);
  layer.set_training(true);

  const Tensor y0 = layer.forward(input);
  Rng gy_rng(seed + 1);
  const Tensor gy = Tensor::uniform(y0.shape(), gy_rng, -1, 1);

  auto loss_with_input = [&](const Tensor& x) {
    const Tensor y = layer.forward(x);
    double loss = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) loss += y.raw()[i] * gy.raw()[i];
    return static_cast<float>(loss);
  };

  // analytic gradients
  layer.zero_grad();
  layer.forward(input);
  const Tensor grad_input = layer.backward(gy);

  // input gradient at a few positions
  for (std::size_t index = 0; index < input.numel();
       index += std::max<std::size_t>(1, input.numel() / 3)) {
    Tensor x2 = input;
    const float numeric = test::numerical_gradient(
        [&](float v) {
          x2.flat(index) = v;
          return loss_with_input(x2);
        },
        input.flat(index));
    test::expect_close(grad_input.flat(index), numeric, 2e-2f, 2e-2f,
                       layer.type() + " grad_input[" + std::to_string(index) + "]");
  }

  // parameter gradients at a few positions
  layer.zero_grad();
  layer.forward(input);
  layer.backward(gy);
  for (Parameter* p : layer.parameters()) {
    for (std::size_t index = 0; index < p->value.numel();
         index += std::max<std::size_t>(1, p->value.numel() / 2)) {
      const float saved = p->value.flat(index);
      const float numeric = test::numerical_gradient(
          [&](float v) {
            p->value.flat(index) = v;
            const float loss = loss_with_input(input);
            p->value.flat(index) = saved;
            return loss;
          },
          saved);
      test::expect_close(p->grad.flat(index), numeric, 2e-2f, 2e-2f,
                         layer.type() + " " + p->name + "[" +
                             std::to_string(index) + "]");
    }
  }
}

TEST(Conv2dLayer, OutputShape) {
  Conv2d conv(3, 8, 3, 1, 1);
  const Tensor y = conv.forward(Tensor(Shape{2, 3, 16, 16}));
  EXPECT_EQ(y.shape(), Shape({2, 8, 16, 16}));
}

TEST(Conv2dLayer, StridedOutputShape) {
  Conv2d conv(1, 4, 3, 2, 1);
  const Tensor y = conv.forward(Tensor(Shape{1, 1, 9, 9}));
  EXPECT_EQ(y.shape(), Shape({1, 4, 5, 5}));
}

TEST(Conv2dLayer, GradientCheck) {
  Conv2d conv(2, 3, 3, 1, 1);
  Rng rng(5);
  conv.init(rng);
  check_gradients(conv, Shape{1, 2, 4, 4}, 100);
}

TEST(Conv3dLayer, OutputShapeAndGradient) {
  Conv3d conv(1, 2, 2, 1, 0);
  Rng rng(6);
  conv.init(rng);
  const Tensor y = conv.forward(Tensor(Shape{1, 1, 4, 4, 4}));
  EXPECT_EQ(y.shape(), Shape({1, 2, 3, 3, 3}));
  check_gradients(conv, Shape{1, 1, 3, 3, 3}, 101);
}

TEST(LinearLayer, GradientCheck) {
  Linear linear(6, 4);
  Rng rng(7);
  linear.init(rng);
  check_gradients(linear, Shape{3, 6}, 102);
}

TEST(ReLULayer, GradientCheck) {
  ReLU relu;
  check_gradients(relu, Shape{2, 5}, 103);
}

TEST(LeakyReLULayer, GradientCheck) {
  LeakyReLU leaky(0.1f);
  check_gradients(leaky, Shape{2, 5}, 104);
}

TEST(SigmoidLayer, GradientCheck) {
  Sigmoid sigmoid;
  check_gradients(sigmoid, Shape{2, 4}, 105);
}

TEST(TanhLayer, GradientCheck) {
  Tanh tanh_layer;
  check_gradients(tanh_layer, Shape{2, 4}, 106);
}

TEST(MaxPoolLayer, GradientCheck) {
  MaxPool2d pool(2);
  check_gradients(pool, Shape{1, 2, 4, 4}, 107);
}

TEST(AvgPoolLayer, GradientCheck) {
  AvgPool2d pool(2);
  check_gradients(pool, Shape{1, 2, 4, 4}, 108);
}

TEST(GlobalAvgPoolLayer, GradientCheck) {
  GlobalAvgPool2d pool;
  check_gradients(pool, Shape{2, 3, 4, 4}, 109);
}

TEST(FlattenLayer, RoundTripShape) {
  Flatten flatten;
  flatten.set_training(true);
  const Tensor y = flatten.forward(Tensor(Shape{2, 3, 4, 5}));
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  const Tensor gx = flatten.backward(Tensor(Shape{2, 60}));
  EXPECT_EQ(gx.shape(), Shape({2, 3, 4, 5}));
}

TEST(BatchNormLayer, NormalizesInTrainingMode) {
  BatchNorm2d bn(2);
  bn.set_training(true);
  Rng rng(11);
  const Tensor x = Tensor::normal(Shape{4, 2, 8, 8}, rng, 5.0f, 3.0f);
  const Tensor y = bn.forward(x);
  // per-channel mean ~0, var ~1
  const std::size_t plane = 8 * 8;
  for (std::size_t ch = 0; ch < 2; ++ch) {
    double mean = 0.0, var = 0.0;
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t i = 0; i < plane; ++i) {
        mean += y.raw()[(s * 2 + ch) * plane + i];
      }
    }
    mean /= 4 * plane;
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t i = 0; i < plane; ++i) {
        const double d = y.raw()[(s * 2 + ch) * plane + i] - mean;
        var += d * d;
      }
    }
    var /= 4 * plane;
    EXPECT_NEAR(mean, 0.0, 1e-3);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormLayer, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  bn.set_training(true);
  Rng rng(13);
  // accumulate running stats over several batches
  for (int i = 0; i < 50; ++i) {
    bn.forward(Tensor::normal(Shape{8, 1, 4, 4}, rng, 2.0f, 1.0f));
  }
  bn.set_training(false);
  // eval on a constant input equal to the mean -> output near 0
  const Tensor y = bn.forward(Tensor::full(Shape{1, 1, 4, 4}, 2.0f));
  EXPECT_NEAR(y.flat(0), 0.0f, 0.2f);
}

TEST(BatchNormLayer, GradientCheck) {
  BatchNorm2d bn(2);
  check_gradients(bn, Shape{3, 2, 3, 3}, 110);
}

TEST(BatchNormLayer, RejectsWrongChannelCount) {
  BatchNorm2d bn(4);
  EXPECT_THROW(bn.forward(Tensor(Shape{1, 3, 2, 2})), Error);
}

TEST(DropoutLayer, EvalIsIdentity) {
  Rng rng(17);
  Dropout dropout(0.5f, &rng);
  const Tensor x(Shape{4}, std::vector<float>{1, 2, 3, 4});
  EXPECT_EQ(dropout.forward(x), x);
}

TEST(DropoutLayer, TrainZeroesApproximatelyP) {
  Rng rng(19);
  Dropout dropout(0.5f, &rng);
  dropout.set_training(true);
  const Tensor x = Tensor::ones(Shape{10000});
  const Tensor y = dropout.forward(x);
  std::size_t zeros = 0;
  for (const float v : y.data()) {
    if (v == 0.0f) ++zeros;
    else EXPECT_FLOAT_EQ(v, 2.0f);  // inverted scaling 1/(1-p)
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.03);
}

TEST(DropoutLayer, RejectsBadProbability) {
  Rng rng(19);
  EXPECT_THROW(Dropout(1.0f, &rng), Error);
  EXPECT_THROW(Dropout(-0.1f, &rng), Error);
  EXPECT_THROW(Dropout(0.5f, nullptr), Error);
}

TEST(SequentialLayer, ChainsAndBackpropagates) {
  auto net = std::make_shared<Sequential>();
  net->append(std::make_shared<Linear>(4, 8));
  net->append(std::make_shared<ReLU>());
  net->append(std::make_shared<Linear>(8, 2));
  Rng rng(23);
  kaiming_init(*net, rng);
  check_gradients(*net, Shape{2, 4}, 111);
}

TEST(ResidualLayer, IdentityShortcutGradientCheck) {
  auto main = std::make_shared<Sequential>();
  main->append(std::make_shared<Conv2d>(2, 2, 3, 1, 1));
  Residual block(main);
  Rng rng(29);
  kaiming_init(block, rng);
  check_gradients(block, Shape{1, 2, 4, 4}, 112);
}

TEST(ResidualLayer, ProjectionShortcutGradientCheck) {
  auto main = std::make_shared<Sequential>();
  main->append(std::make_shared<Conv2d>(2, 4, 3, 2, 1));
  auto shortcut = std::make_shared<Sequential>();
  shortcut->append(std::make_shared<Conv2d>(2, 4, 1, 2, 0));
  Residual block(main, shortcut);
  Rng rng(31);
  kaiming_init(block, rng);
  check_gradients(block, Shape{1, 2, 4, 4}, 113);
}

TEST(KaimingInit, InitializesAllInjectableLayers) {
  auto net = std::make_shared<Sequential>();
  net->append(std::make_shared<Conv2d>(1, 4, 3, 1, 1));
  net->append(std::make_shared<Linear>(4, 2));
  Rng rng(37);
  kaiming_init(*net, rng);
  for (Parameter* p : net->parameters()) {
    if (p->name == "weight") {
      EXPECT_NE(p->value.sum(), 0.0f);
    }
  }
}

TEST(Backward, BeforeForwardThrows) {
  Conv2d conv(1, 1, 1);
  EXPECT_THROW(conv.backward(Tensor(Shape{1, 1, 1, 1})), Error);
}

TEST(Backward, EvalModeForwardDoesNotCache) {
  Linear linear(2, 2);
  linear.set_training(false);
  linear.forward(Tensor(Shape{1, 2}));
  EXPECT_THROW(linear.backward(Tensor(Shape{1, 2})), Error);
}

}  // namespace
}  // namespace alfi::nn
