#include "nn/layers.h"

#include <cmath>

#include "nn/workspace.h"

namespace alfi::nn {

namespace {

float kaiming_stddev(std::size_t fan_in) {
  ALFI_CHECK(fan_in > 0, "fan_in must be positive");
  return std::sqrt(2.0f / static_cast<float>(fan_in));
}

}  // namespace

// ---- Conv2d ----------------------------------------------------------------

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      spec_{stride, padding},
      weight_(register_parameter(
          "weight", Tensor(Shape{out_channels, in_channels, kernel, kernel}))),
      bias_(register_parameter("bias", Tensor(Shape{out_channels}))) {}

void Conv2d::init(Rng& rng) {
  const float stddev = kaiming_stddev(in_channels_ * kernel_ * kernel_);
  weight_->value = Tensor::normal(weight_->value.shape(), rng, 0.0f, stddev);
  bias_->value.fill(0.0f);
}

Tensor Conv2d::compute(const Tensor& input) {
  if (training()) cached_input_ = input;
  return ops::conv2d_forward(input, weight_->value, bias_->value, spec_);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "Conv2d backward before forward");
  auto grads = ops::conv2d_backward(*cached_input_, weight_->value, grad_output, spec_);
  ops::add_inplace(weight_->grad, grads.grad_weight);
  ops::add_inplace(bias_->grad, grads.grad_bias);
  return std::move(grads.grad_input);
}

// ---- Conv3d ----------------------------------------------------------------

Conv3d::Conv3d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      spec_{stride, padding},
      weight_(register_parameter(
          "weight",
          Tensor(Shape{out_channels, in_channels, kernel, kernel, kernel}))),
      bias_(register_parameter("bias", Tensor(Shape{out_channels}))) {}

void Conv3d::init(Rng& rng) {
  const float stddev = kaiming_stddev(in_channels_ * kernel_ * kernel_ * kernel_);
  weight_->value = Tensor::normal(weight_->value.shape(), rng, 0.0f, stddev);
  bias_->value.fill(0.0f);
}

Tensor Conv3d::compute(const Tensor& input) {
  if (training()) cached_input_ = input;
  return ops::conv3d_forward(input, weight_->value, bias_->value, spec_);
}

Tensor Conv3d::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "Conv3d backward before forward");
  auto grads = ops::conv3d_backward(*cached_input_, weight_->value, grad_output, spec_);
  ops::add_inplace(weight_->grad, grads.grad_weight);
  ops::add_inplace(bias_->grad, grads.grad_bias);
  return std::move(grads.grad_input);
}

// ---- Linear ----------------------------------------------------------------

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(register_parameter("weight", Tensor(Shape{out_features, in_features}))),
      bias_(register_parameter("bias", Tensor(Shape{out_features}))) {}

void Linear::init(Rng& rng) {
  const float stddev = kaiming_stddev(in_features_);
  weight_->value = Tensor::normal(weight_->value.shape(), rng, 0.0f, stddev);
  bias_->value.fill(0.0f);
}

Tensor Linear::compute(const Tensor& input) {
  if (training()) cached_input_ = input;
  return ops::linear_forward(input, weight_->value, bias_->value);
}

Tensor Linear::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "Linear backward before forward");
  auto grads = ops::linear_backward(*cached_input_, weight_->value, grad_output);
  ops::add_inplace(weight_->grad, grads.grad_weight);
  ops::add_inplace(bias_->grad, grads.grad_bias);
  return std::move(grads.grad_input);
}

// ---- activations -----------------------------------------------------------

Tensor ReLU::compute(const Tensor& input) {
  if (training()) cached_input_ = input;
  return ops::relu(input);
}

Tensor ReLU::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "ReLU backward before forward");
  return ops::relu_backward(*cached_input_, grad_output);
}

Tensor LeakyReLU::compute(const Tensor& input) {
  if (training()) cached_input_ = input;
  return ops::leaky_relu(input, slope_);
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "LeakyReLU backward before forward");
  return ops::leaky_relu_backward(*cached_input_, slope_, grad_output);
}

Tensor Sigmoid::compute(const Tensor& input) {
  Tensor out = ops::sigmoid(input);
  if (training()) cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_output_.has_value(), "Sigmoid backward before forward");
  return ops::sigmoid_backward(*cached_output_, grad_output);
}

Tensor Tanh::compute(const Tensor& input) {
  Tensor out = ops::tanh_act(input);
  if (training()) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_output_.has_value(), "Tanh backward before forward");
  return ops::tanh_backward(*cached_output_, grad_output);
}

// ---- pooling ---------------------------------------------------------------

Tensor MaxPool2d::compute(const Tensor& input) {
  if (training()) {
    // Backward needs the winner indices; cache the full result.
    cached_input_ = input;
    cached_result_ = ops::maxpool2d_forward(input, spec_);
    return cached_result_->output;
  }
  // Inference needs only the pooled values — skip the argmax buffer.
  const std::size_t oh = ops::conv_out_size(input.dim(2), spec_.kernel, spec_.stride, 0);
  const std::size_t ow = ops::conv_out_size(input.dim(3), spec_.kernel, spec_.stride, 0);
  Tensor output(Shape{input.dim(0), input.dim(1), oh, ow});
  ops::maxpool2d_forward_into(output, input, spec_);
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value() && cached_result_.has_value(),
             "MaxPool2d backward before forward");
  return ops::maxpool2d_backward(*cached_input_, *cached_result_, grad_output);
}

Tensor AvgPool2d::compute(const Tensor& input) {
  if (training()) cached_input_ = input;
  return ops::avgpool2d_forward(input, spec_);
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "AvgPool2d backward before forward");
  return ops::avgpool2d_backward(*cached_input_, spec_, grad_output);
}

Tensor GlobalAvgPool2d::compute(const Tensor& input) {
  if (training()) cached_input_ = input;
  return ops::global_avgpool2d(input);
}

Tensor GlobalAvgPool2d::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "GlobalAvgPool2d backward before forward");
  return ops::global_avgpool2d_backward(*cached_input_, grad_output);
}

// ---- BatchNorm2d -----------------------------------------------------------

BatchNorm2d::BatchNorm2d(std::size_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(register_parameter("weight", Tensor::ones(Shape{channels}))),
      beta_(register_parameter("bias", Tensor(Shape{channels}))),
      running_mean_(Shape{channels}),
      running_var_(Tensor::ones(Shape{channels})) {
  register_buffer("running_mean", &running_mean_);
  register_buffer("running_var", &running_var_);
}

Tensor BatchNorm2d::compute(const Tensor& input) {
  ALFI_CHECK(input.rank() == 4 && input.dim(1) == channels_,
             "BatchNorm2d expects [N," + std::to_string(channels_) + ",H,W]");
  const std::size_t n = input.dim(0), c = channels_,
                    plane = input.dim(2) * input.dim(3);
  const std::size_t per_channel = n * plane;
  Tensor out(input.shape());

  if (training()) {
    cached_input_ = input;
    cached_mean_.assign(c, 0.0f);
    cached_inv_std_.assign(c, 0.0f);
    for (std::size_t ch = 0; ch < c; ++ch) {
      double mean = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        const float* src = input.raw() + (s * c + ch) * plane;
        for (std::size_t i = 0; i < plane; ++i) mean += src[i];
      }
      mean /= static_cast<double>(per_channel);
      double var = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        const float* src = input.raw() + (s * c + ch) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          const double d = src[i] - mean;
          var += d * d;
        }
      }
      var /= static_cast<double>(per_channel);

      running_mean_.raw()[ch] = (1.0f - momentum_) * running_mean_.raw()[ch] +
                                momentum_ * static_cast<float>(mean);
      running_var_.raw()[ch] = (1.0f - momentum_) * running_var_.raw()[ch] +
                               momentum_ * static_cast<float>(var);

      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      cached_mean_[ch] = static_cast<float>(mean);
      cached_inv_std_[ch] = inv_std;
      const float g = gamma_->value.raw()[ch];
      const float b = beta_->value.raw()[ch];
      for (std::size_t s = 0; s < n; ++s) {
        const float* src = input.raw() + (s * c + ch) * plane;
        float* dst = out.raw() + (s * c + ch) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          dst[i] = (src[i] - static_cast<float>(mean)) * inv_std * g + b;
        }
      }
    }
  } else {
    ops::batchnorm2d_eval_into(out, input, gamma_->value, beta_->value,
                               running_mean_, running_var_, eps_);
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "BatchNorm2d backward before forward");
  const Tensor& input = *cached_input_;
  const std::size_t n = input.dim(0), c = channels_,
                    plane = input.dim(2) * input.dim(3);
  const double m = static_cast<double>(n * plane);
  Tensor grad_input(input.shape());

  for (std::size_t ch = 0; ch < c; ++ch) {
    const float mean = cached_mean_[ch];
    const float inv_std = cached_inv_std_[ch];
    const float g = gamma_->value.raw()[ch];

    // Accumulate sum(dY), sum(dY * x_hat) for the channel.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      const float* x = input.raw() + (s * c + ch) * plane;
      const float* dy = grad_output.raw() + (s * c + ch) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float xhat = (x[i] - mean) * inv_std;
        sum_dy += dy[i];
        sum_dy_xhat += static_cast<double>(dy[i]) * xhat;
      }
    }
    gamma_->grad.raw()[ch] += static_cast<float>(sum_dy_xhat);
    beta_->grad.raw()[ch] += static_cast<float>(sum_dy);

    // dX = (g * inv_std / m) * (m*dY - sum(dY) - x_hat * sum(dY*x_hat))
    const float k = g * inv_std / static_cast<float>(m);
    for (std::size_t s = 0; s < n; ++s) {
      const float* x = input.raw() + (s * c + ch) * plane;
      const float* dy = grad_output.raw() + (s * c + ch) * plane;
      float* dx = grad_input.raw() + (s * c + ch) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float xhat = (x[i] - mean) * inv_std;
        dx[i] = k * (static_cast<float>(m) * dy[i] - static_cast<float>(sum_dy) -
                     xhat * static_cast<float>(sum_dy_xhat));
      }
    }
  }
  return grad_input;
}

// ---- Flatten / Softmax / Dropout -------------------------------------------

Tensor Flatten::compute(const Tensor& input) {
  ALFI_CHECK(input.rank() >= 1, "Flatten expects batched input");
  cached_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  return input.reshaped(Shape{n, input.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_shape_.has_value(), "Flatten backward before forward");
  return grad_output.reshaped(*cached_shape_);
}

Tensor Softmax::compute(const Tensor& input) { return ops::softmax_rows(input); }

Dropout::Dropout(float probability, Rng* rng)
    : probability_(probability), rng_(rng) {
  ALFI_CHECK(probability >= 0.0f && probability < 1.0f,
             "dropout probability must be in [0, 1)");
  ALFI_CHECK(rng != nullptr, "Dropout needs an Rng");
}

Tensor Dropout::compute(const Tensor& input) {
  if (!training() || probability_ == 0.0f) return input;
  Tensor mask(input.shape());
  const float keep = 1.0f - probability_;
  const float scale = 1.0f / keep;
  for (std::size_t i = 0; i < mask.numel(); ++i) {
    mask.raw()[i] = rng_->bernoulli(keep) ? scale : 0.0f;
  }
  cached_mask_ = mask;
  return ops::mul(input, mask);
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (!cached_mask_.has_value()) return grad_output;  // eval-mode identity
  return ops::mul(grad_output, *cached_mask_);
}

// ---- Sequential / Residual --------------------------------------------------

Module* Sequential::append(std::shared_ptr<Module> layer, std::string name) {
  if (name.empty()) name = std::to_string(children().size());
  return register_child(std::move(name), std::move(layer));
}

Tensor Sequential::compute(const Tensor& input) {
  const auto& kids = children();
  if (kids.empty()) return input;
  // Feed the input straight to the first child instead of copying it
  // into a local first — the copy was a full batch-sized temporary.
  Tensor value = kids.front().second->forward(input);
  for (std::size_t i = 1; i < kids.size(); ++i) {
    value = kids[i].second->forward(value);
  }
  return value;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  const auto& kids = children();
  for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
    grad = it->second->backward(grad);
  }
  return grad;
}

Residual::Residual(std::shared_ptr<Module> main, std::shared_ptr<Module> shortcut)
    : main_(register_child("main", std::move(main))),
      shortcut_(shortcut ? register_child("shortcut", std::move(shortcut)) : nullptr) {}

Tensor Residual::compute(const Tensor& input) {
  Tensor main_out = main_->forward(input);
  if (training()) {
    // Backward differentiates through the pre-activation sum.
    Tensor skip = shortcut_ ? shortcut_->forward(input) : input;
    Tensor sum = ops::add(main_out, skip);
    cached_sum_ = sum;
    return ops::relu(sum);
  }
  // Inference: accumulate the skip into main_out and ReLU in place
  // rather than materializing sum and relu(sum) separately.
  if (shortcut_) {
    ops::add_inplace(main_out, shortcut_->forward(input));
  } else {
    ops::add_inplace(main_out, input);
  }
  ops::relu_into(main_out, main_out);
  return main_out;
}

Tensor Residual::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_sum_.has_value(), "Residual backward before forward");
  const Tensor grad_sum = ops::relu_backward(*cached_sum_, grad_output);
  Tensor grad_input = main_->backward(grad_sum);
  if (shortcut_) {
    ops::add_inplace(grad_input, shortcut_->backward(grad_sum));
  } else {
    ops::add_inplace(grad_input, grad_sum);
  }
  return grad_input;
}

// ---- transformer layers ------------------------------------------------------

namespace {

// Token ids travel as floats through the [N,T] image plumbing; clamp
// defensively so corrupted ids (upstream faults) index inside the table
// instead of invoking UB.
std::size_t clamp_token_id(float id, std::size_t vocab) {
  if (!std::isfinite(id) || id <= 0.0f) return 0;
  const std::size_t index = static_cast<std::size_t>(id);
  return index >= vocab ? vocab - 1 : index;
}

}  // namespace

TokenEmbedding::TokenEmbedding(std::size_t vocab_size, std::size_t embed_dim,
                               std::size_t max_len)
    : vocab_(vocab_size),
      embed_(embed_dim),
      max_len_(max_len),
      weight_(register_parameter("weight", Tensor(Shape{vocab_size, embed_dim}))),
      pos_(register_parameter("pos", Tensor(Shape{max_len, embed_dim}))) {
  ALFI_CHECK(vocab_size > 0 && embed_dim > 0 && max_len > 0,
             "TokenEmbedding dimensions must be positive");
}

void TokenEmbedding::init(Rng& rng) {
  weight_->value = Tensor::normal(weight_->value.shape(), rng, 0.0f, 0.02f);
  pos_->value = Tensor::normal(pos_->value.shape(), rng, 0.0f, 0.02f);
}

void TokenEmbedding::embed_into(Tensor& out, const Tensor& input) const {
  ALFI_CHECK(input.rank() == 2, "TokenEmbedding expects [N,T] token ids");
  const std::size_t n = input.dim(0), t = input.dim(1);
  ALFI_CHECK(t <= max_len_, "TokenEmbedding sequence longer than max_len");
  const float* ids = input.raw();
  const float* table = weight_->value.raw();
  const float* pos = pos_->value.raw();
  float* dst = out.raw();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t i = 0; i < t; ++i) {
      const std::size_t id = clamp_token_id(ids[s * t + i], vocab_);
      const float* row = table + id * embed_;
      const float* prow = pos + i * embed_;
      float* o = dst + (s * t + i) * embed_;
      for (std::size_t e = 0; e < embed_; ++e) o[e] = row[e] + prow[e];
    }
  }
}

Tensor TokenEmbedding::compute(const Tensor& input) {
  if (training()) cached_input_ = input;
  Tensor out(Shape{input.dim(0), input.dim(1), embed_});
  embed_into(out, input);
  return out;
}

Tensor TokenEmbedding::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "TokenEmbedding backward before forward");
  const Tensor& input = *cached_input_;
  const std::size_t n = input.dim(0), t = input.dim(1);
  const float* ids = input.raw();
  const float* dy = grad_output.raw();
  float* wgrad = weight_->grad.raw();
  float* pgrad = pos_->grad.raw();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t i = 0; i < t; ++i) {
      const std::size_t id = clamp_token_id(ids[s * t + i], vocab_);
      const float* g = dy + (s * t + i) * embed_;
      float* wrow = wgrad + id * embed_;
      float* prow = pgrad + i * embed_;
      for (std::size_t e = 0; e < embed_; ++e) {
        wrow[e] += g[e];
        prow[e] += g[e];
      }
    }
  }
  // Token ids are not differentiable; upstream (Flatten) gets zeros.
  return Tensor(input.shape());
}

TargetInventory TokenEmbedding::target_inventory() {
  TargetInventory inv;
  inv.injectable = true;
  inv.weight = weight_;
  inv.weight_role = "embedding";
  inv.output_role = "embedding_out";
  return inv;
}

SeqLinear::SeqLinear(std::size_t in_features, std::size_t out_features,
                     std::string role)
    : in_features_(in_features),
      out_features_(out_features),
      role_(std::move(role)),
      weight_(register_parameter("weight", Tensor(Shape{out_features, in_features}))),
      bias_(register_parameter("bias", Tensor(Shape{out_features}))) {}

void SeqLinear::init(Rng& rng) {
  const float stddev = kaiming_stddev(in_features_);
  weight_->value = Tensor::normal(weight_->value.shape(), rng, 0.0f, stddev);
  bias_->value.fill(0.0f);
}

Tensor SeqLinear::compute(const Tensor& input) {
  ALFI_CHECK(input.rank() == 3 && input.dim(2) == in_features_,
             "SeqLinear expects [N,T," + std::to_string(in_features_) + "]");
  if (training()) cached_input_ = input;
  Tensor out(Shape{input.dim(0), input.dim(1), out_features_});
  ops::linear_forward_into(out, input, weight_->value, bias_->value);
  return out;
}

Tensor SeqLinear::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "SeqLinear backward before forward");
  const Tensor& input = *cached_input_;
  const std::size_t rows = input.dim(0) * input.dim(1);
  // Token-wise projection == row-wise linear over the flattened tokens.
  const Tensor flat_in = input.reshaped(Shape{rows, in_features_});
  const Tensor flat_dy = grad_output.reshaped(Shape{rows, out_features_});
  auto grads = ops::linear_backward(flat_in, weight_->value, flat_dy);
  ops::add_inplace(weight_->grad, grads.grad_weight);
  ops::add_inplace(bias_->grad, grads.grad_bias);
  return grads.grad_input.reshaped(input.shape());
}

TargetInventory SeqLinear::target_inventory() {
  TargetInventory inv;
  inv.injectable = true;
  inv.weight = weight_;
  inv.weight_role = role_;
  inv.output_role = role_ + "_out";
  return inv;
}

Tensor GELU::compute(const Tensor& input) {
  if (training()) cached_input_ = input;
  return ops::gelu(input);
}

Tensor GELU::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "GELU backward before forward");
  return ops::gelu_backward(*cached_input_, grad_output);
}

LayerNorm::LayerNorm(std::size_t features, float eps)
    : features_(features),
      eps_(eps),
      gamma_(register_parameter("weight", Tensor::ones(Shape{features}))),
      beta_(register_parameter("bias", Tensor(Shape{features}))) {
  ALFI_CHECK(features > 0, "LayerNorm features must be positive");
}

Tensor LayerNorm::compute(const Tensor& input) {
  if (training()) cached_input_ = input;
  return ops::layernorm(input, gamma_->value, beta_->value, eps_);
}

Tensor LayerNorm::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_input_.has_value(), "LayerNorm backward before forward");
  const Tensor& input = *cached_input_;
  const std::size_t f = features_;
  const std::size_t rows = input.numel() / f;
  Tensor grad_input(input.shape());
  const float* x = input.raw();
  const float* dy = grad_output.raw();
  const float* g = gamma_->value.raw();
  float* ggrad = gamma_->grad.raw();
  float* bgrad = beta_->grad.raw();
  float* dx = grad_input.raw();
  const double inv_f = 1.0 / static_cast<double>(f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * f;
    const float* dyr = dy + r * f;
    float* dxr = dx + r * f;
    double mean = 0.0;
    for (std::size_t i = 0; i < f; ++i) mean += xr[i];
    mean *= inv_f;
    double var = 0.0;
    for (std::size_t i = 0; i < f; ++i) {
      const double d = xr[i] - mean;
      var += d * d;
    }
    var *= inv_f;
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
    for (std::size_t i = 0; i < f; ++i) {
      const float xhat = (xr[i] - static_cast<float>(mean)) * inv_std;
      const double dxhat = static_cast<double>(dyr[i]) * g[i];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xhat;
      ggrad[i] += dyr[i] * xhat;
      bgrad[i] += dyr[i];
    }
    // dX = inv_std * (dXhat - mean(dXhat) - Xhat * mean(dXhat * Xhat))
    const float mean_dxhat = static_cast<float>(sum_dxhat * inv_f);
    const float mean_dxhat_xhat = static_cast<float>(sum_dxhat_xhat * inv_f);
    for (std::size_t i = 0; i < f; ++i) {
      const float xhat = (xr[i] - static_cast<float>(mean)) * inv_std;
      const float dxhat = dyr[i] * g[i];
      dxr[i] = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat);
    }
  }
  return grad_input;
}

TargetInventory LayerNorm::target_inventory() {
  TargetInventory inv;
  inv.injectable = true;
  inv.weight = gamma_;
  inv.weight_role = "layernorm_gain";
  inv.output_role = "layernorm_out";
  return inv;
}

Tensor AttentionSoftmax::compute(const Tensor& input) {
  Tensor out = ops::softmax_over_heads(input);
  if (training()) cached_output_ = out;
  return out;
}

Tensor AttentionSoftmax::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_output_.has_value(), "AttentionSoftmax backward before forward");
  return ops::softmax_over_heads_backward(*cached_output_, grad_output);
}

TargetInventory AttentionSoftmax::target_inventory() {
  TargetInventory inv;
  inv.injectable = true;  // weight-less: neuron faults on the probability tensor
  inv.output_role = "attn_probs";
  return inv;
}

Tensor ResidualJoin::compute(const Tensor& input) { return input; }

Tensor ResidualJoin::backward(const Tensor& grad_output) { return grad_output; }

TargetInventory ResidualJoin::target_inventory() {
  TargetInventory inv;
  inv.injectable = true;  // weight-less: neuron faults on the summed stream
  inv.output_role = "residual_stream";
  return inv;
}

Tensor TokenMeanPool::compute(const Tensor& input) {
  ALFI_CHECK(input.rank() == 3, "TokenMeanPool expects [N,T,E]");
  if (training()) cached_shape_ = input.shape();
  const std::size_t n = input.dim(0), t = input.dim(1), e = input.dim(2);
  Tensor out(Shape{n, e});
  const float* src = input.raw();
  float* dst = out.raw();
  const double inv_t = 1.0 / static_cast<double>(t);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t k = 0; k < e; ++k) {
      double acc = 0.0;
      for (std::size_t i = 0; i < t; ++i) acc += src[(s * t + i) * e + k];
      dst[s * e + k] = static_cast<float>(acc * inv_t);
    }
  }
  return out;
}

Tensor TokenMeanPool::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_shape_.has_value(), "TokenMeanPool backward before forward");
  const Shape& shape = *cached_shape_;
  const std::size_t n = shape[0], t = shape[1], e = shape[2];
  Tensor grad_input(shape);
  const float* dy = grad_output.raw();
  float* dx = grad_input.raw();
  const float inv_t = 1.0f / static_cast<float>(t);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t i = 0; i < t; ++i) {
      for (std::size_t k = 0; k < e; ++k) {
        dx[(s * t + i) * e + k] = dy[s * e + k] * inv_t;
      }
    }
  }
  return grad_input;
}

MultiHeadAttention::MultiHeadAttention(std::size_t embed_dim, std::size_t num_heads)
    : embed_(embed_dim),
      heads_(num_heads),
      scale_(0.0f),
      q_proj_(static_cast<SeqLinear*>(register_child(
          "q_proj", std::make_shared<SeqLinear>(embed_dim, embed_dim, "q_proj")))),
      k_proj_(static_cast<SeqLinear*>(register_child(
          "k_proj", std::make_shared<SeqLinear>(embed_dim, embed_dim, "k_proj")))),
      v_proj_(static_cast<SeqLinear*>(register_child(
          "v_proj", std::make_shared<SeqLinear>(embed_dim, embed_dim, "v_proj")))),
      attn_(static_cast<AttentionSoftmax*>(
          register_child("attn", std::make_shared<AttentionSoftmax>()))),
      out_proj_(static_cast<SeqLinear*>(register_child(
          "out_proj", std::make_shared<SeqLinear>(embed_dim, embed_dim, "out_proj")))) {
  ALFI_CHECK(num_heads > 0 && embed_dim % num_heads == 0,
             "embed_dim must divide evenly into heads");
  scale_ = 1.0f / std::sqrt(static_cast<float>(embed_dim / num_heads));
}

Tensor MultiHeadAttention::compute(const Tensor& input) {
  ALFI_CHECK(input.rank() == 3 && input.dim(2) == embed_,
             "MultiHeadAttention expects [N,T," + std::to_string(embed_) + "]");
  Tensor q = q_proj_->forward(input);
  Tensor k = k_proj_->forward(input);
  Tensor v = v_proj_->forward(input);
  Tensor scores = ops::attention_scores(q, k, heads_, scale_);
  Tensor probs = attn_->forward(scores);
  Tensor context = ops::attention_context(probs, v, heads_);
  if (training()) {
    cached_q_ = q;
    cached_k_ = k;
    cached_v_ = v;
    cached_probs_ = probs;
  }
  return out_proj_->forward(context);
}

Tensor MultiHeadAttention::backward(const Tensor& grad_output) {
  ALFI_CHECK(cached_q_.has_value(), "MultiHeadAttention backward before forward");
  const Tensor& q = *cached_q_;
  const Tensor& k = *cached_k_;
  const Tensor& v = *cached_v_;
  const Tensor& probs = *cached_probs_;
  const std::size_t n = q.dim(0), t = q.dim(1), dh = embed_ / heads_;

  const Tensor dcontext = out_proj_->backward(grad_output);  // [N,T,E]

  // dP[n,h,i,j] = <dC[n,i,h,:], V[n,j,h,:]>;  dV[n,j,h,:] += P[n,h,i,j] * dC[n,i,h,:]
  Tensor dprobs(probs.shape());
  Tensor dv(v.shape());
  {
    const float* dc = dcontext.raw();
    const float* vp = v.raw();
    const float* pp = probs.raw();
    float* dpp = dprobs.raw();
    float* dvp = dv.raw();
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t h = 0; h < heads_; ++h) {
        for (std::size_t i = 0; i < t; ++i) {
          const float* dcrow = dc + (s * t + i) * embed_ + h * dh;
          const std::size_t prow = ((s * heads_ + h) * t + i) * t;
          for (std::size_t j = 0; j < t; ++j) {
            const float* vrow = vp + (s * t + j) * embed_ + h * dh;
            double acc = 0.0;
            for (std::size_t d = 0; d < dh; ++d) {
              acc += static_cast<double>(dcrow[d]) * vrow[d];
            }
            dpp[prow + j] = static_cast<float>(acc);
            const float p = pp[prow + j];
            if (p == 0.0f) continue;
            float* dvrow = dvp + (s * t + j) * embed_ + h * dh;
            for (std::size_t d = 0; d < dh; ++d) dvrow[d] += p * dcrow[d];
          }
        }
      }
    }
  }

  const Tensor dscores = attn_->backward(dprobs);  // [N,H,T,T]

  // dQ[n,i,h,:] += scale * dS[n,h,i,j] * K[n,j,h,:];  dK symmetric in (i,j).
  Tensor dq(q.shape());
  Tensor dk(k.shape());
  {
    const float* ds = dscores.raw();
    const float* qp = q.raw();
    const float* kp = k.raw();
    float* dqp = dq.raw();
    float* dkp = dk.raw();
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t h = 0; h < heads_; ++h) {
        for (std::size_t i = 0; i < t; ++i) {
          const float* dsrow = ds + ((s * heads_ + h) * t + i) * t;
          float* dqrow = dqp + (s * t + i) * embed_ + h * dh;
          const float* qrow = qp + (s * t + i) * embed_ + h * dh;
          for (std::size_t j = 0; j < t; ++j) {
            const float g = dsrow[j] * scale_;
            if (g == 0.0f) continue;
            const float* krow = kp + (s * t + j) * embed_ + h * dh;
            float* dkrow = dkp + (s * t + j) * embed_ + h * dh;
            for (std::size_t d = 0; d < dh; ++d) {
              dqrow[d] += g * krow[d];
              dkrow[d] += g * qrow[d];
            }
          }
        }
      }
    }
  }

  Tensor grad_input = q_proj_->backward(dq);
  ops::add_inplace(grad_input, k_proj_->backward(dk));
  ops::add_inplace(grad_input, v_proj_->backward(dv));
  return grad_input;
}

TransformerBlock::TransformerBlock(std::size_t embed_dim, std::size_t num_heads,
                                   std::size_t mlp_dim)
    : embed_(embed_dim),
      heads_(num_heads),
      mlp_(mlp_dim),
      ln1_(static_cast<LayerNorm*>(
          register_child("ln1", std::make_shared<LayerNorm>(embed_dim)))),
      mha_(static_cast<MultiHeadAttention*>(register_child(
          "mha", std::make_shared<MultiHeadAttention>(embed_dim, num_heads)))),
      res1_(static_cast<ResidualJoin*>(
          register_child("res1", std::make_shared<ResidualJoin>()))),
      ln2_(static_cast<LayerNorm*>(
          register_child("ln2", std::make_shared<LayerNorm>(embed_dim)))),
      fc1_(static_cast<SeqLinear*>(register_child(
          "fc1", std::make_shared<SeqLinear>(embed_dim, mlp_dim, "mlp_fc1")))),
      gelu_(static_cast<GELU*>(register_child("gelu", std::make_shared<GELU>()))),
      fc2_(static_cast<SeqLinear*>(register_child(
          "fc2", std::make_shared<SeqLinear>(mlp_dim, embed_dim, "mlp_fc2")))),
      res2_(static_cast<ResidualJoin*>(
          register_child("res2", std::make_shared<ResidualJoin>()))) {}

Tensor TransformerBlock::compute(const Tensor& input) {
  Tensor a = mha_->forward(ln1_->forward(input));
  Tensor r1 = res1_->forward(ops::add(a, input));
  Tensor m = fc2_->forward(gelu_->forward(fc1_->forward(ln2_->forward(r1))));
  return res2_->forward(ops::add(m, r1));
}

Tensor TransformerBlock::backward(const Tensor& grad_output) {
  Tensor g = res2_->backward(grad_output);
  Tensor gm = ln2_->backward(fc1_->backward(gelu_->backward(fc2_->backward(g))));
  ops::add_inplace(gm, g);  // r1 feeds both the MLP branch and the skip
  Tensor g2 = res1_->backward(gm);
  Tensor gx = ln1_->backward(mha_->backward(g2));
  ops::add_inplace(gx, g2);  // x feeds both the attention branch and the skip
  return gx;
}

// ---- workspace kernels -------------------------------------------------------
//
// Each built-in layer writes into its arena-backed workspace slot via
// the `_into` ops, so steady-state inference never allocates.  Shape
// callables run only on the planning pass (see workspace.h).

Tensor& Conv2d::ws_output(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] {
    const std::size_t oh =
        ops::conv_out_size(input.dim(2), kernel_, spec_.stride, spec_.padding);
    const std::size_t ow =
        ops::conv_out_size(input.dim(3), kernel_, spec_.stride, spec_.padding);
    return Shape{input.dim(0), out_channels_, oh, ow};
  });
  if (!ws_plan_.matches(input.shape())) {
    ws_plan_ = ops::make_conv2d_plan(input.shape(), weight_->value.shape(), spec_);
  }
  return out;
}

Tensor& Conv2d::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws_output(input, ws);
  ops::conv2d_forward_planned(out, input, weight_->value, bias_->value, ws_plan_,
                              ws.scratch(*this, ws_plan_.col_rows * ws_plan_.col_cols));
  return out;
}

bool Conv2d::compute_ws_cone(const Tensor& input, const ops::Rect& dirty,
                             InferenceWorkspace& ws) {
  Tensor& out = ws_output(input, ws);
  const ops::Rect window = ops::conv2d_output_window(ws_plan_, dirty);
  if (window.empty()) return false;
  const std::span<float> col = ws.scratch(*this, ws_plan_.col_rows * ws_plan_.col_cols);
  // A window past half the map saves little next to its gather copy, and
  // the cap halves the window plan the workspace keeps.
  const std::size_t area = (window.y1 - window.y0) * (window.x1 - window.x0);
  if (2 * area > ws_plan_.col_cols) {
    ops::conv2d_forward_planned(out, input, weight_->value, bias_->value, ws_plan_, col);
  } else {
    ops::conv2d_forward_planned_window(out, input, weight_->value, bias_->value, ws_plan_,
                                       window, ws.conv_window(), col);
  }
  return true;
}

Tensor& Conv3d::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] {
    const std::size_t od =
        ops::conv_out_size(input.dim(2), kernel_, spec_.stride, spec_.padding);
    const std::size_t oh =
        ops::conv_out_size(input.dim(3), kernel_, spec_.stride, spec_.padding);
    const std::size_t ow =
        ops::conv_out_size(input.dim(4), kernel_, spec_.stride, spec_.padding);
    return Shape{input.dim(0), out_channels_, od, oh, ow};
  });
  ops::conv3d_forward_into(out, input, weight_->value, bias_->value, spec_);
  return out;
}

Tensor& Linear::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] { return Shape{input.dim(0), out_features_}; });
  ops::linear_forward_into(out, input, weight_->value, bias_->value);
  return out;
}

Tensor& ReLU::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] { return input.shape(); });
  ops::relu_into(out, input);
  return out;
}

Tensor& LeakyReLU::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] { return input.shape(); });
  ops::leaky_relu_into(out, input, slope_);
  return out;
}

Tensor& Sigmoid::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] { return input.shape(); });
  ops::sigmoid_into(out, input);
  return out;
}

Tensor& Tanh::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] { return input.shape(); });
  ops::tanh_act_into(out, input);
  return out;
}

Tensor& MaxPool2d::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] {
    const std::size_t oh =
        ops::conv_out_size(input.dim(2), spec_.kernel, spec_.stride, 0);
    const std::size_t ow =
        ops::conv_out_size(input.dim(3), spec_.kernel, spec_.stride, 0);
    return Shape{input.dim(0), input.dim(1), oh, ow};
  });
  ops::maxpool2d_forward_into(out, input, spec_);
  return out;
}

Tensor& AvgPool2d::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] {
    const std::size_t oh =
        ops::conv_out_size(input.dim(2), spec_.kernel, spec_.stride, 0);
    const std::size_t ow =
        ops::conv_out_size(input.dim(3), spec_.kernel, spec_.stride, 0);
    return Shape{input.dim(0), input.dim(1), oh, ow};
  });
  ops::avgpool2d_forward_into(out, input, spec_);
  return out;
}

Tensor& GlobalAvgPool2d::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] { return Shape{input.dim(0), input.dim(1)}; });
  ops::global_avgpool2d_into(out, input);
  return out;
}

Tensor& BatchNorm2d::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  ALFI_CHECK(input.rank() == 4 && input.dim(1) == channels_,
             "BatchNorm2d expects [N," + std::to_string(channels_) + ",H,W]");
  Tensor& out = ws.slot(*this, [&] { return input.shape(); });
  ops::batchnorm2d_eval_into(out, input, gamma_->value, beta_->value,
                             running_mean_, running_var_, eps_);
  return out;
}

Tensor& Flatten::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  ALFI_CHECK(input.rank() >= 1, "Flatten expects batched input");
  Tensor& out = ws.slot(*this, [&] {
    return Shape{input.dim(0), input.numel() / input.dim(0)};
  });
  out.copy_from(input);
  return out;
}

Tensor& Softmax::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] { return input.shape(); });
  ops::softmax_rows_into(out, input);
  return out;
}

Tensor& Dropout::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  // Eval-mode dropout is the identity; the slot copy mirrors the
  // allocating path, where compute() returns a distinct output tensor.
  Tensor& out = ws.slot(*this, [&] { return input.shape(); });
  out.copy_from(input);
  return out;
}

Tensor* Sequential::run_children_ws(std::size_t first, const Tensor& input,
                                    InferenceWorkspace& ws) {
  const bool root = ws.is_root(*this);
  Tensor* value = nullptr;
  const Tensor* current = &input;
  for (std::size_t i = first; i < size(); ++i) {
    value = &children()[i].second->forward_ws(*current, ws);
    if (root) ws.record_root_child(i, *current, *value);
    current = value;
  }
  return value;
}

Tensor& Sequential::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor* value = run_children_ws(0, input, ws);
  if (value == nullptr) {  // empty container: identity through a slot
    Tensor& out = ws.slot(*this, [&] { return input.shape(); });
    out.copy_from(input);
    return out;
  }
  return *value;
}

Tensor& Sequential::forward_ws_from_child(std::size_t first, const Tensor& live,
                                          InferenceWorkspace& ws) {
  ALFI_CHECK(first < size(), "no child to start the pass from");
  Tensor& out = *run_children_ws(first, live, ws);
  run_forward_hooks(live, out);
  return out;
}

Tensor& Residual::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& main_out = main_->forward_ws(input, ws);
  const Tensor& skip = shortcut_ ? shortcut_->forward_ws(input, ws) : input;
  Tensor& out = ws.slot(*this, [&] { return main_out.shape(); });
  ops::add_into(out, main_out, skip);
  ops::relu_into(out, out);
  return out;
}

Tensor& TokenEmbedding::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] {
    return Shape{input.dim(0), input.dim(1), embed_};
  });
  embed_into(out, input);
  return out;
}

Tensor& SeqLinear::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  ALFI_CHECK(input.rank() == 3 && input.dim(2) == in_features_,
             "SeqLinear expects [N,T," + std::to_string(in_features_) + "]");
  Tensor& out = ws.slot(*this, [&] {
    return Shape{input.dim(0), input.dim(1), out_features_};
  });
  ops::linear_forward_into(out, input, weight_->value, bias_->value);
  return out;
}

Tensor& GELU::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] { return input.shape(); });
  ops::gelu_into(out, input);
  return out;
}

Tensor& LayerNorm::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] { return input.shape(); });
  ops::layernorm_into(out, input, gamma_->value, beta_->value, eps_);
  return out;
}

Tensor& AttentionSoftmax::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& out = ws.slot(*this, [&] { return input.shape(); });
  ops::softmax_over_heads_into(out, input);
  return out;
}

Tensor& ResidualJoin::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  // The copy gives the residual stream its own hookable slot, mirroring
  // the allocating path where compute() returns a distinct tensor.
  Tensor& out = ws.slot(*this, [&] { return input.shape(); });
  out.copy_from(input);
  return out;
}

Tensor& TokenMeanPool::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  ALFI_CHECK(input.rank() == 3, "TokenMeanPool expects [N,T,E]");
  Tensor& out = ws.slot(*this, [&] { return Shape{input.dim(0), input.dim(2)}; });
  const std::size_t n = input.dim(0), t = input.dim(1), e = input.dim(2);
  const float* src = input.raw();
  float* dst = out.raw();
  const double inv_t = 1.0 / static_cast<double>(t);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t k = 0; k < e; ++k) {
      double acc = 0.0;
      for (std::size_t i = 0; i < t; ++i) acc += src[(s * t + i) * e + k];
      dst[s * e + k] = static_cast<float>(acc * inv_t);
    }
  }
  return out;
}

Tensor& MultiHeadAttention::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  ALFI_CHECK(input.rank() == 3 && input.dim(2) == embed_,
             "MultiHeadAttention expects [N,T," + std::to_string(embed_) + "]");
  Tensor& q = q_proj_->forward_ws(input, ws);
  Tensor& k = k_proj_->forward_ws(input, ws);
  Tensor& v = v_proj_->forward_ws(input, ws);
  Tensor& scores = ws.aux_slot(*this, 0, [&] {
    return Shape{input.dim(0), heads_, input.dim(1), input.dim(1)};
  });
  ops::attention_scores_into(scores, q, k, heads_, scale_);
  Tensor& probs = attn_->forward_ws(scores, ws);
  Tensor& context = ws.aux_slot(*this, 1, [&] { return input.shape(); });
  ops::attention_context_into(context, probs, v, heads_);
  return out_proj_->forward_ws(context, ws);
}

Tensor& TransformerBlock::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  Tensor& ln1_out = ln1_->forward_ws(input, ws);
  Tensor& a = mha_->forward_ws(ln1_out, ws);
  Tensor& sum1 = ws.aux_slot(*this, 0, [&] { return input.shape(); });
  ops::add_into(sum1, a, input);
  Tensor& r1 = res1_->forward_ws(sum1, ws);
  Tensor& ln2_out = ln2_->forward_ws(r1, ws);
  Tensor& m = fc2_->forward_ws(
      gelu_->forward_ws(fc1_->forward_ws(ln2_out, ws), ws), ws);
  Tensor& sum2 = ws.aux_slot(*this, 1, [&] { return input.shape(); });
  ops::add_into(sum2, m, r1);
  return res2_->forward_ws(sum2, ws);
}

// ---- cloning ----------------------------------------------------------------

std::shared_ptr<Module> Conv2d::clone_structure() const {
  return std::make_shared<Conv2d>(in_channels_, out_channels_, kernel_,
                                  spec_.stride, spec_.padding);
}

std::shared_ptr<Module> Conv3d::clone_structure() const {
  return std::make_shared<Conv3d>(in_channels_, out_channels_, kernel_,
                                  spec_.stride, spec_.padding);
}

std::shared_ptr<Module> Linear::clone_structure() const {
  return std::make_shared<Linear>(in_features_, out_features_);
}

std::shared_ptr<Module> ReLU::clone_structure() const {
  return std::make_shared<ReLU>();
}

std::shared_ptr<Module> LeakyReLU::clone_structure() const {
  return std::make_shared<LeakyReLU>(slope_);
}

std::shared_ptr<Module> Sigmoid::clone_structure() const {
  return std::make_shared<Sigmoid>();
}

std::shared_ptr<Module> Tanh::clone_structure() const {
  return std::make_shared<Tanh>();
}

std::shared_ptr<Module> MaxPool2d::clone_structure() const {
  return std::make_shared<MaxPool2d>(spec_.kernel, spec_.stride);
}

std::shared_ptr<Module> AvgPool2d::clone_structure() const {
  return std::make_shared<AvgPool2d>(spec_.kernel, spec_.stride);
}

std::shared_ptr<Module> GlobalAvgPool2d::clone_structure() const {
  return std::make_shared<GlobalAvgPool2d>();
}

std::shared_ptr<Module> BatchNorm2d::clone_structure() const {
  return std::make_shared<BatchNorm2d>(channels_, eps_, momentum_);
}

std::shared_ptr<Module> Flatten::clone_structure() const {
  return std::make_shared<Flatten>();
}

std::shared_ptr<Module> Softmax::clone_structure() const {
  return std::make_shared<Softmax>();
}

std::shared_ptr<Module> Dropout::clone_structure() const {
  // The clone shares the owning Rng: identical in eval mode (dropout is
  // the identity there); training a clone concurrently is not supported.
  return std::make_shared<Dropout>(probability_, rng_);
}

std::shared_ptr<Module> Sequential::clone_structure() const {
  auto copy = std::make_shared<Sequential>();
  for (const auto& [name, child] : children()) {
    copy->append(child->clone_structure(), name);
  }
  return copy;
}

std::shared_ptr<Module> TokenEmbedding::clone_structure() const {
  return std::make_shared<TokenEmbedding>(vocab_, embed_, max_len_);
}

std::shared_ptr<Module> SeqLinear::clone_structure() const {
  return std::make_shared<SeqLinear>(in_features_, out_features_, role_);
}

std::shared_ptr<Module> GELU::clone_structure() const {
  return std::make_shared<GELU>();
}

std::shared_ptr<Module> LayerNorm::clone_structure() const {
  return std::make_shared<LayerNorm>(features_, eps_);
}

std::shared_ptr<Module> AttentionSoftmax::clone_structure() const {
  return std::make_shared<AttentionSoftmax>();
}

std::shared_ptr<Module> ResidualJoin::clone_structure() const {
  return std::make_shared<ResidualJoin>();
}

std::shared_ptr<Module> TokenMeanPool::clone_structure() const {
  return std::make_shared<TokenMeanPool>();
}

std::shared_ptr<Module> MultiHeadAttention::clone_structure() const {
  return std::make_shared<MultiHeadAttention>(embed_, heads_);
}

std::shared_ptr<Module> TransformerBlock::clone_structure() const {
  return std::make_shared<TransformerBlock>(embed_, heads_, mlp_);
}

std::shared_ptr<Module> Residual::clone_structure() const {
  std::shared_ptr<Module> main;
  std::shared_ptr<Module> shortcut;
  for (const auto& [name, child] : children()) {
    if (name == "main") main = child->clone_structure();
    if (name == "shortcut") shortcut = child->clone_structure();
  }
  return std::make_shared<Residual>(std::move(main), std::move(shortcut));
}

// ---- init -------------------------------------------------------------------

void kaiming_init(Module& root, Rng& rng) {
  root.for_each_module([&rng](const std::string&, Module& m) {
    if (auto* conv2d = dynamic_cast<Conv2d*>(&m)) conv2d->init(rng);
    else if (auto* conv3d = dynamic_cast<Conv3d*>(&m)) conv3d->init(rng);
    else if (auto* linear = dynamic_cast<Linear*>(&m)) linear->init(rng);
    else if (auto* seq = dynamic_cast<SeqLinear*>(&m)) seq->init(rng);
    else if (auto* embed = dynamic_cast<TokenEmbedding*>(&m)) embed->init(rng);
  });
}

}  // namespace alfi::nn
