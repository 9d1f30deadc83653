// Concrete layers.
//
// Every layer caches what its backward pass needs during compute(); a
// model is trained by calling forward(batch), computing a loss gradient,
// and passing it back through Module::backward in reverse order (the
// Sequential container does this automatically).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/module.h"
#include "util/rng.h"

namespace alfi::nn {

/// 2-D convolution, layout [N,IC,H,W] -> [N,OC,OH,OW].
class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride = 1, std::size_t padding = 0);

  std::string type() const override { return "Conv2d"; }
  std::shared_ptr<Module> clone_structure() const override;
  LayerKind kind() const override { return LayerKind::kConv2d; }
  Parameter* weight_param() override { return weight_; }
  Parameter* bias_param() override { return bias_; }
  Tensor backward(const Tensor& grad_output) override;

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return spec_.stride; }
  std::size_t padding() const { return spec_.padding; }

  /// Initializes weights (Kaiming-normal) and zero bias.
  void init(Rng& rng);

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;
  /// Only the output window the dirty input box reaches
  /// (ops::conv2d_output_window), through the planned conv; the whole
  /// row once the window covers half the output map.
  bool compute_ws_cone(const Tensor& input_row, const ops::Rect& dirty,
                       InferenceWorkspace& ws) override;

 private:
  /// The workspace output slot for `input`, with ws_plan_ made current.
  Tensor& ws_output(const Tensor& input, InferenceWorkspace& ws);

  std::size_t in_channels_, out_channels_, kernel_;
  ops::Conv2dSpec spec_;
  Parameter* weight_;
  Parameter* bias_;
  // workspace-path gather plan, rebuilt when the input shape changes
  ops::Conv2dPlan ws_plan_;
  std::optional<Tensor> cached_input_;
};

/// 3-D convolution, layout [N,IC,D,H,W] -> [N,OC,OD,OH,OW].
class Conv3d : public Module {
 public:
  Conv3d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride = 1, std::size_t padding = 0);

  std::string type() const override { return "Conv3d"; }
  std::shared_ptr<Module> clone_structure() const override;
  LayerKind kind() const override { return LayerKind::kConv3d; }
  Parameter* weight_param() override { return weight_; }
  Parameter* bias_param() override { return bias_; }
  Tensor backward(const Tensor& grad_output) override;

  void init(Rng& rng);

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::size_t in_channels_, out_channels_, kernel_;
  ops::Conv3dSpec spec_;
  Parameter* weight_;
  Parameter* bias_;
  std::optional<Tensor> cached_input_;
};

/// Fully connected layer, [N,IN] -> [N,OUT].
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  std::string type() const override { return "Linear"; }
  std::shared_ptr<Module> clone_structure() const override;
  LayerKind kind() const override { return LayerKind::kLinear; }
  Parameter* weight_param() override { return weight_; }
  Parameter* bias_param() override { return bias_; }
  Tensor backward(const Tensor& grad_output) override;

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

  void init(Rng& rng);

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::size_t in_features_, out_features_;
  Parameter* weight_;
  Parameter* bias_;
  std::optional<Tensor> cached_input_;
};

class ReLU : public Module {
 public:
  std::string type() const override { return "ReLU"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::optional<Tensor> cached_input_;
};

class LeakyReLU : public Module {
 public:
  explicit LeakyReLU(float negative_slope = 0.1f) : slope_(negative_slope) {}
  std::string type() const override { return "LeakyReLU"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  float slope_;
  std::optional<Tensor> cached_input_;
};

class Sigmoid : public Module {
 public:
  std::string type() const override { return "Sigmoid"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::optional<Tensor> cached_output_;
};

class Tanh : public Module {
 public:
  std::string type() const override { return "Tanh"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::optional<Tensor> cached_output_;
};

class MaxPool2d : public Module {
 public:
  explicit MaxPool2d(std::size_t kernel = 2, std::size_t stride = 0)
      : spec_{kernel, stride == 0 ? kernel : stride} {}
  std::string type() const override { return "MaxPool2d"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  ops::Pool2dSpec spec_;
  std::optional<Tensor> cached_input_;
  std::optional<ops::MaxPoolResult> cached_result_;
};

class AvgPool2d : public Module {
 public:
  explicit AvgPool2d(std::size_t kernel = 2, std::size_t stride = 0)
      : spec_{kernel, stride == 0 ? kernel : stride} {}
  std::string type() const override { return "AvgPool2d"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  ops::Pool2dSpec spec_;
  std::optional<Tensor> cached_input_;
};

/// Global average pooling: [N,C,H,W] -> [N,C].
class GlobalAvgPool2d : public Module {
 public:
  std::string type() const override { return "GlobalAvgPool2d"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::optional<Tensor> cached_input_;
};

/// Batch normalization over [N,C,H,W]; batch statistics in training
/// mode, running statistics in eval mode.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::size_t channels, float eps = 1e-5f, float momentum = 0.1f);

  std::string type() const override { return "BatchNorm2d"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::size_t channels_;
  float eps_, momentum_;
  Parameter* gamma_;
  Parameter* beta_;
  Tensor running_mean_, running_var_;
  // training-mode backward cache
  std::optional<Tensor> cached_input_;
  std::vector<float> cached_mean_, cached_inv_std_;
};

/// [N, ...] -> [N, prod(...)].
class Flatten : public Module {
 public:
  std::string type() const override { return "Flatten"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::optional<Shape> cached_shape_;
};

/// Row-wise softmax head.
class Softmax : public Module {
 public:
  std::string type() const override { return "Softmax"; }
  std::shared_ptr<Module> clone_structure() const override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;
};

/// Inverted dropout; identity in eval mode.  Deterministic given the
/// owning Rng's state.
class Dropout : public Module {
 public:
  Dropout(float probability, Rng* rng);
  std::string type() const override { return "Dropout"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  float probability_;
  Rng* rng_;
  std::optional<Tensor> cached_mask_;
};

/// Chains children in registration order; backward runs them in reverse.
class Sequential : public Module {
 public:
  std::string type() const override { return "Sequential"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

  /// Appends a layer; name defaults to its index ("0", "1", ...).
  Module* append(std::shared_ptr<Module> layer, std::string name = "");

  std::size_t size() const { return children().size(); }

  /// Workspace pass of children [first, size()) on `live`, then this
  /// container's own hooks (which see `live` as their input).  The
  /// entry point is InferenceWorkspace::run_from_child, which checks
  /// the plan first.
  Tensor& forward_ws_from_child(std::size_t first, const Tensor& live,
                                InferenceWorkspace& ws);

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  /// The one child loop of compute_ws and forward_ws_from_child: runs
  /// children [first, size()) and returns the last one's output (null
  /// when none ran).  As the workspace root it reports every child's
  /// input and output to the workspace (record_root_child).
  Tensor* run_children_ws(std::size_t first, const Tensor& input,
                          InferenceWorkspace& ws);
};

/// Residual block: output = relu(main(x) + shortcut(x)).
/// `shortcut` may be null for identity.
class Residual : public Module {
 public:
  Residual(std::shared_ptr<Module> main, std::shared_ptr<Module> shortcut = nullptr);
  std::string type() const override { return "Residual"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  Module* main_;
  Module* shortcut_;  // nullptr => identity
  std::optional<Tensor> cached_sum_;
};

// -- transformer layers --------------------------------------------------------

/// Learned token + positional embedding: [N,T] (token ids carried as
/// floats) -> [N,T,E].  Out-of-vocabulary ids clamp to the table edge.
class TokenEmbedding : public Module {
 public:
  TokenEmbedding(std::size_t vocab_size, std::size_t embed_dim, std::size_t max_len);

  std::string type() const override { return "TokenEmbedding"; }
  std::shared_ptr<Module> clone_structure() const override;
  LayerKind kind() const override { return LayerKind::kEmbedding; }
  Parameter* weight_param() override { return weight_; }
  TargetInventory target_inventory() override;
  Tensor backward(const Tensor& grad_output) override;

  std::size_t vocab_size() const { return vocab_; }
  std::size_t embed_dim() const { return embed_; }

  /// Normal(0, 0.02) init of the embedding and positional tables.
  void init(Rng& rng);

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  void embed_into(Tensor& out, const Tensor& input) const;

  std::size_t vocab_, embed_, max_len_;
  Parameter* weight_;  // [V, E]
  Parameter* pos_;     // [max_len, E]
  std::optional<Tensor> cached_input_;
};

/// Token-wise projection [N,T,IN] -> [N,T,OUT], carrying the semantic
/// role it plays in the architecture ("q_proj", "mlp_fc1", ...) so the
/// fault-target inventory can name it.
class SeqLinear : public Module {
 public:
  SeqLinear(std::size_t in_features, std::size_t out_features,
            std::string role = "seq_linear");

  std::string type() const override { return "SeqLinear"; }
  std::shared_ptr<Module> clone_structure() const override;
  LayerKind kind() const override { return LayerKind::kSeqLinear; }
  Parameter* weight_param() override { return weight_; }
  Parameter* bias_param() override { return bias_; }
  TargetInventory target_inventory() override;
  Tensor backward(const Tensor& grad_output) override;

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }
  const std::string& role() const { return role_; }

  void init(Rng& rng);

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::size_t in_features_, out_features_;
  std::string role_;
  Parameter* weight_;  // [OUT, IN]
  Parameter* bias_;    // [OUT]
  std::optional<Tensor> cached_input_;
};

/// Exact (erf-based) GELU activation.
class GELU : public Module {
 public:
  std::string type() const override { return "GELU"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::optional<Tensor> cached_input_;
};

/// Layer normalization over the last axis of [..., F].
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::size_t features, float eps = 1e-5f);

  std::string type() const override { return "LayerNorm"; }
  std::shared_ptr<Module> clone_structure() const override;
  LayerKind kind() const override { return LayerKind::kLayerNorm; }
  Parameter* weight_param() override { return gamma_; }
  Parameter* bias_param() override { return beta_; }
  TargetInventory target_inventory() override;
  Tensor backward(const Tensor& grad_output) override;

  std::size_t features() const { return features_; }

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::size_t features_;
  float eps_;
  Parameter* gamma_;  // [F], init 1
  Parameter* beta_;   // [F], init 0
  std::optional<Tensor> cached_input_;
};

/// The attention-probability tensor as an injectable leaf: softmax over
/// the last axis of the [N,H,T,T] score tensor.  Hook-based injection on
/// its output corrupts the probabilities GoldenTransformer's taxonomy
/// names as a first-class attention fault site.
class AttentionSoftmax : public Module {
 public:
  std::string type() const override { return "AttentionSoftmax"; }
  std::shared_ptr<Module> clone_structure() const override;
  LayerKind kind() const override { return LayerKind::kAttention; }
  TargetInventory target_inventory() override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::optional<Tensor> cached_output_;
};

/// Identity leaf marking the residual stream after a join: the
/// containing block computes x + sublayer(x) and passes the sum through
/// this leaf, making the summed stream hookable (injectable, monitored)
/// exactly where GoldenTransformer's residual-stream faults land.
class ResidualJoin : public Module {
 public:
  std::string type() const override { return "ResidualJoin"; }
  std::shared_ptr<Module> clone_structure() const override;
  LayerKind kind() const override { return LayerKind::kResidual; }
  TargetInventory target_inventory() override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;
};

/// Mean over the token axis: [N,T,E] -> [N,E].
class TokenMeanPool : public Module {
 public:
  std::string type() const override { return "TokenMeanPool"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::optional<Shape> cached_shape_;
};

/// Multi-head self-attention over [N,T,E].  The Q/K/V/out projections
/// and the attention-probability softmax are child leaves (hookable /
/// injectable); the score and context stages run through the
/// tensor::Backend seam between them.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(std::size_t embed_dim, std::size_t num_heads);

  std::string type() const override { return "MultiHeadAttention"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

  std::size_t embed_dim() const { return embed_; }
  std::size_t num_heads() const { return heads_; }

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::size_t embed_, heads_;
  float scale_;
  SeqLinear* q_proj_;
  SeqLinear* k_proj_;
  SeqLinear* v_proj_;
  AttentionSoftmax* attn_;
  SeqLinear* out_proj_;
  std::optional<Tensor> cached_q_, cached_k_, cached_v_, cached_probs_;
};

/// Pre-LN transformer encoder block:
///   r1 = ResidualJoin(x + MHA(LN1(x)))
///   y  = ResidualJoin(r1 + FC2(GELU(FC1(LN2(r1)))))
class TransformerBlock : public Module {
 public:
  TransformerBlock(std::size_t embed_dim, std::size_t num_heads,
                   std::size_t mlp_dim);

  std::string type() const override { return "TransformerBlock"; }
  std::shared_ptr<Module> clone_structure() const override;
  Tensor backward(const Tensor& grad_output) override;

 protected:
  Tensor compute(const Tensor& input) override;
  Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws) override;

 private:
  std::size_t embed_, heads_, mlp_;
  LayerNorm* ln1_;
  MultiHeadAttention* mha_;
  ResidualJoin* res1_;
  LayerNorm* ln2_;
  SeqLinear* fc1_;
  GELU* gelu_;
  SeqLinear* fc2_;
  ResidualJoin* res2_;
};

// -- initialization helpers ----------------------------------------------------

/// Kaiming-normal initialization of every Conv2d/Conv3d/Linear in
/// `root`, plus the transformer layers (SeqLinear Kaiming, embeddings
/// Normal(0, 0.02); LayerNorm keeps its deterministic gamma=1/beta=0).
void kaiming_init(Module& root, Rng& rng);

}  // namespace alfi::nn
