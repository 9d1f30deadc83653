// Numerical operators over Tensor.
//
// Layout conventions (PyTorch-compatible so the fault coordinates in the
// Table I fault matrix mean the same thing):
//   * images / activations:  [N, C, H, W]        (conv2d)
//   * volumetric activations: [N, C, D, H, W]    (conv3d)
//   * conv2d weights: [OC, IC, KH, KW], conv3d: [OC, IC, KD, KH, KW]
//   * linear weights: [OUT, IN]
// Forward ops are paired with the backward ops needed to train the
// miniaturized evaluation models in-repo.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace alfi::ops {

// Every forward op has an `_into(dst, ...)` variant that writes into a
// caller-provided tensor (typically an arena-backed workspace slot, see
// arena.h) instead of allocating the result.  The `_into` form is THE
// backend-dispatched signature: it forwards to the active
// tensor::Backend (see backend.h), which validates shapes and runs the
// kernel.  The allocating form is a thin shim over the `_into` form, so
// both paths always execute the same backend kernel.  Layers in `nn/`
// call these free functions and never a backend directly, so they
// cannot bypass the active backend.  `dst` must already have the output
// shape; unless noted otherwise it must not alias the inputs
// (elementwise ops and activations are alias-safe).  Backward/training
// ops are backend-independent scalar code.

// ---- elementwise -----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float factor);
void add_into(Tensor& dst, const Tensor& a, const Tensor& b);
void sub_into(Tensor& dst, const Tensor& a, const Tensor& b);
void mul_into(Tensor& dst, const Tensor& a, const Tensor& b);
void scale_into(Tensor& dst, const Tensor& a, float factor);
void add_inplace(Tensor& a, const Tensor& b);
/// a += factor * b
void axpy_inplace(Tensor& a, float factor, const Tensor& b);

// ---- linear algebra --------------------------------------------------------

/// [M,K] @ [K,N] -> [M,N]
Tensor matmul(const Tensor& a, const Tensor& b);
void matmul_into(Tensor& dst, const Tensor& a, const Tensor& b);

/// [M,N] -> [N,M]
Tensor transpose2d(const Tensor& a);
void transpose2d_into(Tensor& dst, const Tensor& a);

/// y = W x + b for a batch: input [N, IN], weight [OUT, IN], bias [OUT].
Tensor linear_forward(const Tensor& input, const Tensor& weight, const Tensor& bias);
void linear_forward_into(Tensor& dst, const Tensor& input, const Tensor& weight,
                         const Tensor& bias);

struct LinearGrads {
  Tensor grad_input;   // [N, IN]
  Tensor grad_weight;  // [OUT, IN]
  Tensor grad_bias;    // [OUT]
};
LinearGrads linear_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output);

// ---- convolution -----------------------------------------------------------

struct Conv2dSpec {
  std::size_t stride = 1;
  std::size_t padding = 0;
};

/// Output spatial size for one axis.
std::size_t conv_out_size(std::size_t in, std::size_t kernel, std::size_t stride,
                          std::size_t padding);

/// input [N,IC,H,W], weight [OC,IC,KH,KW], bias [OC] -> [N,OC,OH,OW].
Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                      const Conv2dSpec& spec);

/// im2col scratch floats conv2d_forward_into needs for these shapes.
std::size_t conv2d_scratch_floats(const Shape& input, const Shape& weight,
                                  const Conv2dSpec& spec);

/// `col_scratch` must hold at least conv2d_scratch_floats(...) floats.
void conv2d_forward_into(Tensor& dst, const Tensor& input, const Tensor& weight,
                         const Tensor& bias, const Conv2dSpec& spec,
                         std::span<float> col_scratch);

/// Plan-time conv2d addressing for the workspace path: the im2col
/// gather indices depend only on the per-sample geometry, so they are
/// computed once when buffers are planned and reused every run (-1 =
/// padding zero).  The key is the per-sample [C, H, W]: the gather map
/// addresses one sample and the kernels loop over dim 0, so one plan
/// serves every batch size (a batch-1 fault-free pass, a K-row packed
/// pass and its single-row views alike).  Building a plan allocates;
/// using it does not.
struct Conv2dPlan {
  std::size_t channels = 0, height = 0, width = 0;  // plan key
  std::vector<std::int32_t> col_index;  // [col_rows * col_cols], per sample
  std::size_t col_rows = 0;
  std::size_t col_cols = 0;
  // The geometry the gather map encodes (conv2d_output_window reads it).
  std::size_t kernel_h = 0, kernel_w = 0, stride = 1, padding = 0;
  std::size_t out_height = 0, out_width = 0;

  bool matches(const Shape& input) const {
    return !col_index.empty() && input.rank() == 4 && input[1] == channels &&
           input[2] == height && input[3] == width;
  }
};

Conv2dPlan make_conv2d_plan(const Shape& input, const Shape& weight,
                            const Conv2dSpec& spec);

/// conv2d via a prebuilt plan: flat index gather instead of recomputed
/// im2col addressing, plus a 4-row-blocked GEMM whose accumulation
/// order is bit-identical to conv2d_forward_into (same left-to-right
/// sum per output element, same zero-weight skip).
void conv2d_forward_planned(Tensor& dst, const Tensor& input, const Tensor& weight,
                            const Tensor& bias, const Conv2dPlan& plan,
                            std::span<float> col_scratch);

/// Half-open rectangle [y0, y1) x [x0, x1) of one sample's [H, W] map: a
/// conv output window, or the box of a tensor row's elements that differ
/// from a baseline (fault-cone replay, DESIGN.md §12).
struct Rect {
  std::size_t y0 = 0, y1 = 0, x0 = 0, x1 = 0;

  bool empty() const { return y0 >= y1 || x0 >= x1; }
};

/// The output window of a conv with `plan`'s geometry whose receptive
/// fields meet the input box `box`: every output outside it reads only
/// input elements outside `box` (or padding).  Empty when `box` is empty
/// or lies between two strided taps (kernel < stride).
Rect conv2d_output_window(const Conv2dPlan& plan, const Rect& box);

/// What conv2d_forward_planned_window keeps between calls: the gather
/// plan of the window's columns and the window's output.  They grow to
/// the largest window seen, so repeated windows allocate nothing.
struct Conv2dWindowScratch {
  Conv2dPlan plan;
  std::vector<float> out_storage;
  Tensor out;  // view over out_storage: [N, OC, window rows, window cols]
};

/// conv2d_forward_planned restricted to the output `window` of every
/// sample: writes exactly those elements of `dst`, each bit-identical to
/// what conv2d_forward_planned writes there (every output element sums
/// its own column alone), and no other element.  Runs the backend's
/// conv2d_planned on a plan holding only the window's columns, then
/// scatters the result; `col_scratch` is the full plan's.
void conv2d_forward_planned_window(Tensor& dst, const Tensor& input, const Tensor& weight,
                                   const Tensor& bias, const Conv2dPlan& plan,
                                   const Rect& window, Conv2dWindowScratch& scratch,
                                   std::span<float> col_scratch);

struct Conv2dGrads {
  Tensor grad_input;
  Tensor grad_weight;
  Tensor grad_bias;
};
Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const Conv2dSpec& spec);

struct Conv3dSpec {
  std::size_t stride = 1;
  std::size_t padding = 0;
};

/// input [N,IC,D,H,W], weight [OC,IC,KD,KH,KW], bias [OC] -> [N,OC,OD,OH,OW].
Tensor conv3d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                      const Conv3dSpec& spec);
void conv3d_forward_into(Tensor& dst, const Tensor& input, const Tensor& weight,
                         const Tensor& bias, const Conv3dSpec& spec);

struct Conv3dGrads {
  Tensor grad_input;
  Tensor grad_weight;
  Tensor grad_bias;
};
Conv3dGrads conv3d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const Conv3dSpec& spec);

// ---- pooling ---------------------------------------------------------------

struct Pool2dSpec {
  std::size_t kernel = 2;
  std::size_t stride = 2;
};

struct MaxPoolResult {
  Tensor output;
  /// Flat input offset of each output's winning element, for backward.
  std::vector<std::size_t> argmax;
};

MaxPoolResult maxpool2d_forward(const Tensor& input, const Pool2dSpec& spec);

/// `argmax`, when non-null, must hold dst.numel() entries; passing null
/// skips the winner-index bookkeeping entirely (inference needs only
/// the pooled values).
void maxpool2d_forward_into(Tensor& dst, const Tensor& input, const Pool2dSpec& spec,
                            std::size_t* argmax = nullptr);
Tensor maxpool2d_backward(const Tensor& input, const MaxPoolResult& fwd,
                          const Tensor& grad_output);

Tensor avgpool2d_forward(const Tensor& input, const Pool2dSpec& spec);
void avgpool2d_forward_into(Tensor& dst, const Tensor& input, const Pool2dSpec& spec);
Tensor avgpool2d_backward(const Tensor& input, const Pool2dSpec& spec,
                          const Tensor& grad_output);

/// Global average pooling: [N,C,H,W] -> [N,C].
Tensor global_avgpool2d(const Tensor& input);
void global_avgpool2d_into(Tensor& dst, const Tensor& input);
Tensor global_avgpool2d_backward(const Tensor& input, const Tensor& grad_output);

// ---- activations -----------------------------------------------------------

Tensor relu(const Tensor& input);
void relu_into(Tensor& dst, const Tensor& input);
Tensor relu_backward(const Tensor& input, const Tensor& grad_output);

Tensor leaky_relu(const Tensor& input, float negative_slope);
void leaky_relu_into(Tensor& dst, const Tensor& input, float negative_slope);
Tensor leaky_relu_backward(const Tensor& input, float negative_slope,
                           const Tensor& grad_output);

Tensor sigmoid(const Tensor& input);
void sigmoid_into(Tensor& dst, const Tensor& input);
Tensor sigmoid_backward(const Tensor& output, const Tensor& grad_output);

Tensor tanh_act(const Tensor& input);
void tanh_act_into(Tensor& dst, const Tensor& input);
Tensor tanh_backward(const Tensor& output, const Tensor& grad_output);

/// Clamps every element to [lo, hi] (basis for the Ranger mitigation).
Tensor clamp(const Tensor& input, float lo, float hi);
void clamp_into(Tensor& dst, const Tensor& input, float lo, float hi);

// ---- normalization ----------------------------------------------------------

/// Eval-mode batch normalization over [N,C,H,W] using running stats
/// (the training path lives in nn::BatchNorm2d, which needs the batch
/// statistics for backward).
void batchnorm2d_eval_into(Tensor& dst, const Tensor& input, const Tensor& gamma,
                           const Tensor& beta, const Tensor& running_mean,
                           const Tensor& running_var, float eps);

// ---- classification heads --------------------------------------------------

/// Row-wise softmax of [N, K].
Tensor softmax_rows(const Tensor& logits);
void softmax_rows_into(Tensor& dst, const Tensor& logits);

/// Row-wise log-softmax of [N, K] (numerically stable).
Tensor log_softmax_rows(const Tensor& logits);
void log_softmax_rows_into(Tensor& dst, const Tensor& logits);

// ---- transformer ops --------------------------------------------------------

/// Exact (erf-based) GELU, elementwise.
Tensor gelu(const Tensor& input);
void gelu_into(Tensor& dst, const Tensor& input);
Tensor gelu_backward(const Tensor& input, const Tensor& grad_output);

/// Layer normalization over the last axis of [..., F]; gamma/beta [F].
Tensor layernorm(const Tensor& input, const Tensor& gamma, const Tensor& beta,
                 float eps);
void layernorm_into(Tensor& dst, const Tensor& input, const Tensor& gamma,
                    const Tensor& beta, float eps);

/// Stable softmax along the last axis of any rank>=1 tensor (the
/// [N,H,T,T] attention-probability case).
Tensor softmax_over_heads(const Tensor& scores);
void softmax_over_heads_into(Tensor& dst, const Tensor& scores);
/// dX for y = softmax(x) over the last axis, given y and dY.
Tensor softmax_over_heads_backward(const Tensor& output, const Tensor& grad_output);

/// Scaled per-head dot-product scores: q,k [N,T,E] -> [N,H,T,T].
Tensor attention_scores(const Tensor& q, const Tensor& k, std::size_t num_heads,
                        float scale);
void attention_scores_into(Tensor& dst, const Tensor& q, const Tensor& k,
                           std::size_t num_heads, float scale);

/// Per-head probability-weighted value mix: probs [N,H,T,T], v [N,T,E]
/// -> [N,T,E] (heads re-merged into the feature axis).
Tensor attention_context(const Tensor& probs, const Tensor& v,
                         std::size_t num_heads);
void attention_context_into(Tensor& dst, const Tensor& probs, const Tensor& v,
                            std::size_t num_heads);

/// Mean negative log-likelihood of `labels` under `logits` [N, K].
float cross_entropy_loss(const Tensor& logits, const std::vector<std::size_t>& labels);

/// d(loss)/d(logits) for the mean cross-entropy above.
Tensor cross_entropy_grad(const Tensor& logits, const std::vector<std::size_t>& labels);

/// Indices of the k largest values in a rank-1 tensor, descending.
std::vector<std::size_t> topk_indices(std::span<const float> values, std::size_t k);

}  // namespace alfi::ops
