// Pluggable kernel backends (DESIGN.md §13).
//
// A Backend implements every forward kernel the inference path uses.
// The base class carries the scalar reference implementations, so a new
// backend overrides only the ops it accelerates and inherits reference
// behaviour for the rest.  Two backends ship in-tree:
//
//   * "ref"  — the scalar kernels, unchanged from before the dispatch
//     layer existed except that the accumulating kernels output NaNs as
//     the canonical quiet NaN (detail::canonical_nan).  It is the
//     campaign-identity oracle: its results are bit-exact with every
//     historical campaign artifact, and the backend-vs-reference sweep
//     (tests/test_backend_ops.cpp) compares all other backends against
//     it.
//   * "avx2" — AVX2 vectorized conv/GEMM/linear/activations, registered
//     only when the binary was built with AVX2 support AND the CPU
//     reports avx2 at runtime.  Every override is bit-exact with "ref"
//     (the sweep test compares raw bits), so the backend is a pure speed
//     choice: campaign outputs do not depend on it.
//
// Dispatch: the free functions in ops.h validate arguments and forward
// to active_backend().  Layers call those free functions, so they can
// never bypass the active backend.  Kernel methods assume validated
// shapes — callers outside ops.cpp should go through ops.h.
//
// The active backend is process-global and campaign-scoped: harnesses
// resolve the scenario's backend name once in prepare() and the worker
// threads all read the same pointer (set before workers start, never
// mutated mid-campaign).  The process default is "ref"; the alfi CLI
// installs the scenario's backend (default "auto") before it trains.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace alfi::tensor {

class Backend {
 public:
  virtual ~Backend() = default;

  /// Registry name ("ref", "avx2", ...).
  virtual const char* name() const = 0;

  // ---- elementwise (bit-exact across backends, mandatory) ------------------
  virtual void add(Tensor& dst, const Tensor& a, const Tensor& b) const;
  virtual void sub(Tensor& dst, const Tensor& a, const Tensor& b) const;
  virtual void mul(Tensor& dst, const Tensor& a, const Tensor& b) const;
  virtual void scale(Tensor& dst, const Tensor& a, float factor) const;
  virtual void add_inplace(Tensor& a, const Tensor& b) const;
  virtual void axpy_inplace(Tensor& a, float factor, const Tensor& b) const;

  // ---- linear algebra (bit-exact across backends, mandatory) ---------------
  virtual void matmul(Tensor& dst, const Tensor& a, const Tensor& b) const;
  virtual void transpose2d(Tensor& dst, const Tensor& a) const;
  virtual void linear_forward(Tensor& dst, const Tensor& input,
                              const Tensor& weight, const Tensor& bias) const;

  // ---- convolution (bit-exact across backends, mandatory) ------------------
  virtual void conv2d_forward(Tensor& dst, const Tensor& input,
                              const Tensor& weight, const Tensor& bias,
                              const ops::Conv2dSpec& spec,
                              std::span<float> col_scratch) const;
  virtual void conv2d_planned(Tensor& dst, const Tensor& input,
                              const Tensor& weight, const Tensor& bias,
                              const ops::Conv2dPlan& plan,
                              std::span<float> col_scratch) const;
  virtual void conv3d_forward(Tensor& dst, const Tensor& input,
                              const Tensor& weight, const Tensor& bias,
                              const ops::Conv3dSpec& spec) const;

  // ---- pooling (bit-exact across backends, mandatory) ----------------------
  virtual void maxpool2d(Tensor& dst, const Tensor& input,
                         const ops::Pool2dSpec& spec, std::size_t* argmax) const;
  virtual void avgpool2d(Tensor& dst, const Tensor& input,
                         const ops::Pool2dSpec& spec) const;
  virtual void global_avgpool2d(Tensor& dst, const Tensor& input) const;

  // ---- activations (bit-exact across backends, mandatory) ------------------
  virtual void relu(Tensor& dst, const Tensor& input) const;
  virtual void leaky_relu(Tensor& dst, const Tensor& input,
                          float negative_slope) const;
  virtual void sigmoid(Tensor& dst, const Tensor& input) const;
  virtual void tanh_act(Tensor& dst, const Tensor& input) const;
  virtual void clamp(Tensor& dst, const Tensor& input, float lo, float hi) const;

  // ---- normalization / heads (bit-exact across backends, mandatory) --------
  virtual void batchnorm2d_eval(Tensor& dst, const Tensor& input,
                                const Tensor& gamma, const Tensor& beta,
                                const Tensor& running_mean,
                                const Tensor& running_var, float eps) const;
  virtual void softmax_rows(Tensor& dst, const Tensor& logits) const;
  virtual void log_softmax_rows(Tensor& dst, const Tensor& logits) const;

  // ---- transformer ops (bit-exact across backends, mandatory) --------------
  // Scalar reference kernels only: transcendentals and per-row double
  // accumulation make a vectorized variant diverge bit-wise, so every
  // backend inherits these unchanged (the op sweep pins that down).
  virtual void gelu(Tensor& dst, const Tensor& input) const;
  virtual void layernorm(Tensor& dst, const Tensor& input, const Tensor& gamma,
                         const Tensor& beta, float eps) const;
  /// Stable softmax along the last axis of any rank>=1 tensor (the
  /// rank-4 [N,H,T,T] attention-score case; softmax_rows stays the
  /// strict rank-2 head).
  virtual void softmax_over_heads(Tensor& dst, const Tensor& scores) const;
  /// q,k [N,T,E] with E = heads*dh (head-major feature layout) ->
  /// dst [N,H,T,T]: dst[n,h,i,j] = scale * <q[n,i,h], k[n,j,h]>.
  virtual void attention_scores(Tensor& dst, const Tensor& q, const Tensor& k,
                                std::size_t num_heads, float scale) const;
  /// probs [N,H,T,T], v [N,T,E] -> dst [N,T,E]:
  /// dst[n,i,h*dh+d] = sum_j probs[n,h,i,j] * v[n,j,h*dh+d].
  virtual void attention_context(Tensor& dst, const Tensor& probs,
                                 const Tensor& v, std::size_t num_heads) const;
};

// ---- registry ---------------------------------------------------------------

/// The scalar reference backend (always registered, process lifetime).
Backend& ref_backend();

/// Every backend usable in this process, "ref" first.  "avx2" appears
/// only when both the build and the CPU support it.
const std::vector<Backend*>& registered_backends();

/// Registered backend by name, nullptr when absent.
Backend* find_backend(const std::string& name);

/// Names the validation layer accepts, whether or not this machine can
/// run them ("ref", "avx2", "auto").  Unknown names are configuration
/// errors; known-but-unavailable names are resolution errors.
bool is_known_backend_name(const std::string& name);

/// Maps a scenario/CLI backend name to a registered backend.
///   ""/"ref" -> ref;  "auto" -> avx2 when registered, else ref;
///   "avx2"   -> avx2, or throws ConfigError when this build/CPU lacks it.
/// Unknown names throw ConfigError listing the accepted names.
Backend& resolve_backend(const std::string& name);

/// The backend ops.h free functions dispatch to (defaults to ref).
Backend& active_backend();
void set_active_backend(Backend& backend);

/// True when the CPU reports AVX2 at runtime (false on
/// non-x86 builds).  The build must also have AVX2 enabled for the
/// "avx2" backend to register.
bool cpu_supports_avx2();

namespace detail {

/// The one NaN the accumulating kernels (matmul, linear_forward,
/// conv2d_forward, conv2d_planned) output, on every backend.  When both
/// operands of an x86 add or multiply are NaN, the result is the first
/// operand's, and the compiler picks the operand order per build (GCC
/// emits different orders for the same ref loop in the -O2 build and
/// the -O1 UBSan build), so an accumulated payload is an accident of
/// code generation.  Replacing it makes these kernels' outputs a
/// function of their inputs alone.
inline float canonical_nan(float value) {
  return std::isnan(value) ? std::numeric_limits<float>::quiet_NaN() : value;
}
void canonicalize_nans(float* data, std::size_t n);

/// im2col/col2im lowering shared by backend kernels and the (backward,
/// backend-independent) training ops in ops.cpp.
void im2col(const float* input, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw,
            std::size_t stride, std::size_t padding, std::size_t oh,
            std::size_t ow, float* col);
void col2im(const float* col, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw,
            std::size_t stride, std::size_t padding, std::size_t oh,
            std::size_t ow, float* input_grad);

/// Defined in backend_avx2.cpp (only compiled when the toolchain has
/// -mavx2); returns the process-lifetime AVX2 backend instance.
Backend& avx2_backend_instance();

}  // namespace detail

}  // namespace alfi::tensor
