// Module system with named parameters, child traversal and forward hooks.
//
// This reproduces the slice of PyTorch's nn.Module contract that
// PyTorchALFI depends on (paper §II): layers are named modules holding
// parameters; callers can walk all modules; and *forward hooks* —
// callbacks that observe and mutate a layer's output tensor in place —
// are the mechanism for neuron fault injection ("hooks are used for
// fault injection in neurons, since the values of the tensor position
// that are to be corrupted are only determined during run time").
//
// The public forward() is non-virtual (NVI): it invokes the layer's
// compute step and then runs registered hooks in registration order, so
// a layer implementation can never accidentally skip hook execution.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace alfi::nn {

/// A learnable tensor with its gradient accumulator.
struct Parameter {
  std::string name;  // local name within the owning module, e.g. "weight"
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0f); }
};

/// Coarse layer classification used by the fault model to restrict
/// injection to particular layer types (paper: "Supported layer types
/// are conv2d, conv3d, and Linear"; the transformer kinds extend that
/// taxonomy along GoldenTransformer's attention fault sites).
enum class LayerKind {
  kConv2d,
  kConv3d,
  kLinear,
  kSeqLinear,   // token-wise projection over [N,T,E] (Q/K/V/out, MLP)
  kEmbedding,   // token + positional embedding table
  kAttention,   // attention-probability tensor (post-softmax)
  kResidual,    // residual-stream join
  kLayerNorm,   // layer normalization (gain/bias weight site)
  kOther,
};

const char* layer_kind_name(LayerKind kind);

class Module;

struct Parameter;

/// What a leaf advertises to the fault-targeting seam: whether it can
/// receive faults at all, its weight-fault site (nullptr for weight-less
/// sites such as the attention-probability tensor), and the semantic
/// roles its tensors play — the strings the per-target applied-fault
/// counters and `--list-targets` report.  `core::ModelProfile` resolves
/// scenarios against this inventory instead of assuming conv/linear
/// layouts.  The default (see Module::target_inventory) derives the
/// inventory from kind()/weight_param(), so existing CNN layers profile
/// exactly as before.
struct TargetInventory {
  bool injectable = false;
  Parameter* weight = nullptr;  // weight-fault site, or nullptr
  std::string weight_role;      // e.g. "weight", "q_proj"
  std::string output_role;      // e.g. "activation", "attn_probs"
};

/// Identifies one registered hook so it can be removed (mirrors the
/// handle returned by torch's register_forward_hook).
struct HookHandle {
  std::uint64_t id = 0;
};

/// Forward hook: runs after the layer computed `output`; may mutate
/// `output` in place.  `module` is the layer the hook is attached to.
/// On the workspace path `output` is an arena-backed slot: hooks must
/// mutate its elements, never reassign the tensor itself.
using ForwardHook = std::function<void(Module& module, const Tensor& input, Tensor& output)>;

class InferenceWorkspace;

class Module {
 public:
  Module() = default;
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Runs the layer then all forward hooks; returns the (possibly
  /// hook-mutated) output.
  Tensor forward(const Tensor& input);

  /// Workspace twin of forward() for eval-mode inference: computes into
  /// a stable arena-backed slot owned by `ws` and runs the same hooks,
  /// in the same order, mutating the slot in place — so neuron
  /// injection, monitoring and mitigation semantics are bit-identical
  /// to the allocating path.  The returned reference is valid until the
  /// workspace replans.  Prefer InferenceWorkspace::run() as the entry
  /// point; it handles plan invalidation.
  Tensor& forward_ws(const Tensor& input, InferenceWorkspace& ws);

  // -- cloning -------------------------------------------------------------

  /// Architecture-only copy: a fresh module tree with the same layer
  /// types, hyperparameters and child structure but default-initialized
  /// parameter values.  Containers clone their children recursively.
  /// Layers that do not support cloning throw Error; forward hooks are
  /// never copied (a clone starts unobserved).
  virtual std::shared_ptr<Module> clone_structure() const;

  /// Deep copy: clone_structure() plus all parameter values, buffer
  /// tensors and the training flag.  The clone shares no mutable state
  /// with the original, so it can run on another thread (the basis of
  /// the parallel campaign runner's per-worker model replicas).
  std::shared_ptr<Module> clone();

  /// Copies parameter values and buffers from `source` into this tree;
  /// both trees must have identical structure (module types, paths and
  /// parameter/buffer registration order).
  void copy_state_from(Module& source);

  /// Drives one inference for profiling purposes so that *every*
  /// submodule executes at least once.  The default simply forwards;
  /// multi-stage models whose second stage runs outside compute() (e.g.
  /// a two-stage detector head) override this to exercise those parts
  /// too, so layer geometry discovery sees them.
  virtual void probe_forward(const Tensor& input) { (void)forward(input); }

  /// Backpropagates through the layer using state cached by the most
  /// recent forward(); accumulates parameter gradients and returns the
  /// gradient with respect to the input.  Layers that are inference-only
  /// may throw.
  virtual Tensor backward(const Tensor& grad_output);

  /// Layer type name, e.g. "Conv2d".
  virtual std::string type() const = 0;

  virtual LayerKind kind() const { return LayerKind::kOther; }

  /// The layer's weight parameter, or nullptr for weight-less layers.
  /// Weight fault injection mutates this tensor directly (paper §II:
  /// "Fault injections into weights don't have to use hooks").
  virtual Parameter* weight_param() { return nullptr; }

  /// The layer's bias parameter, or nullptr.
  virtual Parameter* bias_param() { return nullptr; }

  /// The injectable-tensor inventory this leaf advertises to the fault
  /// targeting seam.  The default derives it from kind() and
  /// weight_param() — injectable iff kind() != kOther, weight role
  /// "weight", output role "activation" — which reproduces the historical
  /// conv/linear behaviour bit-for-bit.  Layers with named internal
  /// sites (attention probabilities, residual stream, ...) override this
  /// to advertise their semantic roles.
  virtual TargetInventory target_inventory();

  // -- parameters -------------------------------------------------------

  /// Parameters owned directly by this module.
  std::vector<Parameter*> local_parameters();

  /// All parameters of this module and its descendants, pre-order.
  std::vector<Parameter*> parameters();

  /// Non-trainable state tensors that must persist with the model
  /// (e.g. BatchNorm running statistics), name + stable pointer.
  const std::vector<std::pair<std::string, Tensor*>>& local_buffers() const {
    return buffers_;
  }

  /// Total trainable element count in this subtree.
  std::size_t parameter_count();

  void zero_grad();

  // -- children -----------------------------------------------------------

  /// Named direct children in registration order.
  const std::vector<std::pair<std::string, std::shared_ptr<Module>>>& children() const {
    return children_;
  }

  /// Visits this module and every descendant, pre-order, with dot-joined
  /// paths ("features.3").  The root's path is "".
  void for_each_module(const std::function<void(const std::string& path, Module&)>& fn);

  // -- hooks ---------------------------------------------------------------

  HookHandle register_forward_hook(ForwardHook hook);
  /// Removes one hook; unknown handles are ignored (idempotent).
  void remove_forward_hook(HookHandle handle);
  void clear_forward_hooks();
  std::size_t forward_hook_count() const { return hooks_.size(); }

  /// Removes hooks from this module and every descendant.
  void clear_forward_hooks_recursive();

  // -- mode ------------------------------------------------------------------

  /// Switches training mode for this subtree (affects BatchNorm, Dropout).
  void set_training(bool training);
  bool training() const { return training_; }

 protected:
  /// The layer's computation; hooks are applied by forward().
  virtual Tensor compute(const Tensor& input) = 0;

  /// Workspace computation; hooks are applied by forward_ws().  The
  /// default falls back to the allocating compute() and copies the
  /// result into this module's slot, so custom layers work unmodified
  /// (they just don't get the zero-allocation guarantee); built-in
  /// layers override this with `_into` kernels writing straight into
  /// the slot.
  virtual Tensor& compute_ws(const Tensor& input, InferenceWorkspace& ws);

  /// Fault-cone replay (DESIGN.md §12): computes one row of this leaf's
  /// output — the view slot() returns, which already holds the baseline's
  /// row — from `input_row`, a single row whose elements outside `dirty`
  /// equal the baseline input's row.  Returns false when no output element
  /// can differ, so nothing was computed.  The default recomputes the
  /// whole row (compute_ws); Conv2d computes only the output window the
  /// box reaches.
  virtual bool compute_ws_cone(const Tensor& input_row, const ops::Rect& dirty,
                               InferenceWorkspace& ws);

  /// Runs the registered forward hooks on `output`, in registration order.
  void run_forward_hooks(const Tensor& input, Tensor& output);

  /// Registers a parameter owned by this module; returns a stable pointer.
  Parameter* register_parameter(std::string name, Tensor value);

  /// Registers a persistent state tensor owned by the derived layer
  /// (the tensor must outlive the module; typically a data member).
  void register_buffer(std::string name, Tensor* buffer);

  /// Registers a child module; returns the raw pointer for convenience.
  Module* register_child(std::string name, std::shared_ptr<Module> child);

 private:
  /// forward_ws of a leaf an armed pass replays
  /// (InferenceWorkspace::cone_baseline).
  Tensor& forward_cone(const Tensor& input, const Tensor& baseline,
                       InferenceWorkspace& ws);

  std::vector<std::unique_ptr<Parameter>> params_;
  std::vector<std::pair<std::string, Tensor*>> buffers_;
  std::vector<std::pair<std::string, std::shared_ptr<Module>>> children_;
  std::vector<std::pair<HookHandle, ForwardHook>> hooks_;
  std::uint64_t next_hook_id_ = 1;
  bool training_ = false;
};

}  // namespace alfi::nn
