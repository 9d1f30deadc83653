// Activation-range mitigations: Ranger and Clipper.
//
// The paper's Fig. 2a compares unprotected models against models
// hardened with the range-supervision techniques of Geissler et al. [6]:
//   * Ranger  — out-of-range activation values are *truncated* to the
//     profiled range.
//   * Clipper — out-of-range activation values are *zeroed*.
// Bounds are profiled per activation layer on fault-free data; the
// protection is installed as forward hooks on the hardened ("resil")
// model instance, running after any injection hooks upstream.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/module.h"
#include "nn/workspace.h"

namespace alfi::core {

struct RangeBounds {
  float lo = 0.0f;
  float hi = 0.0f;
};

/// Per-layer activation bounds keyed by module path.
using RangeMap = std::map<std::string, RangeBounds>;

/// Records min/max activation values per activation layer while the
/// caller runs fault-free inferences; detach happens on destruction.
class ActivationRangeProfiler {
 public:
  explicit ActivationRangeProfiler(nn::Module& model);
  ~ActivationRangeProfiler();
  ActivationRangeProfiler(const ActivationRangeProfiler&) = delete;
  ActivationRangeProfiler& operator=(const ActivationRangeProfiler&) = delete;

  const RangeMap& bounds() const { return bounds_; }

 private:
  struct Attachment {
    nn::Module* module;
    nn::HookHandle handle;
  };
  std::vector<Attachment> attachments_;
  RangeMap bounds_;
};

/// True for layer types whose outputs are range-supervised (activations).
bool is_activation_layer(const nn::Module& module);

/// Profiles bounds by running every batch the callback provides.
RangeMap profile_activation_ranges(nn::Module& model,
                                   const std::vector<Tensor>& calibration_batches);

enum class MitigationKind { kRanger, kClipper };

const char* to_string(MitigationKind kind);

/// Installs range-supervision hooks on `model`'s activation layers;
/// hooks are removed on destruction.  `bounds` paths must match the
/// model's activation-layer paths (same architecture as the profiled
/// model).
///
/// As a PrefixObserver, Protection tells the fault-free cache which
/// leaves a root-child start may drop: those whose fault-free output its
/// clamp leaves unchanged (DESIGN.md §11.1).
class Protection : public nn::PrefixObserver {
 public:
  Protection(nn::Module& model, const RangeMap& bounds, MitigationKind kind);
  ~Protection();
  Protection(const Protection&) = delete;
  Protection& operator=(const Protection&) = delete;

  MitigationKind kind() const { return kind_; }
  std::size_t protected_layer_count() const { return attachments_.size(); }

  /// Protection can be toggled so one model instance can serve both the
  /// "faulty" and the "resil" pass of a tightly-coupled campaign.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Total activation values altered by the protection so far.
  std::size_t corrections() const { return corrections_; }
  void reset_corrections() { corrections_ = 0; }

  /// PrefixObserver: true iff the clamp leaves `fault_free_output`
  /// unchanged whether enabled or not — an unprotected layer, or every
  /// value inside the layer's bounds.  Side-effect free.
  bool skippable(const nn::Module& module, const Tensor& fault_free_output) override;

 private:
  struct Attachment {
    nn::Module* module;
    nn::HookHandle handle;
  };
  MitigationKind kind_;
  std::vector<Attachment> attachments_;
  std::unordered_map<const nn::Module*, RangeBounds> module_bounds_;
  std::size_t corrections_ = 0;
  bool enabled_ = true;
};

}  // namespace alfi::core
