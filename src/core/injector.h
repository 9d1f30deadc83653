// Injector: applies armed faults to one model instance.
//
// Two mechanisms, exactly as in PyTorchFI (paper §II):
//   * Neuron faults — forward hooks registered on every injectable
//     layer corrupt the layer's output tensor in place while faults are
//     armed.  "Hooks are used for fault injection in neurons, since the
//     values of the tensor position that are to be corrupted are only
//     determined during run time."
//   * Weight faults — the parameter tensor is mutated directly when the
//     fault is armed and restored when disarmed (transient) or kept
//     across arm/disarm cycles (permanent), since "weights are defined
//     before the inference run".
//
// Every application is logged as an InjectionRecord (original value,
// corrupted value, flip direction) for the post-run binary trace file.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/fault_matrix.h"
#include "core/model_profile.h"
#include "nn/quantize.h"
#include "util/metrics.h"

namespace alfi::core {

class Injector {
 public:
  /// `profile` must have been built from this same `model`.
  Injector(nn::Module& model, const ModelProfile& profile,
           FaultDuration duration = FaultDuration::kTransient);

  /// Removes all hooks and restores every corrupted weight.
  ~Injector();

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Arms a set of faults: weight faults are applied immediately,
  /// neuron faults fire on every subsequent forward until disarmed.
  /// A fault's `batch` field selects the sample slot (-1 = all slots;
  /// a slot beyond the actual batch is counted in
  /// skipped_injection_count()).  The campaign harnesses remap slots
  /// onto each unit's batch slot before arming (append_unit_faults,
  /// DESIGN.md §12), so the skip path is a backstop for hand-armed
  /// faults, not a normal campaign outcome.
  void arm(std::vector<Fault> faults);

  /// Disarms neuron faults and (for transient duration) restores weights.
  void disarm();

  /// Restores every weight corruption, including permanent ones.
  void restore_all_weights();

  /// Labels subsequent records with the current iterator step.
  void set_inference_index(std::size_t index) { inference_index_ = index; }

  const std::vector<InjectionRecord>& records() const { return records_; }
  void clear_records() { records_.clear(); }

  /// Campaign passes (DESIGN.md §12): takes every logged record,
  /// leaving the log empty, and returns them grouped by pack slot in
  /// firing order (which is each unit's own record order: layers fire
  /// in the same order).  A multi-unit pack's records are rewritten
  /// from batch-slot form into the per-unit form a one-unit pack logs —
  /// slot s names its unit slot_units[s], which becomes the record's
  /// inference index, and its batch becomes 0.  A one-unit pack's
  /// records already have that form and stay as logged.
  std::vector<std::vector<InjectionRecord>> split_records_by_slot(
      const std::vector<std::size_t>& slot_units);

  std::size_t armed_neuron_fault_count() const;
  std::size_t pending_weight_restores() const { return weight_restores_.size(); }

  /// Invokes `fn` once per injectable-layer index currently armed
  /// (neuron faults or weight corruptions), in ascending order.
  void for_each_armed_layer(const std::function<void(std::size_t)>& fn) const;

  /// The model profile the injector's layer indices refer to.
  const ModelProfile& profile() const { return profile_; }

  /// Neuron faults whose batch slot exceeded the forwarded batch, so no
  /// value was corrupted and no InjectionRecord written.  Campaigns
  /// surface this so KPI denominators do not silently shrink.
  std::size_t skipped_injection_count() const { return skipped_injections_; }

  /// Mirrors armed/applied/skipped/restore events into `registry`
  /// (counters `injections.*`).  Pass nullptr to detach.
  void set_metrics(util::MetricsRegistry* registry);

  FaultDuration duration() const { return duration_; }
  void set_duration(FaultDuration duration) { duration_ = duration; }

  /// Numeric-emulation contract (DESIGN.md §13): weight restores
  /// round-trip through quantize_value(original, type) so a restored
  /// weight never carries bits below the type's lowest live bit —
  /// identity for fp32.  For stored types also pass the model's
  /// StoredWeightStore via set_stored_weights(); weight faults then
  /// corrupt the STORED code (bit_pos indexes storage_bits(type) bits)
  /// and restore by writing the original code back.
  void set_numeric_type(nn::NumericType type) { numeric_type_ = type; }
  nn::NumericType numeric_type() const { return numeric_type_; }

  /// Attaches the stored-weight representation for this injector's
  /// model instance (nullptr detaches).  Must cover the model's
  /// parameters; required when numeric_type() is a stored type.
  void set_stored_weights(nn::StoredWeightStore* store) { store_ = store; }

 private:
  void apply_neuron_faults(std::size_t layer_index, Tensor& output);
  void apply_weight_fault(const Fault& fault);

  struct WeightRestore {
    nn::Parameter* param;
    std::size_t offset;
    float original;
    std::size_t layer;  // injectable-layer index owning the weight
    std::uint32_t original_code = 0;  // stored representation, if any
    bool stored = false;              // restore via the stored code
  };

  nn::Module& model_;
  const ModelProfile& profile_;
  FaultDuration duration_;
  std::vector<nn::HookHandle> hook_handles_;
  /// Armed neuron faults grouped by injectable-layer index.
  std::vector<std::vector<Fault>> neuron_faults_by_layer_;
  std::vector<WeightRestore> weight_restores_;
  std::vector<InjectionRecord> records_;
  nn::NumericType numeric_type_ = nn::NumericType::kFloat32;
  nn::StoredWeightStore* store_ = nullptr;
  std::size_t inference_index_ = 0;
  std::size_t skipped_injections_ = 0;
  // Resolved once in set_metrics(); updated lock-free on the hot path.
  util::Counter* armed_counter_ = nullptr;
  util::Counter* applied_counter_ = nullptr;
  util::Counter* skipped_counter_ = nullptr;
  util::Counter* weight_applied_counter_ = nullptr;
  util::Counter* weight_restore_counter_ = nullptr;
  // Per-injectable-layer role counters (injections.applied_role.<role>,
  // injections.weight_applied_role.<role>); nullptr for layers with the
  // historical default roles so CNN metrics keep their exact key set.
  std::vector<util::Counter*> role_applied_counters_;
  std::vector<util::Counter*> role_weight_counters_;
};

}  // namespace alfi::core
