#include "core/injector.h"

#include <algorithm>

#include "tensor/bits.h"

namespace alfi::core {

Injector::Injector(nn::Module& model, const ModelProfile& profile,
                   FaultDuration duration)
    : model_(model),
      profile_(profile),
      duration_(duration),
      neuron_faults_by_layer_(profile.layer_count()) {
  hook_handles_.reserve(profile.layer_count());
  for (std::size_t i = 0; i < profile.layer_count(); ++i) {
    hook_handles_.push_back(profile.layer(i).module->register_forward_hook(
        [this, i](nn::Module&, const Tensor&, Tensor& output) {
          apply_neuron_faults(i, output);
        }));
  }
}

Injector::~Injector() {
  restore_all_weights();
  for (std::size_t i = 0; i < hook_handles_.size(); ++i) {
    profile_.layer(i).module->remove_forward_hook(hook_handles_[i]);
  }
}

void Injector::arm(std::vector<Fault> faults) {
  if (armed_counter_ != nullptr) armed_counter_->add(faults.size());
  for (Fault& fault : faults) {
    ALFI_CHECK(fault.layer >= 0 &&
                   static_cast<std::size_t>(fault.layer) < profile_.layer_count(),
               "fault layer index out of range");
    if (fault.target == FaultTarget::kWeights) {
      apply_weight_fault(fault);
    } else {
      neuron_faults_by_layer_[static_cast<std::size_t>(fault.layer)].push_back(fault);
    }
  }
}

void Injector::set_metrics(util::MetricsRegistry* registry) {
  if (registry == nullptr) {
    armed_counter_ = nullptr;
    applied_counter_ = nullptr;
    skipped_counter_ = nullptr;
    weight_applied_counter_ = nullptr;
    weight_restore_counter_ = nullptr;
    role_applied_counters_.clear();
    role_weight_counters_.clear();
    return;
  }
  armed_counter_ = &registry->counter("injections.armed");
  applied_counter_ = &registry->counter("injections.applied");
  skipped_counter_ = &registry->counter("injections.skipped_batch_slot");
  weight_applied_counter_ = &registry->counter("injections.weight_applied");
  weight_restore_counter_ = &registry->counter("injections.weight_restores");
  // Per-role applied-fault counters for layers whose inventory names a
  // semantic site (attn_probs, q_proj, ...).  Layers with the historical
  // default roles register nothing, so CNN campaign metrics are
  // unchanged key-for-key.
  role_applied_counters_.assign(profile_.layer_count(), nullptr);
  role_weight_counters_.assign(profile_.layer_count(), nullptr);
  for (std::size_t i = 0; i < profile_.layer_count(); ++i) {
    const LayerInfo& layer = profile_.layer(i);
    if (layer.output_role != "activation") {
      role_applied_counters_[i] =
          &registry->counter("injections.applied_role." + layer.output_role);
    }
    if (layer.has_weight() && layer.weight_role != "weight") {
      role_weight_counters_[i] =
          &registry->counter("injections.weight_applied_role." + layer.weight_role);
    }
  }
}

void Injector::disarm() {
  for (auto& layer_faults : neuron_faults_by_layer_) layer_faults.clear();
  if (duration_ == FaultDuration::kTransient) restore_all_weights();
}

void Injector::restore_all_weights() {
  // Restore in reverse order so overlapping corruptions of one weight
  // unwind to the true original value.
  for (auto it = weight_restores_.rbegin(); it != weight_restores_.rend(); ++it) {
    if (it->stored && store_ != nullptr) {
      // Stored representation: writing the original code back refreshes
      // the fp32 view through dequantization, bit-exact.
      store_->set_code(*it->param, it->offset, it->original_code);
    } else {
      // Round-trip through the emulated representation so a restored
      // weight cannot carry bits below the type's lowest live bit
      // (identity for fp32).  Without this, an `original` captured from
      // an out-of-contract weight would silently re-break the
      // quantization invariant the campaign was configured to measure.
      it->param->value.flat(it->offset) =
          nn::quantize_value(it->original, numeric_type_);
    }
  }
  if (weight_restore_counter_ != nullptr) {
    weight_restore_counter_->add(weight_restores_.size());
  }
  weight_restores_.clear();
}

std::size_t Injector::armed_neuron_fault_count() const {
  std::size_t count = 0;
  for (const auto& layer_faults : neuron_faults_by_layer_) count += layer_faults.size();
  return count;
}

std::vector<std::vector<InjectionRecord>> Injector::split_records_by_slot(
    const std::vector<std::size_t>& slot_units) {
  std::vector<std::vector<InjectionRecord>> per_slot(slot_units.size());
  for (InjectionRecord& record : records_) {
    std::size_t slot = 0;
    if (slot_units.size() > 1) {
      slot = static_cast<std::size_t>(record.fault.batch);
      ALFI_CHECK(slot < slot_units.size(), "injection record outside the pack");
      record.fault.batch = 0;
      record.inference_index = slot_units[slot];
    }
    per_slot[slot].push_back(std::move(record));
  }
  records_.clear();
  return per_slot;
}

void Injector::for_each_armed_layer(const std::function<void(std::size_t)>& fn) const {
  std::vector<bool> armed(profile_.layer_count(), false);
  for (std::size_t i = 0; i < neuron_faults_by_layer_.size(); ++i) {
    // Count every armed fault, including ones aimed past the batch: the
    // layer's hook still runs skip accounting for them, so the layer
    // must recompute even though its values stay fault-free.
    if (!neuron_faults_by_layer_[i].empty()) armed[i] = true;
  }
  for (const WeightRestore& restore : weight_restores_) armed[restore.layer] = true;
  for (std::size_t i = 0; i < armed.size(); ++i) {
    if (armed[i]) fn(i);
  }
}

void Injector::apply_weight_fault(const Fault& fault) {
  const LayerInfo& layer = profile_.layer(static_cast<std::size_t>(fault.layer));
  nn::Parameter* weight = layer.weight;  // inventory-advertised weight site
  ALFI_CHECK(weight != nullptr, "weight fault on weight-less layer");
  const std::size_t offset = fault.weight_offset(weight->value.shape());

  const float original = weight->value.flat(offset);
  InjectionRecord record;
  record.fault = fault;
  record.inference_index = inference_index_;
  record.original_value = original;

  if (store_ != nullptr && store_->handles(weight)) {
    // Stored representation: the fault corrupts the reduced-width code;
    // the fp32 compute view is refreshed by dequantization.
    const std::uint32_t original_code = store_->code(*weight, offset);
    std::uint32_t corrupted_code = original_code;
    if (fault.value_type == ValueType::kRandomValue) {
      corrupted_code = store_->encode(*weight, offset, fault.number_value);
    } else {
      ALFI_CHECK(fault.bit_pos >= 0 &&
                     fault.bit_pos < nn::storage_bits(store_->type()),
                 "weight fault bit position exceeds stored representation width");
      const std::uint32_t mask = 1u << fault.bit_pos;
      switch (fault.value_type) {
        case ValueType::kBitFlip: corrupted_code ^= mask; break;
        case ValueType::kStuckAt0: corrupted_code &= ~mask; break;
        case ValueType::kStuckAt1: corrupted_code |= mask; break;
        case ValueType::kRandomValue: break;  // handled above
      }
    }
    const float corrupted = store_->set_code(*weight, offset, corrupted_code);
    weight_restores_.push_back({weight, offset, original,
                                static_cast<std::size_t>(fault.layer),
                                original_code, true});
    record.corrupted_value = corrupted;
    if (fault.value_type != ValueType::kRandomValue && fault.bit_pos >= 0 &&
        original_code != corrupted_code) {
      record.flip_direction =
          ((original_code >> fault.bit_pos) & 1u) == 0 ? "0->1" : "1->0";
    }
  } else {
    const float corrupted = fault.corrupt(original);
    weight->value.flat(offset) = corrupted;
    weight_restores_.push_back(
        {weight, offset, original, static_cast<std::size_t>(fault.layer)});
    record.corrupted_value = corrupted;
    if (fault.value_type != ValueType::kRandomValue && fault.bit_pos >= 0 &&
        original != corrupted) {
      record.flip_direction = bits::flip_direction(original, fault.bit_pos);
    }
  }
  if (weight_applied_counter_ != nullptr) weight_applied_counter_->add();
  const std::size_t layer_index = static_cast<std::size_t>(fault.layer);
  if (layer_index < role_weight_counters_.size() &&
      role_weight_counters_[layer_index] != nullptr) {
    role_weight_counters_[layer_index]->add();
  }
  records_.push_back(std::move(record));
}

void Injector::apply_neuron_faults(std::size_t layer_index, Tensor& output) {
  const std::vector<Fault>& faults = neuron_faults_by_layer_[layer_index];
  if (faults.empty()) return;

  ALFI_CHECK(output.rank() >= 2, "hooked layer output must be batched");
  const std::size_t batch = output.dim(0);
  const std::size_t per_sample = output.numel() / batch;
  const std::vector<std::size_t> sample_dims(output.shape().dims().begin() + 1,
                                             output.shape().dims().end());
  const Shape sample_shape{sample_dims};

  for (const Fault& fault : faults) {
    const std::size_t offset = fault.neuron_offset(sample_shape);
    const std::size_t first_slot =
        fault.batch < 0 ? 0 : static_cast<std::size_t>(fault.batch);
    if (fault.batch >= 0 && first_slot >= batch) {
      // A per-batch fault aimed past a short (final) batch: nothing is
      // corrupted, so the unit is effectively fault-free.  Count it —
      // silently dropping it shrinks the KPI denominators.
      ++skipped_injections_;
      if (skipped_counter_ != nullptr) skipped_counter_->add();
      continue;
    }
    const std::size_t last_slot = fault.batch < 0 ? batch - 1 : first_slot;

    for (std::size_t slot = first_slot; slot <= last_slot; ++slot) {
      float& cell = output.flat(slot * per_sample + offset);
      const float original = cell;
      const float corrupted = fault.corrupt(original);
      cell = corrupted;

      InjectionRecord record;
      record.fault = fault;
      record.fault.batch = static_cast<std::int64_t>(slot);
      record.inference_index = inference_index_;
      record.original_value = original;
      record.corrupted_value = corrupted;
      if (fault.value_type != ValueType::kRandomValue && fault.bit_pos >= 0 &&
          original != corrupted) {
        record.flip_direction = bits::flip_direction(original, fault.bit_pos);
      }
      records_.push_back(std::move(record));
      if (applied_counter_ != nullptr) applied_counter_->add();
      if (layer_index < role_applied_counters_.size() &&
          role_applied_counters_[layer_index] != nullptr) {
        role_applied_counters_[layer_index]->add();
      }
    }
  }
}

}  // namespace alfi::core
