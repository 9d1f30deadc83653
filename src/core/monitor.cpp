#include "core/monitor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace alfi::core {

namespace {

/// True when no element of `output` is NaN or Inf.  The hook runs on
/// every layer of every inference, so the all-finite common case must
/// be as cheap as possible: a float is non-finite iff its exponent
/// field is all ones, and a branchless max-reduction over the masked
/// exponent bits vectorizes.
bool all_finite(const Tensor& output) {
  constexpr std::uint32_t kExpMask = 0x7f800000u;
  std::uint32_t worst_exp = 0;
  for (const float v : output.data()) {
    worst_exp = std::max(worst_exp, std::bit_cast<std::uint32_t>(v) & kExpMask);
  }
  return worst_exp != kExpMask;
}

}  // namespace

ModelMonitor::ModelMonitor(nn::Module& model) {
  model.for_each_module([this](const std::string& path, nn::Module& m) {
    if (!m.children().empty()) return;  // attach to leaf layers only
    const nn::HookHandle handle = m.register_forward_hook(
        [this, path](nn::Module&, const Tensor&, Tensor& output) {
          observe(path, output);
        });
    attachments_.push_back({&m, handle});
  });
}

bool ModelMonitor::skippable(const nn::Module&, const Tensor& fault_free_output) {
  return custom_.empty() && all_finite(fault_free_output);
}

ModelMonitor::~ModelMonitor() {
  for (const Attachment& a : attachments_) {
    a.module->remove_forward_hook(a.handle);
  }
}

void ModelMonitor::reset() {
  nan_layers_.clear();
  inf_layers_.clear();
  std::fill(slot_nan_.begin(), slot_nan_.end(), std::uint8_t{0});
  std::fill(slot_inf_.begin(), slot_inf_.end(), std::uint8_t{0});
}

void ModelMonitor::set_slot_count(std::size_t slots) {
  slot_count_ = slots;
  slot_nan_.assign(slots, 0);
  slot_inf_.assign(slots, 0);
}

bool ModelMonitor::slot_due(std::size_t slot) const {
  ALFI_CHECK(slot < slot_count_, "monitor slot index out of range");
  return slot_nan_[slot] != 0 || slot_inf_[slot] != 0;
}

void ModelMonitor::add_custom(CustomMonitor monitor) {
  ALFI_CHECK(static_cast<bool>(monitor), "custom monitor must not be empty");
  custom_.push_back(std::move(monitor));
}

void ModelMonitor::set_metrics(util::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    nan_total_ = nullptr;
    inf_total_ = nullptr;
    return;
  }
  nan_total_ = &registry->counter("monitor.nan_total");
  inf_total_ = &registry->counter("monitor.inf_total");
}

void ModelMonitor::observe(const std::string& path, const Tensor& output) {
  // The per-element NaN-vs-Inf classification only runs when the
  // exponent sweep hits something.
  const bool finite = all_finite(output);
  if (finite && custom_.empty()) return;

  if (!finite && slot_count_ > 0) {
    // Per-slot mode: classify each packed sample's row independently so
    // flags and counter increments equal those of slot_count_ separate
    // single-sample inferences (one increment per affected slot).
    ALFI_CHECK(output.rank() >= 1 && output.dim(0) == slot_count_,
               "per-slot monitoring requires dim(0) == slot count on every "
               "observed output");
    const std::size_t per_slot = output.numel() / slot_count_;
    const float* data = output.raw();
    for (std::size_t s = 0; s < slot_count_; ++s) {
      bool any_nan = false;
      bool any_inf = false;
      for (std::size_t i = 0; i < per_slot; ++i) {
        const float v = data[s * per_slot + i];
        any_nan |= std::isnan(v);
        any_inf |= std::isinf(v);
      }
      if (any_nan) {
        slot_nan_[s] = 1;
        nan_layers_.push_back(path);
        if (nan_total_ != nullptr) nan_total_->add();
        if (metrics_ != nullptr) metrics_->counter("monitor.nan." + path).add();
      }
      if (any_inf) {
        slot_inf_[s] = 1;
        inf_layers_.push_back(path);
        if (inf_total_ != nullptr) inf_total_->add();
        if (metrics_ != nullptr) metrics_->counter("monitor.inf." + path).add();
      }
    }
  } else {
    bool any_nan = false;
    bool any_inf = false;
    if (!finite) {
      for (const float v : output.data()) {
        any_nan |= std::isnan(v);
        any_inf |= std::isinf(v);
      }
    }
    if (any_nan) {
      nan_layers_.push_back(path);
      if (nan_total_ != nullptr) nan_total_->add();
      if (metrics_ != nullptr) metrics_->counter("monitor.nan." + path).add();
    }
    if (any_inf) {
      inf_layers_.push_back(path);
      if (inf_total_ != nullptr) inf_total_->add();
      if (metrics_ != nullptr) metrics_->counter("monitor.inf." + path).add();
    }
  }
  for (const CustomMonitor& monitor : custom_) monitor(path, output);
}

}  // namespace alfi::core
