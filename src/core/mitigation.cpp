#include "core/mitigation.h"

#include <cmath>

#include "nn/layers.h"

namespace alfi::core {

namespace {

/// The one range predicate of the clamp hook and skippable:
/// true when the clamp leaves `v` as it is.
bool in_range(float v, const RangeBounds& range) {
  return !(std::isnan(v) || v < range.lo || v > range.hi);
}

}  // namespace

bool is_activation_layer(const nn::Module& module) {
  const std::string type = module.type();
  return type == "ReLU" || type == "LeakyReLU" || type == "Sigmoid" ||
         type == "Tanh" || type == "GELU" || type == "AttentionSoftmax";
}

ActivationRangeProfiler::ActivationRangeProfiler(nn::Module& model) {
  model.for_each_module([this](const std::string& path, nn::Module& m) {
    if (!is_activation_layer(m)) return;
    bounds_[path] = RangeBounds{std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()};
    const nn::HookHandle handle = m.register_forward_hook(
        [this, path](nn::Module&, const Tensor&, Tensor& output) {
          RangeBounds& b = bounds_[path];
          for (const float v : output.data()) {
            if (std::isnan(v) || std::isinf(v)) continue;
            b.lo = std::min(b.lo, v);
            b.hi = std::max(b.hi, v);
          }
        });
    attachments_.push_back({&m, handle});
  });
}

ActivationRangeProfiler::~ActivationRangeProfiler() {
  for (const Attachment& a : attachments_) a.module->remove_forward_hook(a.handle);
}

RangeMap profile_activation_ranges(nn::Module& model,
                                   const std::vector<Tensor>& calibration_batches) {
  ALFI_CHECK(!calibration_batches.empty(), "need calibration data for profiling");
  ActivationRangeProfiler profiler(model);
  for (const Tensor& batch : calibration_batches) model.forward(batch);
  RangeMap bounds = profiler.bounds();
  for (auto& [path, b] : bounds) {
    ALFI_CHECK(std::isfinite(b.lo) && std::isfinite(b.hi),
               "profiling never reached activation layer " + path);
  }
  return bounds;
}

const char* to_string(MitigationKind kind) {
  switch (kind) {
    case MitigationKind::kRanger: return "ranger";
    case MitigationKind::kClipper: return "clipper";
  }
  return "?";
}

Protection::Protection(nn::Module& model, const RangeMap& bounds, MitigationKind kind)
    : kind_(kind) {
  model.for_each_module([this, &bounds](const std::string& path, nn::Module& m) {
    if (!is_activation_layer(m)) return;
    const auto it = bounds.find(path);
    ALFI_CHECK(it != bounds.end(), "no profiled bounds for activation layer " + path);
    const RangeBounds range = it->second;
    const MitigationKind mode = kind_;
    const nn::HookHandle handle = m.register_forward_hook(
        [this, range, mode](nn::Module&, const Tensor&, Tensor& output) {
          if (!enabled_) return;
          for (float& v : output.data()) {
            if (in_range(v, range)) continue;
            ++corrections_;
            if (mode == MitigationKind::kClipper) {
              v = 0.0f;
            } else {  // Ranger: truncate into the profiled range
              // NaN replacement must also respect the profiled range: a
              // bare 0.0f escapes it when lo > 0 (softmax/sigmoid
              // profiles), feeding downstream layers a value the
              // fault-free network never produces.  Clamping 0 into
              // [lo, hi] is identity whenever 0 is in range (all ReLU
              // profiles), so CNN campaigns are unchanged.
              v = std::isnan(v) ? std::min(std::max(0.0f, range.lo), range.hi)
                                : std::min(std::max(v, range.lo), range.hi);
            }
          }
        });
    attachments_.push_back({&m, handle});
    module_bounds_.emplace(&m, range);
  });
  ALFI_CHECK(!attachments_.empty(), "model has no activation layers to protect");
}

bool Protection::skippable(const nn::Module& module, const Tensor& fault_free_output) {
  const auto it = module_bounds_.find(&module);
  if (it == module_bounds_.end()) return true;  // layer is not range-supervised
  const RangeBounds range = it->second;
  for (const float v : fault_free_output.data()) {
    if (!in_range(v, range)) return false;
  }
  return true;
}

Protection::~Protection() {
  for (const Attachment& a : attachments_) a.module->remove_forward_hook(a.handle);
}

}  // namespace alfi::core
