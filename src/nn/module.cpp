#include "nn/module.h"

#include <algorithm>

#include "nn/workspace.h"

namespace alfi::nn {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2d: return "conv2d";
    case LayerKind::kConv3d: return "conv3d";
    case LayerKind::kLinear: return "linear";
    case LayerKind::kSeqLinear: return "seq_linear";
    case LayerKind::kEmbedding: return "embedding";
    case LayerKind::kAttention: return "attention";
    case LayerKind::kResidual: return "residual";
    case LayerKind::kLayerNorm: return "layernorm";
    case LayerKind::kOther: return "other";
  }
  return "?";
}

TargetInventory Module::target_inventory() {
  TargetInventory inv;
  inv.injectable = kind() != LayerKind::kOther;
  if (!inv.injectable) return inv;
  inv.weight = weight_param();
  inv.weight_role = "weight";
  inv.output_role = "activation";
  return inv;
}

Tensor Module::forward(const Tensor& input) {
  Tensor output = compute(input);
  run_forward_hooks(input, output);
  return output;
}

void Module::run_forward_hooks(const Tensor& input, Tensor& output) {
  for (auto& [handle, hook] : hooks_) {
    (void)handle;
    hook(*this, input, output);
  }
}

Tensor& Module::forward_ws(const Tensor& input, InferenceWorkspace& ws) {
  // Replay applies to leaves only: containers recombine their children's
  // outputs with cheap elementwise math, so they always recompute.
  if (children_.empty()) {
    if (ws.recording_exec()) ws.record_leaf(*this);
    if (const Tensor* baseline = ws.cone_baseline(*this, input)) {
      return forward_cone(input, *baseline, ws);
    }
  }
  Tensor& output = compute_ws(input, ws);
  run_forward_hooks(input, output);
  // A container's hooks may rewrite a tensor a leaf already described.
  if (!hooks_.empty() && ws.cone_active()) ws.cone_forget(output);
  return output;
}

Tensor& Module::forward_cone(const Tensor& input, const Tensor& baseline,
                             InferenceWorkspace& ws) {
  // Fault-cone replay (DESIGN.md §12): an armed pass over the rows whose
  // fault-free output is `baseline` (1 row for all of them, or one
  // each).  Every row starts as its baseline row; a row whose input
  // differs from the baseline's recomputes what its dirty box reaches —
  // bit-identical to a full recompute, since every other element reads
  // only clean input.  Then the REAL hooks run on every row (injection,
  // monitoring, clamping), and the workspace compares each row with the
  // baseline again.
  const std::size_t rows = ws.cone_row_count();
  Tensor& slot = ws.slot(*this, [&] {
    std::vector<std::size_t> dims = baseline.shape().dims();
    dims[0] = rows;
    return Shape(std::move(dims));
  });
  const std::span<const float> base = baseline.data();
  const std::span<float> out = slot.data();
  const std::size_t per_row = out.size() / rows;
  ALFI_CHECK(out.size() == per_row * rows && base.size() == per_row * baseline.dim(0),
             "fault-cone replay slot shape mismatch");
  if (baseline.dim(0) == rows) {
    std::copy(base.begin(), base.end(), out.begin());
  } else {
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy(base.begin(), base.end(), out.begin() + static_cast<std::ptrdiff_t>(r * per_row));
    }
  }
  const std::span<const ops::Rect> boxes = ws.cone_boxes(input);
  std::size_t computed = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (boxes[r].empty()) continue;
    InferenceWorkspace::RowViews& views = ws.row_views(*this, input, slot, r);
    ws.redirect_slot(this, &views.output);
    if (compute_ws_cone(views.input, boxes[r], ws)) ++computed;
    ws.redirect_slot(nullptr, nullptr);
  }
  run_forward_hooks(input, slot);
  ws.cone_finish(*this, slot, baseline, computed);
  return slot;
}

Tensor& Module::compute_ws(const Tensor& input, InferenceWorkspace& ws) {
  // Fallback for layers without an `_into` kernel: run the allocating
  // compute, then park the result in a stable slot so hooks still see
  // arena-backed storage they can mutate across calls.
  Tensor out = compute(input);
  Tensor& slot = ws.slot(*this, [&] { return out.shape(); });
  slot.copy_from(out);
  return slot;
}

bool Module::compute_ws_cone(const Tensor& input_row, const ops::Rect& dirty,
                             InferenceWorkspace& ws) {
  (void)dirty;
  compute_ws(input_row, ws);
  return true;
}

Tensor Module::backward(const Tensor&) {
  throw Error("backward not implemented for layer type " + type());
}

std::shared_ptr<Module> Module::clone_structure() const {
  throw Error("clone not supported for layer type " + type());
}

std::shared_ptr<Module> Module::clone() {
  std::shared_ptr<Module> copy = clone_structure();
  copy->copy_state_from(*this);
  copy->set_training(training_);
  return copy;
}

void Module::copy_state_from(Module& source) {
  struct Entry {
    std::string path;
    Module* module;
  };
  std::vector<Entry> mine, theirs;
  for_each_module([&mine](const std::string& path, Module& m) {
    mine.push_back({path, &m});
  });
  source.for_each_module([&theirs](const std::string& path, Module& m) {
    theirs.push_back({path, &m});
  });
  ALFI_CHECK(mine.size() == theirs.size(),
             "copy_state_from: module trees differ in size");
  for (std::size_t i = 0; i < mine.size(); ++i) {
    ALFI_CHECK(mine[i].path == theirs[i].path &&
                   mine[i].module->type() == theirs[i].module->type(),
               "copy_state_from: module trees differ at '" + theirs[i].path + "'");
    const auto dst_params = mine[i].module->local_parameters();
    const auto src_params = theirs[i].module->local_parameters();
    ALFI_CHECK(dst_params.size() == src_params.size(),
               "copy_state_from: parameter count differs at '" + theirs[i].path + "'");
    for (std::size_t p = 0; p < dst_params.size(); ++p) {
      ALFI_CHECK(dst_params[p]->value.shape() == src_params[p]->value.shape(),
                 "copy_state_from: parameter shape differs at '" + theirs[i].path + "'");
      dst_params[p]->value = src_params[p]->value;
      dst_params[p]->zero_grad();
    }
    const auto& dst_buffers = mine[i].module->local_buffers();
    const auto& src_buffers = theirs[i].module->local_buffers();
    ALFI_CHECK(dst_buffers.size() == src_buffers.size(),
               "copy_state_from: buffer count differs at '" + theirs[i].path + "'");
    for (std::size_t b = 0; b < dst_buffers.size(); ++b) {
      *dst_buffers[b].second = *src_buffers[b].second;
    }
  }
}

std::vector<Parameter*> Module::local_parameters() {
  std::vector<Parameter*> out;
  out.reserve(params_.size());
  for (const auto& p : params_) out.push_back(p.get());
  return out;
}

std::vector<Parameter*> Module::parameters() {
  std::vector<Parameter*> out;
  for_each_module([&out](const std::string&, Module& m) {
    for (Parameter* p : m.local_parameters()) out.push_back(p);
  });
  return out;
}

std::size_t Module::parameter_count() {
  std::size_t total = 0;
  for (Parameter* p : parameters()) total += p->value.numel();
  return total;
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

void Module::for_each_module(
    const std::function<void(const std::string& path, Module&)>& fn) {
  // Iterative pre-order walk keeping dot-joined paths.
  struct Frame {
    std::string path;
    Module* module;
  };
  std::vector<Frame> stack{{"", this}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    fn(frame.path, *frame.module);
    const auto& kids = frame.module->children_;
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      const std::string child_path =
          frame.path.empty() ? it->first : frame.path + "." + it->first;
      stack.push_back({child_path, it->second.get()});
    }
  }
}

HookHandle Module::register_forward_hook(ForwardHook hook) {
  ALFI_CHECK(static_cast<bool>(hook), "cannot register an empty hook");
  const HookHandle handle{next_hook_id_++};
  hooks_.emplace_back(handle, std::move(hook));
  return handle;
}

void Module::remove_forward_hook(HookHandle handle) {
  std::erase_if(hooks_, [handle](const auto& entry) {
    return entry.first.id == handle.id;
  });
}

void Module::clear_forward_hooks() { hooks_.clear(); }

void Module::clear_forward_hooks_recursive() {
  for_each_module([](const std::string&, Module& m) { m.clear_forward_hooks(); });
}

void Module::set_training(bool training) {
  for_each_module([training](const std::string&, Module& m) {
    m.training_ = training;
  });
}

Parameter* Module::register_parameter(std::string name, Tensor value) {
  params_.push_back(std::make_unique<Parameter>(std::move(name), std::move(value)));
  return params_.back().get();
}

void Module::register_buffer(std::string name, Tensor* buffer) {
  ALFI_CHECK(buffer != nullptr, "cannot register a null buffer");
  for (const auto& [existing, tensor] : buffers_) {
    (void)tensor;
    ALFI_CHECK(existing != name, "duplicate buffer name: " + name);
  }
  buffers_.emplace_back(std::move(name), buffer);
}

Module* Module::register_child(std::string name, std::shared_ptr<Module> child) {
  ALFI_CHECK(child != nullptr, "cannot register a null child module");
  for (const auto& [existing, module] : children_) {
    (void)module;
    ALFI_CHECK(existing != name, "duplicate child module name: " + name);
  }
  children_.emplace_back(std::move(name), std::move(child));
  return children_.back().second.get();
}

}  // namespace alfi::nn
