#include "nn/workspace.h"

#include <algorithm>
#include <cstring>

#include "nn/layers.h"
#include "nn/module.h"

namespace alfi::nn {

namespace {

// True when an armed pass on `target` can replay a baseline that ran on
// `base`: the same per-row shape, and 1 row or as many rows as `target`
// (a same-image pack, a gather pack, a one-unit pass).
bool rows_compatible(const Shape& base, const Shape& target) {
  if (base.rank() == 0 || base.rank() != target.rank()) return false;
  if (base[0] != 1 && base[0] != target[0]) return false;
  for (std::size_t axis = 1; axis < base.rank(); ++axis) {
    if (base[axis] != target[axis]) return false;
  }
  return true;
}

/// One row's geometry as (planes, height, width): [C, H, W] for an
/// [N, C, H, W] tensor, a single [1, numel] line otherwise.
struct RowGeometry {
  std::size_t planes, height, width;
};

RowGeometry row_geometry(const Tensor& t) {
  if (t.rank() == 4) return {t.dim(1), t.dim(2), t.dim(3)};
  return {1, 1, t.numel() / t.dim(0)};
}

/// The box of the elements of row `a` whose bits differ from row `b`.
ops::Rect diff_box(const float* a, const float* b, const RowGeometry& g) {
  const std::size_t line = g.width * sizeof(float);
  if (std::memcmp(a, b, g.planes * g.height * line) == 0) return {};
  ops::Rect box{g.height, 0, g.width, 0};
  for (std::size_t p = 0; p < g.planes; ++p) {
    for (std::size_t y = 0; y < g.height; ++y) {
      const std::size_t at = (p * g.height + y) * g.width;
      if (std::memcmp(a + at, b + at, line) == 0) continue;
      std::size_t x0 = 0;
      while (std::memcmp(a + at + x0, b + at + x0, sizeof(float)) == 0) ++x0;
      std::size_t x1 = g.width;
      while (std::memcmp(a + at + x1 - 1, b + at + x1 - 1, sizeof(float)) == 0) --x1;
      box.y0 = std::min(box.y0, y);
      box.y1 = std::max(box.y1, y + 1);
      box.x0 = std::min(box.x0, x0);
      box.x1 = std::max(box.x1, x1);
    }
  }
  return box;
}

}  // namespace

Tensor& InferenceWorkspace::run(Module& root, const Tensor& input) {
  ALFI_CHECK(!root.training(),
             "InferenceWorkspace requires eval mode; training needs the "
             "allocating forward() path (layers cache state for backward)");
  if (root_ != &root || !(input_shape_ == input.shape())) {
    invalidate();
    root_ = &root;
    input_shape_ = input.shape();
    input_ = Tensor(input.shape());
  }
  input_.copy_from(input);
  input_current_ = true;

  // arm() is one-shot: consume it now so a plain run() after an armed
  // one never inherits it.
  const bool armed = armed_;
  armed_ = false;
  row_module_ = nullptr;

  recording_exec_ = !planned();
  if (recording_exec_) {
    leaf_exec_.clear();
    exec_valid_ = true;
  }

  // Replay needs a baseline whose slots describe the pass: a run() of
  // this root (not a root-child start), planned, with an unambiguous leaf
  // order, on 1 row or this pass's rows of the same per-row shape.  Its
  // input need not equal this one: the comparison below finds the rows
  // that differ, and they recompute.
  const InferenceWorkspace* base = prefix_baseline_;
  cone_ = armed && base != nullptr && base->root_ == &root && base->planned() &&
          base->exec_valid_ && base->input_current_ &&
          rows_compatible(base->input_shape_, input.shape());
  if (cone_) {
    ++cone_pass_;
    cone_input_ = &input;
    cone_input_rows_.resize(input.shape()[0]);
    diff_rows(input, &base->input_, cone_input_rows_);
  }
  prefix_reused_last_run_ = 0;
  prefix_rows_reused_last_run_ = 0;

  Tensor& out = root.forward_ws(input, *this);
  recording_exec_ = false;
  cone_ = false;
  cone_input_ = nullptr;
  return out;
}

Tensor& InferenceWorkspace::run_from_child(Module& root, std::size_t child,
                                           const Tensor& live) {
  auto* seq = dynamic_cast<Sequential*>(&root);
  ALFI_CHECK(seq != nullptr, "run_from_child needs a Sequential root");
  ALFI_CHECK(!root.training(), "InferenceWorkspace requires eval mode");
  ALFI_CHECK(planned() && root_ == &root,
             "run_from_child needs a workspace run() planned for this root");
  ALFI_CHECK(child < root_child_inputs_.size(), "run_from_child: no such root child");
  ALFI_CHECK(live.shape() == root_child_inputs_[child],
             "run_from_child: the live tensor's shape differs from the planned pass");
  // Nothing replays: an arm() for the next run() is consumed.
  armed_ = false;
  input_current_ = false;
  row_module_ = nullptr;
  cone_ = false;
  prefix_reused_last_run_ = 0;
  prefix_rows_reused_last_run_ = 0;
  return seq->forward_ws_from_child(child, live, *this);
}

std::span<float> InferenceWorkspace::scratch(const Module& m, std::size_t floats) {
  const auto it = scratch_.find(&m);
  if (it != scratch_.end()) return it->second;
  return scratch_.emplace(&m, arena_.allocate(floats)).first->second;
}

void InferenceWorkspace::invalidate() {
  slots_.clear();
  aux_slots_.clear();
  scratch_.clear();
  cones_.clear();
  row_views_.clear();
  arena_.reset();
  root_ = nullptr;
  input_shape_ = Shape();
  leaf_exec_.clear();
  leaf_order_.clear();
  exec_valid_ = true;
  root_child_inputs_.clear();
  root_child_outputs_.clear();
  input_ = Tensor();
  input_current_ = false;
  cone_ = false;
}

void InferenceWorkspace::set_prefix_baseline(const InferenceWorkspace* baseline) {
  ALFI_CHECK(baseline != this,
             "a workspace cannot be its own baseline: an armed run overwrites "
             "the slots it would replay");
  prefix_baseline_ = baseline;
}

void InferenceWorkspace::arm(std::span<const Module* const> weight_changed) {
  armed_ = true;
  armed_weights_.assign(weight_changed.begin(), weight_changed.end());
}

void InferenceWorkspace::add_prefix_observer(PrefixObserver* observer) {
  ALFI_CHECK(observer != nullptr, "cannot register a null prefix observer");
  if (std::find(prefix_observers_.begin(), prefix_observers_.end(), observer) ==
      prefix_observers_.end()) {
    prefix_observers_.push_back(observer);
  }
}

std::optional<std::size_t> InferenceWorkspace::leaf_exec_index(const Module& m) const {
  const auto it = leaf_exec_.find(&m);
  if (it == leaf_exec_.end()) return std::nullopt;
  return it->second;
}

void InferenceWorkspace::record_leaf(const Module& m) {
  if (!leaf_exec_.emplace(&m, leaf_exec_.size()).second) {
    exec_valid_ = false;  // leaf ran twice: execution index is ambiguous
    return;
  }
  leaf_order_.push_back(&m);
}

void InferenceWorkspace::record_root_child(std::size_t index, const Tensor& input,
                                           const Tensor& output) {
  if (recording_exec_) {
    root_child_inputs_.push_back(input.shape());
    root_child_outputs_.push_back(&output);
  } else if (index < root_child_outputs_.size()) {
    root_child_outputs_[index] = &output;
  }
}

std::size_t InferenceWorkspace::first_unskippable_leaf(
    const InferenceWorkspace& baseline) const {
  if (!baseline.planned() || !baseline.exec_valid_) return 0;
  for (std::size_t index = 0; index < baseline.leaf_order_.size(); ++index) {
    const Module& leaf = *baseline.leaf_order_[index];
    const auto it = baseline.slots_.find(&leaf);
    if (it == baseline.slots_.end()) return index;  // no planned output to vouch for
    for (PrefixObserver* observer : prefix_observers_) {
      if (!observer->skippable(leaf, it->second)) return index;
    }
  }
  return baseline.leaf_order_.size();
}

InferenceWorkspace::RowViews& InferenceWorkspace::row_views(const Module& m,
                                                            const Tensor& input,
                                                            Tensor& slot,
                                                            std::size_t row) {
  const auto row_of = [row](const Tensor& full) {
    return std::span<float>(const_cast<float*>(full.raw()) + row * (full.numel() / full.dim(0)),
                            full.numel() / full.dim(0));
  };
  auto it = row_views_.find(&m);
  if (it == row_views_.end()) {
    const auto one_row = [&](const Tensor& full) {
      std::vector<std::size_t> dims = full.shape().dims();
      dims[0] = 1;
      return Tensor(Shape(std::move(dims)), row_of(full));
    };
    it = row_views_.emplace(&m, RowViews{one_row(input), one_row(slot)}).first;
  } else {
    it->second.input.rebind(row_of(input));
    it->second.output.rebind(row_of(slot));
  }
  return it->second;
}

const Tensor* InferenceWorkspace::cone_baseline(const Module& m,
                                               const Tensor& input) const {
  if (!cone_) return nullptr;
  const auto it = prefix_baseline_->slots_.find(&m);
  if (it == prefix_baseline_->slots_.end()) return nullptr;
  const Tensor& baseline = it->second;
  const std::size_t rows = cone_row_count();
  if (baseline.rank() == 0 || (baseline.dim(0) != 1 && baseline.dim(0) != rows) ||
      input.rank() == 0 || input.dim(0) != rows) {
    return nullptr;
  }
  if (std::find(armed_weights_.begin(), armed_weights_.end(), &m) != armed_weights_.end()) {
    return nullptr;  // changed weights change every row
  }
  return &baseline;
}

InferenceWorkspace::Role InferenceWorkspace::role_of(const Tensor& t) const {
  for (const auto& [module, slot] : slots_) {
    if (&slot == &t) return {module, kSlotRole};
  }
  for (const auto& [key, aux] : aux_slots_) {
    if (&aux == &t) return {key.first, key.second};
  }
  return {};
}

const Tensor* InferenceWorkspace::baseline_in(const Role& role) const {
  if (role.module == nullptr) return nullptr;
  const InferenceWorkspace& base = *prefix_baseline_;
  if (role.aux == kSlotRole) {
    const auto it = base.slots_.find(role.module);
    return it == base.slots_.end() ? nullptr : &it->second;
  }
  const auto it = base.aux_slots_.find({role.module, role.aux});
  return it == base.aux_slots_.end() ? nullptr : &it->second;
}

void InferenceWorkspace::diff_rows(const Tensor& t, const Tensor* baseline,
                                   std::vector<ops::Rect>& rows) const {
  const std::size_t count = cone_row_count();
  rows.resize(count);
  const RowGeometry g = row_geometry(t);
  bool comparable = baseline != nullptr && baseline->rank() == t.rank() &&
                    (baseline->dim(0) == 1 || baseline->dim(0) == count) &&
                    t.dim(0) == count;
  for (std::size_t axis = 1; comparable && axis < t.rank(); ++axis) {
    comparable = baseline->dim(axis) == t.dim(axis);
  }
  const std::size_t per_row = g.planes * g.height * g.width;
  for (std::size_t r = 0; r < count; ++r) {
    rows[r] = comparable ? diff_box(t.raw() + r * per_row,
                                    baseline->raw() + (baseline->dim(0) == 1 ? 0 : r * per_row),
                                    g)
                         : ops::Rect{0, g.height, 0, g.width};
  }
}

std::span<const ops::Rect> InferenceWorkspace::cone_boxes(const Tensor& t) {
  if (&t == cone_input_) return cone_input_rows_;
  auto it = cones_.find(&t);
  if (it == cones_.end()) {
    const Role role = role_of(t);
    if (role.module == nullptr) {
      // Not a tensor of this pass (e.g. a container's temporary): dirty
      // in every row, and no entry, so such tensors never pile up.
      diff_rows(t, nullptr, cone_dirty_);
      return cone_dirty_;
    }
    it = cones_.emplace(&t, Cone{role, {}, 0}).first;
  }
  Cone& cone = it->second;
  if (cone.pass != cone_pass_) {
    diff_rows(t, baseline_in(cone.role), cone.rows);
    cone.pass = cone_pass_;
  }
  return cone.rows;
}

void InferenceWorkspace::cone_finish(const Module& m, const Tensor& slot,
                                     const Tensor& baseline, std::size_t computed_rows) {
  auto it = cones_.find(&slot);
  if (it == cones_.end()) it = cones_.emplace(&slot, Cone{{&m, kSlotRole}, {}, 0}).first;
  diff_rows(slot, &baseline, it->second.rows);
  it->second.pass = cone_pass_;
  const std::size_t rows = cone_row_count();
  prefix_rows_reused_last_run_ += rows - computed_rows;
  if (computed_rows == 0) ++prefix_reused_last_run_;
}

void InferenceWorkspace::cone_forget(const Tensor& t) {
  const auto it = cones_.find(&t);
  if (it != cones_.end()) it->second.pass = 0;
}

}  // namespace alfi::nn
