#include "nn/workspace.h"

#include <algorithm>

#include "nn/layers.h"
#include "nn/module.h"

namespace alfi::nn {

namespace {

// True when `base` is a batch-1 shape and `target` packs N > 1 rows of
// the same per-row geometry along dim 0 (same-image unit packs,
// DESIGN.md §12).  Equal shapes are NOT broadcast — plain replay wins.
bool broadcast_compatible(const Shape& base, const Shape& target) {
  if (base.rank() == 0 || base.rank() != target.rank()) return false;
  if (base[0] != 1 || target[0] <= 1) return false;
  for (std::size_t axis = 1; axis < base.rank(); ++axis) {
    if (base[axis] != target[axis]) return false;
  }
  return true;
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
  }

  // The boundaries are one-shot: consume them now so a plain run()
  // after a forward_from() never inherits a stale prefix.
  run_rows_.swap(armed_rows_);
  armed_rows_.clear();
  row_module_ = nullptr;

  recording_exec_ = !planned();
  if (recording_exec_) {
    leaf_exec_.clear();
    exec_valid_ = true;
  }

  // The prefix only activates when replaying is provably equivalent to
  // recompute: the baseline ran this exact root on this exact input
  // shape, completed a planning pass (slots exist), and its execution
  // order is unambiguous.  Anything else degrades to full recompute.
  // Broadcast replay (opt-in, set_prefix_broadcast) additionally
  // accepts a batch-1 baseline under an N-row pass: the caller promised
  // every input row equals the baseline's row, so each row replays the
  // cached row up to its own boundary (DESIGN.md §12).  A same-shape
  // replay keeps one boundary, the smallest.
  const InferenceWorkspace* base = prefix_baseline_;
  const bool baseline_ok = !run_rows_.empty() && base != nullptr &&
                           base->root_ == &root && base->planned() &&
                           base->exec_valid_;
  prefix_broadcast_ = baseline_ok && prefix_broadcast_allowed_ &&
                      broadcast_compatible(base->input_shape_, input.shape());
  if (prefix_broadcast_) {
    const std::size_t rows = input.shape()[0];
    if (run_rows_.size() == 1) {
      const std::size_t shared = run_rows_.front();
      run_rows_.assign(rows, shared);
    }
    ALFI_CHECK(run_rows_.size() == rows,
               "prefix row boundaries must cover every row of the pass");
  } else if (!run_rows_.empty()) {
    run_rows_.resize(1);  // ascending: the front is the smallest
  }
  prefix_active_ = baseline_ok && run_rows_.back() > 0 &&
                   (base->input_shape_ == input.shape() || prefix_broadcast_);
  rows_computing_ = 0;
  prefix_cursor_ = 0;
  prefix_reused_last_run_ = 0;
  prefix_rows_reused_last_run_ = 0;

  Tensor& out = root.forward_ws(input, *this);
  recording_exec_ = false;
  prefix_active_ = false;
  prefix_broadcast_ = false;
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
  // Nothing replays: a boundary armed for the next run() is consumed.
  armed_rows_.clear();
  run_rows_.clear();
  row_module_ = nullptr;
  prefix_active_ = false;
  prefix_broadcast_ = false;
  prefix_reused_last_run_ = 0;
  prefix_rows_reused_last_run_ = 0;
  return seq->forward_ws_from_child(child, live, *this);
}

void InferenceWorkspace::set_prefix_row_boundaries(
    std::span<const std::size_t> boundaries) {
  ALFI_CHECK(std::is_sorted(boundaries.begin(), boundaries.end()),
             "prefix row boundaries must be ascending");
  armed_rows_.assign(boundaries.begin(), boundaries.end());
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
  row_views_.clear();
  arena_.reset();
  root_ = nullptr;
  input_shape_ = Shape();
  leaf_exec_.clear();
  leaf_order_.clear();
  exec_valid_ = true;
  root_child_inputs_.clear();
  root_child_outputs_.clear();
  prefix_active_ = false;
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
                                                            std::size_t rows) {
  const auto first_rows = [rows](const Tensor& full) {
    std::vector<std::size_t> dims = full.shape().dims();
    const std::size_t floats = full.numel() / dims[0] * rows;
    dims[0] = rows;
    return Tensor(Shape(std::move(dims)),
                  std::span<float>(const_cast<float*>(full.raw()), floats));
  };
  const AuxKey key{&m, rows};
  auto it = row_views_.find(key);
  if (it == row_views_.end()) {
    it = row_views_.emplace(key, RowViews{first_rows(input), first_rows(slot)}).first;
  } else if (it->second.input.raw() != input.raw()) {
    it->second.input = first_rows(input);  // the pass input's storage moved
  }
  return it->second;
}

InferenceWorkspace::PrefixAction InferenceWorkspace::prefix_action(const Module& m,
                                                                   Tensor** cached) {
  if (!prefix_active_) return PrefixAction::kCompute;
  const std::size_t index = prefix_cursor_++;
  while (rows_computing_ < run_rows_.size() && run_rows_[rows_computing_] <= index) {
    ++rows_computing_;
  }
  if (rows_computing_ == run_rows_.size()) {
    prefix_active_ = false;  // every row reached its suffix: recompute from here on
    return PrefixAction::kCompute;
  }
  const auto it = prefix_baseline_->slots_.find(&m);
  if (it == prefix_baseline_->slots_.end()) {
    // The baseline never planned a slot for this leaf (custom execution
    // path); without cached data the whole remaining pass recomputes.
    prefix_active_ = false;
    return PrefixAction::kCompute;
  }
  Tensor& slot = const_cast<Tensor&>(it->second);
  *cached = &slot;
  if (prefix_broadcast_) {
    // The replayed rows get the batch-1 row in this workspace's own
    // N-row slot and the REAL hooks run there, so no on_replay
    // side-effect reproduction is needed.  An observer veto still means
    // the hooks will alter the replayed data (e.g. protection
    // clamping), so the suffix of every row must recompute from the
    // hooked rows — deactivate, exactly like the kMaterialize path, but
    // keep this leaf's copy.
    for (PrefixObserver* observer : prefix_observers_) {
      if (!observer->can_replay(m, slot)) {
        prefix_active_ = false;
        return PrefixAction::kBroadcast;
      }
    }
    if (rows_computing_ == 0) ++prefix_reused_last_run_;
    prefix_rows_reused_last_run_ += run_rows_.size() - rows_computing_;
    return PrefixAction::kBroadcast;
  }
  for (PrefixObserver* observer : prefix_observers_) {
    if (!observer->can_replay(m, slot)) {
      // Replay would diverge (e.g. protection would clamp): run the
      // real hooks on the cached data and recompute everything after.
      prefix_active_ = false;
      return PrefixAction::kMaterialize;
    }
  }
  for (PrefixObserver* observer : prefix_observers_) observer->on_replay(m, slot);
  ++prefix_reused_last_run_;
  prefix_rows_reused_last_run_ += input_shape_.rank() > 0 ? input_shape_[0] : 1;
  return PrefixAction::kSkip;
}

}  // namespace alfi::nn
