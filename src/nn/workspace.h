// Planned, zero-steady-state-allocation inference.
//
// An InferenceWorkspace owns a TensorArena plus one arena-backed output
// slot per module.  The first run() for a given root/input shape is the
// *planning* pass: every layer requests its slot (and any scratch, e.g.
// the conv2d im2col buffer) from the arena.  Subsequent runs find the
// existing buffers in a hash map and never touch the heap — the
// property the counting-allocator regression test pins down.
//
// Lifetime rules (DESIGN.md §10):
//   * slots are valid until the next invalidate(), which happens
//     automatically when run() sees a different root or input shape;
//   * forward hooks receive the arena-backed slot and must mutate its
//     *elements* (inject, clamp, scan) — reassigning the tensor itself
//     would break the borrow and is not supported;
//   * a workspace serves one model pass at a time: campaign code that
//     compares fault-free / faulty / mitigated outputs keeps one
//     workspace per pass so the three outputs coexist.
//
// Differential inference (DESIGN.md §11): a workspace can additionally
// replay a *prefix* of leaf layers from a baseline workspace holding the
// fault-free pass.  Module::forward_from(k, input, ws) arms a one-shot
// boundary — every leaf whose execution index is < k returns the
// baseline's cached slot by reference instead of recomputing, provided
// all registered PrefixObservers agree the replay is side-effect
// equivalent to re-running the leaf's hooks on identical data.
//
// Broadcast replay (DESIGN.md §12): when the baseline ran a batch-1
// pass and the current pass packs N identical copies of that input
// along dim 0 (a same-image unit pack), every row replays the
// fault-free prefix up to its OWN boundary (set_prefix_row_boundaries,
// ascending).  At leaf L the rows [0, r_L) whose boundary is <= L
// compute, through cached row views of the leaf's input and of its own
// N-row slot; the rows [r_L, N) receive the baseline's single cached
// row; then the leaf's REAL hooks run on the whole N-row slot.  r_L = 0
// is a pure replicate-and-hook leaf.  The mode is opt-in
// (set_prefix_broadcast): the shapes alone cannot prove the data
// contract — every row of the pass input must equal the baseline's row
// — so the caller must promise it; a mismatched baseline otherwise
// degrades to full recompute as usual.
//
// Root-child start (DESIGN.md §11.1): when the root is a Sequential, a
// pass records the tensor each root child returned, and
// run_from_child(root, c, live) runs only children [c, end) from such
// a tensor — how the classification runner reuses one image's cached
// fault-free pass across its epochs.
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace alfi::nn {

class Module;

/// Validates/replays hook side effects for leaves skipped by the
/// differential-inference prefix.  One observer per hook-owning
/// component (monitor, protection); registration order must match the
/// hook registration order on the leaves so replayed side effects land
/// in the same sequence a full recompute would produce.
class PrefixObserver {
 public:
  virtual ~PrefixObserver() = default;

  /// Called before a leaf is skipped.  Return false when replaying the
  /// cached output would NOT reproduce this component's hook behaviour
  /// (e.g. an enabled Ranger whose clamp would alter the values) — the
  /// workspace then materializes the leaf and runs the real hooks.
  /// Must be side-effect free.
  virtual bool can_replay(const Module& module, const Tensor& cached) {
    (void)module;
    (void)cached;
    return true;
  }

  /// Called once per skipped leaf, in execution order, after every
  /// observer approved the skip.  Reproduce the component's hook side
  /// effects here (e.g. ModelMonitor NaN/Inf accounting) from the
  /// cached fault-free output.
  virtual void on_replay(const Module& module, const Tensor& cached) {
    (void)module;
    (void)cached;
  }

  /// Asked ahead of an armed pass about a leaf's fault-free output:
  /// true when this component's hooks on `module` would leave
  /// `fault_free_output` unchanged and record nothing in ANY pass —
  /// armed or not — so a pass that starts after `module`
  /// (InferenceWorkspace::run_from_child) may drop them without a
  /// replay.  The default, false, keeps every leaf in the pass.  Must be
  /// side-effect free.
  virtual bool skippable(const Module& module, const Tensor& fault_free_output) {
    (void)module;
    (void)fault_free_output;
    return false;
  }
};

class InferenceWorkspace {
 public:
  /// What forward_ws should do with a leaf under an armed prefix.
  /// kBroadcast computes the first prefix_rows_computing() rows into
  /// this workspace's own N-row slot (through row_views()), fills the
  /// other rows with the batch-1 baseline row and runs the leaf's real
  /// hooks on the whole slot (same-image unit packs, DESIGN.md §12).
  enum class PrefixAction { kCompute, kSkip, kMaterialize, kBroadcast };

  /// Views of the first rows of one leaf's input and of its own slot, used
  /// while a broadcast pass computes only a row prefix of the leaf.
  struct RowViews {
    Tensor input;
    Tensor output;
  };

  /// set_prefix_boundary() value meaning "replay every leaf".
  static constexpr std::size_t kSkipAllLeaves = static_cast<std::size_t>(-1);

  InferenceWorkspace() = default;

  // Slots reference arena blocks owned by this object; keep it pinned.
  InferenceWorkspace(const InferenceWorkspace&) = delete;
  InferenceWorkspace& operator=(const InferenceWorkspace&) = delete;

  /// One eval-mode forward pass of `root`; plans buffers on the first
  /// call (or when root/input shape changes) and reuses them after.
  /// The returned reference is the root's output slot, valid until the
  /// next run() or invalidate().
  Tensor& run(Module& root, const Tensor& input);

  /// The output slot of `m`, creating it with `make_shape()` on the
  /// planning pass.  The shape callable keeps the steady-state path
  /// free of Shape construction (which heap-allocates).
  template <typename ShapeFn>
  Tensor& slot(const Module& m, ShapeFn&& make_shape) {
    if (&m == row_module_) return *row_slot_;  // row-prefix compute (kBroadcast)
    const auto it = slots_.find(&m);
    if (it != slots_.end()) return it->second;
    return slots_.emplace(&m, arena_.make(make_shape())).first->second;
  }

  /// Per-module scratch buffer of `floats` floats (planning-pass sized,
  /// like slot()).
  std::span<float> scratch(const Module& m, std::size_t floats);

  /// Additional arena-backed tensors for containers that stage more
  /// than one intermediate between their children (e.g. multi-head
  /// attention's score and context tensors), keyed by (module, index).
  /// Same lifetime rules as slot().
  template <typename ShapeFn>
  Tensor& aux_slot(const Module& m, std::size_t index, ShapeFn&& make_shape) {
    const AuxKey key{&m, index};
    const auto it = aux_slots_.find(key);
    if (it != aux_slots_.end()) return it->second;
    return aux_slots_.emplace(key, arena_.make(make_shape())).first->second;
  }

  /// Root-child start (DESIGN.md §11.1): runs children [child, end) of
  /// the Sequential `root` on `live` — the tensor root child `child`
  /// takes as input, e.g. one recorded by an earlier full pass
  /// (root_child_output) — then the root's own hooks, which see `live`
  /// as their input.  Leaves before `child` neither run nor replay, so
  /// the caller must know their hooks to be no-ops
  /// (PrefixObserver::skippable).  Needs a workspace that run() planned
  /// for this root and input shape, and `live` shaped like that pass's
  /// input of the child.  Consumes any armed prefix boundary (nothing is
  /// replayed) and allocates nothing.  Throws Error on an unplanned
  /// workspace, another root, a non-Sequential root, a child index past
  /// the end or a mismatched `live`.
  Tensor& run_from_child(Module& root, std::size_t child, const Tensor& live);

  /// Drops every slot and rewinds the arena; the next run() replans.
  void invalidate();

  bool planned() const { return !slots_.empty(); }

  /// True when run() planned this workspace for `root` on inputs of
  /// `input_shape` (so run_from_child may start a pass of it).
  bool planned_for(const Module& root, const Shape& input_shape) const {
    return planned() && root_ == &root && input_shape_ == input_shape;
  }

  /// The tensor root child `child` returned in this workspace's latest
  /// pass of a Sequential root — its own slot, or a prefix baseline's
  /// slot it replayed — valid until either workspace runs again; nullptr
  /// past the root's children or before planning.
  const Tensor* root_child_output(std::size_t child) const {
    return child < root_child_outputs_.size() ? root_child_outputs_[child] : nullptr;
  }

  /// Peak arena footprint in bytes — the fixed preallocation one model
  /// pass needs (exported to the campaign metrics registry).
  std::size_t high_water_bytes() const { return arena_.high_water_bytes(); }

  // -- differential inference (prefix reuse) -------------------------------

  /// Declares the workspace whose slots hold the fault-free outputs the
  /// prefix replays from.  May be `this` (a single workspace replaying
  /// its own previous full pass — valid because a differential run only
  /// overwrites suffix slots, leaving prefix slots at their fault-free
  /// values).  The baseline must outlive this workspace's runs; pass
  /// nullptr to detach.
  void set_prefix_baseline(const InferenceWorkspace* baseline) {
    prefix_baseline_ = baseline;
  }

  /// Registers an observer consulted for every skipped leaf, in
  /// registration order.  Observers must outlive the workspace's runs.
  void add_prefix_observer(PrefixObserver* observer);
  void clear_prefix_observers() { prefix_observers_.clear(); }

  /// Opts into broadcast replay: when the armed prefix finds a batch-1
  /// baseline under an N-row pass (other dims equal), each row replays
  /// the baseline row up to its own boundary and the leaves run their
  /// real hooks instead of degrading to full recompute.  CALLER PROMISE:
  /// every row of the pass input equals the baseline's single input row
  /// — the workspace can only check shapes, and replaying unequal data
  /// would silently corrupt the pass.  Off (the default) never
  /// broadcasts.
  void set_prefix_broadcast(bool allow) { prefix_broadcast_allowed_ = allow; }

  /// Arms the prefix for the NEXT run() only (consumed and reset): leaves
  /// with execution index < `first_recomputed_leaf` replay the baseline's
  /// cached outputs; everything from that leaf on recomputes.  0 disarms
  /// (full recompute); kSkipAllLeaves replays the whole pass.  The run
  /// silently degrades to full recompute whenever replay cannot be proven
  /// equivalent (unplanned or mismatched baseline, a leaf missing from
  /// the baseline, an observer veto).  The same boundary for every row
  /// of a broadcast pass.
  void set_prefix_boundary(std::size_t first_recomputed_leaf) {
    set_prefix_row_boundaries({&first_recomputed_leaf, 1});
  }

  /// Per-row form of set_prefix_boundary(), one-shot likewise: row r of
  /// the next pass replays leaves with execution index < boundaries[r].
  /// Ascending (a same-image pack sorts its units by boundary), and one
  /// entry per row of the pass — or a single entry shared by every row.
  /// A broadcast pass honours every row's boundary; a same-shape replay
  /// uses the smallest (boundaries.front()) for the whole pass.
  void set_prefix_row_boundaries(std::span<const std::size_t> boundaries);

  /// Execution index of `m` among this workspace's leaves, recorded on
  /// the planning pass; nullopt for modules this workspace never ran
  /// (e.g. a detector head running under a separate workspace).
  std::optional<std::size_t> leaf_exec_index(const Module& m) const;

  /// Leaves executed by one planned pass (0 before planning).
  std::size_t leaf_count() const { return leaf_exec_.size(); }

  /// Asks this workspace's observers, in execution order, whether each
  /// of `baseline`'s planned leaf outputs is skippable
  /// (PrefixObserver::skippable), and returns the execution index of the
  /// first leaf some observer keeps: baseline.leaf_count() when every
  /// leaf is skippable, 0 when the baseline is unplanned or its leaf
  /// order ambiguous.
  std::size_t first_unskippable_leaf(const InferenceWorkspace& baseline) const;

  /// Leaves replayed from the baseline during the most recent run():
  /// leaves no row of the pass computed.
  std::size_t prefix_reused_last_run() const { return prefix_reused_last_run_; }

  /// (row, leaf) pairs replayed from the baseline during the most recent
  /// run(); equals prefix_reused_last_run() times the batch size for a
  /// same-shape replay, and prefix_reused_last_run() at batch 1.
  std::size_t prefix_rows_reused_last_run() const {
    return prefix_rows_reused_last_run_;
  }

  // -- forward_ws plumbing (called by Module, not by harness code) ---------

  bool recording_exec() const { return recording_exec_; }
  void record_leaf(const Module& m);

  /// The root Sequential's child loop reports each child's input and
  /// output here (the planning pass keeps the input shapes, every pass
  /// the outputs).
  bool is_root(const Module& m) const { return &m == root_; }
  void record_root_child(std::size_t index, const Tensor& input, const Tensor& output);

  /// Decides the fate of the next leaf in execution order.  On kSkip,
  /// kMaterialize and kBroadcast, `*cached` points at the baseline's
  /// slot for `m`.
  PrefixAction prefix_action(const Module& m, Tensor** cached);

  /// Rows of the current broadcast pass: its dim 0.
  std::size_t prefix_row_count() const { return run_rows_.size(); }

  /// Rows [0, n) of the current kBroadcast leaf compute; the rest replay.
  std::size_t prefix_rows_computing() const { return rows_computing_; }

  /// Views of the first `rows` rows of `input` and of `slot` (m's own
  /// slot), cached per (m, rows) so a steady-state pass stays heap-free;
  /// the input view follows `input`'s storage if it moved.
  RowViews& row_views(const Module& m, const Tensor& input, Tensor& slot,
                      std::size_t rows);

  /// While set, slot(m) returns `rows` instead of m's own slot, so the
  /// leaf's compute_ws writes a row prefix; pass nullptr to end it.
  void redirect_slot(const Module* m, Tensor* rows) {
    row_module_ = m;
    row_slot_ = rows;
  }

 private:
  using AuxKey = std::pair<const Module*, std::size_t>;
  struct AuxKeyHash {
    std::size_t operator()(const AuxKey& key) const {
      return std::hash<const void*>{}(key.first) ^
             (key.second * 0x9e3779b97f4a7c15ull);
    }
  };

  TensorArena arena_;
  std::unordered_map<const Module*, Tensor> slots_;
  std::unordered_map<AuxKey, Tensor, AuxKeyHash> aux_slots_;
  std::unordered_map<const Module*, std::span<float>> scratch_;
  std::unordered_map<AuxKey, RowViews, AuxKeyHash> row_views_;  // (leaf, rows)
  const Module* row_module_ = nullptr;  // redirect_slot() target
  Tensor* row_slot_ = nullptr;
  const Module* root_ = nullptr;
  Shape input_shape_;

  // Differential-inference state.  leaf_exec_ maps each leaf to its
  // execution index, captured once on the planning pass; exec_valid_
  // drops to false if a leaf runs twice in one pass (shared module —
  // the cursor-based prefix would misattribute it, so never activate).
  std::unordered_map<const Module*, std::size_t> leaf_exec_;
  std::vector<const Module*> leaf_order_;  // the same leaves, by index
  bool exec_valid_ = true;
  // Root-child boundaries of a Sequential root: each child's input shape
  // (planning pass) and the tensor it returned (latest pass).
  std::vector<Shape> root_child_inputs_;
  std::vector<const Tensor*> root_child_outputs_;
  bool recording_exec_ = false;
  const InferenceWorkspace* prefix_baseline_ = nullptr;
  std::vector<PrefixObserver*> prefix_observers_;
  // Row boundaries armed for the next run (one-shot), and those of the
  // run in flight: one per row of a broadcast pass, else the single
  // smallest.  Swapped, never reallocated, in steady state.
  std::vector<std::size_t> armed_rows_;
  std::vector<std::size_t> run_rows_;
  std::size_t rows_computing_ = 0;  // run_rows_ entries <= the current leaf
  bool prefix_active_ = false;
  bool prefix_broadcast_allowed_ = false;  // caller opted in (set_prefix_broadcast)
  bool prefix_broadcast_ = false;  // batch-1 baseline under an N-row pass
  std::size_t prefix_cursor_ = 0;
  std::size_t prefix_reused_last_run_ = 0;
  std::size_t prefix_rows_reused_last_run_ = 0;
};

}  // namespace alfi::nn
