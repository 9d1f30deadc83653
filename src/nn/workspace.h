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
// Fault-cone replay (DESIGN.md §12): when the baseline ran a batch-1
// pass and the current pass packs K identical copies of that input
// along dim 0 (a same-image unit pack), every row starts from the
// baseline and recomputes only what its fault can reach.  The workspace
// keeps, per row, the bounding box of the elements of each tensor a leaf
// reads that differ bit-wise from the baseline's tensor in the same role
// (module slot, aux slot; the pass input is clean).  A leaf copies the
// baseline's row into every row, recomputes the rows whose input box is
// not empty (Conv2d only the output window the box reaches), runs its
// REAL hooks on all K rows and records each row's new box by comparing
// it with the baseline.  The mode is opt-in (set_prefix_broadcast): the
// shapes alone cannot prove the data contract — every row of the pass
// input must equal the baseline's row — so the caller must promise it.
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
#include "tensor/ops.h"
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
  /// kCone replays the leaf in a broadcast pass: baseline rows, the rows
  /// its input's dirty boxes reach recomputed through row_views(), the
  /// real hooks on all K rows, then cone_finish() (DESIGN.md §12).
  enum class PrefixAction { kCompute, kSkip, kMaterialize, kCone };

  /// Single-row views of one leaf's input and of its own slot, walked
  /// over the rows of a broadcast pass with Tensor::rebind.
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
    if (&m == row_module_) return *row_slot_;  // one row of a kCone leaf
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

  /// Opts into fault-cone replay: when an armed run finds a batch-1
  /// baseline under a K-row pass (other dims equal), every row replays
  /// the baseline wherever it is bit-identical to it, instead of the
  /// pass degrading to full recompute.  CALLER PROMISE: every row of the
  /// pass input equals the baseline's single input row — the workspace
  /// can only check shapes, and replaying unequal data would silently
  /// corrupt the pass.  Off (the default) never broadcasts.
  void set_prefix_broadcast(bool allow) { prefix_broadcast_allowed_ = allow; }

  /// Arms the prefix for the NEXT run() only (consumed and reset): leaves
  /// with execution index < `first_recomputed_leaf` replay the baseline's
  /// cached outputs; everything from that leaf on recomputes.  0 disarms
  /// (full recompute); kSkipAllLeaves replays the whole pass.  The run
  /// silently degrades to full recompute whenever replay cannot be proven
  /// equivalent (unplanned or mismatched baseline, a leaf missing from
  /// the baseline, an observer veto).  A broadcast pass takes any armed
  /// value, 0 included, as its cue: the cone finds each row's clean
  /// leaves itself.
  void set_prefix_boundary(std::size_t first_recomputed_leaf) {
    armed_boundary_ = first_recomputed_leaf;
  }

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

  /// (row, leaf) pairs served from the baseline with nothing computed
  /// during the most recent run(): prefix_reused_last_run() times the
  /// batch size for a same-shape replay; in a broadcast pass, every row
  /// whose input was bit-identical to the baseline's (or whose dirty box
  /// reaches no output) at every leaf.
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
  /// kMaterialize and kCone, `*cached` points at the baseline's slot for
  /// `m`.  kCone needs `input` to hold one row per row of the pass.
  PrefixAction prefix_action(const Module& m, const Tensor& input, Tensor** cached);

  /// Rows of the current broadcast pass: its dim 0.
  std::size_t cone_row_count() const { return cone_clean_.size(); }

  /// Per row of the current broadcast pass, the box of `t`'s elements
  /// that differ bit-wise from the baseline's tensor in the same role:
  /// empty for the pass input, the whole row for a tensor the workspace
  /// cannot map.  Compared on the first read of each pass, unless the
  /// leaf that wrote `t` recorded it (cone_finish).
  std::span<const ops::Rect> cone_boxes(const Tensor& t);

  /// After a kCone leaf's hooks ran on `slot`: records each row's box
  /// against the leaf's baseline output and counts the rows of
  /// `computed_rows` that computed nothing as replayed.
  void cone_finish(const Module& m, const Tensor& slot, const Tensor& baseline,
                   std::size_t computed_rows);

  /// Drops `t`'s recorded boxes (a container's hooks rewrote it), so
  /// its next read compares again.
  void cone_forget(const Tensor& t);

  /// True while a broadcast pass runs.
  bool cone_active() const { return cone_; }

  /// The single-row views of leaf `m`'s input and slot, created on the
  /// first broadcast pass that reaches `m` (so later passes allocate
  /// nothing) and pointed at row `row`.
  RowViews& row_views(const Module& m, const Tensor& input, Tensor& slot,
                      std::size_t row);

  /// The windowed conv's scratch (ops::conv2d_forward_planned_window),
  /// one per workspace: its convs run one at a time.
  ops::Conv2dWindowScratch& conv_window() { return conv_window_; }

  /// While set, slot(m) returns `row` instead of m's own slot, so the
  /// leaf's compute writes one row; pass nullptr to end it.
  void redirect_slot(const Module* m, Tensor* row) {
    row_module_ = m;
    row_slot_ = row;
  }

 private:
  using AuxKey = std::pair<const Module*, std::size_t>;
  struct AuxKeyHash {
    std::size_t operator()(const AuxKey& key) const {
      return std::hash<const void*>{}(key.first) ^
             (key.second * 0x9e3779b97f4a7c15ull);
    }
  };

  /// The role a tensor plays in a pass: module m's slot (aux ==
  /// kSlotRole), aux slot (m, aux), or none (module == nullptr).
  struct Role {
    const Module* module = nullptr;
    std::size_t aux = 0;
  };
  static constexpr std::size_t kSlotRole = static_cast<std::size_t>(-1);
  /// One tensor's per-row boxes and the broadcast pass they describe.
  struct Cone {
    Role role;
    std::vector<ops::Rect> rows;
    std::uint64_t pass = 0;
  };

  Role role_of(const Tensor& t) const;
  /// The baseline's tensor in `role`, or nullptr.
  const Tensor* baseline_in(const Role& role) const;
  /// Compares every row of `t` with `baseline`'s single row into `rows`;
  /// the whole row when the baseline is missing or shaped otherwise.
  void diff_rows(const Tensor& t, const Tensor* baseline, std::vector<ops::Rect>& rows) const;

  TensorArena arena_;
  std::unordered_map<const Module*, Tensor> slots_;
  std::unordered_map<AuxKey, Tensor, AuxKeyHash> aux_slots_;
  std::unordered_map<const Module*, std::span<float>> scratch_;
  const Module* row_module_ = nullptr;  // redirect_slot() target
  Tensor* row_slot_ = nullptr;
  const Module* root_ = nullptr;
  Shape input_shape_;

  // Differential-inference state.  leaf_exec_ maps each leaf to its
  // execution index, captured once on the planning pass; exec_valid_
  // drops to false if a leaf runs twice in one pass (shared module —
  // the cursor-based prefix would misattribute it, and the baseline's
  // slot would hold only its last output, so neither replay activates).
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
  std::optional<std::size_t> armed_boundary_;  // for the next run (one-shot)
  std::size_t run_boundary_ = 0;               // of the run in flight
  bool prefix_active_ = false;
  bool prefix_broadcast_allowed_ = false;  // caller opted in (set_prefix_broadcast)
  std::size_t prefix_cursor_ = 0;
  std::size_t prefix_reused_last_run_ = 0;
  std::size_t prefix_rows_reused_last_run_ = 0;

  // Fault-cone replay state (broadcast passes).  Entries and views are
  // created on the first broadcast pass and reused after, so a steady
  // state pass allocates nothing.
  bool cone_ = false;                    // a broadcast pass is running
  std::uint64_t cone_pass_ = 0;          // counts broadcast passes
  const Tensor* cone_input_ = nullptr;   // the pass input: clean in every row
  std::vector<ops::Rect> cone_clean_;    // one empty box per row
  std::vector<ops::Rect> cone_dirty_;    // whole rows, for an unmapped tensor
  std::unordered_map<const Tensor*, Cone> cones_;
  std::unordered_map<const Module*, RowViews> row_views_;
  ops::Conv2dWindowScratch conv_window_;
};

}  // namespace alfi::nn
