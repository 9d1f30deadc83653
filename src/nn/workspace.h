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
// Differential inference (DESIGN.md §11, §12): an *armed* run replays
// the pass of a baseline workspace holding the fault-free pass of the
// same root, with 1 row or as many rows as the armed pass.  Row r of the
// pass reads baseline row r, or row 0 of a 1-row baseline.  The
// workspace keeps, per row, the bounding box of the elements of each
// tensor a leaf reads that differ bit-wise from the baseline's tensor in
// the same role (module slot, aux slot, or the pass input, which every
// run() keeps a copy of, so the input's boxes come from comparing it with
// the baseline's copy).  A leaf copies the baseline's rows, recomputes
// the rows whose input box is not empty (Conv2d only the output window
// the box reaches), runs its REAL hooks on every row and records each
// row's new box by comparing it with the baseline.  A leaf whose weights
// the armed faults changed (named by arm()) computes every row.
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

/// Vouches for the hooks of leaves a root-child start drops
/// (InferenceWorkspace::run_from_child).  One observer per hook-owning
/// component (monitor, protection).
class PrefixObserver {
 public:
  virtual ~PrefixObserver() = default;

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
  /// Single-row views of one leaf's input and of its own slot, walked
  /// over the rows of an armed pass with Tensor::rebind.
  struct RowViews {
    Tensor input;
    Tensor output;
  };

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
    if (&m == row_module_) return *row_slot_;  // one row of a replayed leaf
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
  /// input of the child.  Consumes any arm() (nothing is replayed) and
  /// allocates nothing; the workspace cannot serve as a baseline until
  /// its next run().  Throws Error on an unplanned workspace, another
  /// root, a non-Sequential root, a child index past the end or a
  /// mismatched `live`.
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
  /// pass of a Sequential root (its own slot), valid until the workspace
  /// runs again; nullptr past the root's children or before planning.
  const Tensor* root_child_output(std::size_t child) const {
    return child < root_child_outputs_.size() ? root_child_outputs_[child] : nullptr;
  }

  /// Peak arena footprint in bytes — the fixed preallocation one model
  /// pass needs (exported to the campaign metrics registry).
  std::size_t high_water_bytes() const { return arena_.high_water_bytes(); }

  // -- differential inference (fault-cone replay) -------------------------

  /// Declares the workspace whose latest run() holds the fault-free pass
  /// an armed run replays.  It must outlive this workspace's runs; pass
  /// nullptr to detach.  Throws Error for `this`: an armed run overwrites
  /// the slots it would read.
  void set_prefix_baseline(const InferenceWorkspace* baseline);

  /// Registers an observer that first_unskippable_leaf() asks, in
  /// registration order.  Observers must outlive the workspace's runs.
  void add_prefix_observer(PrefixObserver* observer);

  /// Arms the NEXT run() only (consumed and reset) to replay the
  /// baseline wherever a row is bit-identical to it.  `weight_changed`
  /// names the leaves whose weights differ from the baseline pass's (the
  /// armed weight faults): they compute every row.  The run recomputes
  /// in full when the baseline is missing, unplanned, of another root,
  /// its latest pass was a root-child start, its leaf order is
  /// ambiguous, or its input is not 1 row or the pass's rows of the same
  /// per-row shape.
  void arm(std::span<const Module* const> weight_changed = {});

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

  /// Leaves no row of the most recent run() computed.
  std::size_t prefix_reused_last_run() const { return prefix_reused_last_run_; }

  /// (row, leaf) pairs of the most recent run() served from the baseline
  /// with nothing computed: every row whose input was bit-identical to
  /// the baseline's (or whose dirty box reaches no output) at every leaf.
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

  /// In an armed run, the baseline's output of leaf `m` when the leaf
  /// replays it (Module::forward_cone): the baseline holds it with 1 row
  /// or one per row of the pass, `input` has one row per row of the
  /// pass, and the armed faults left `m`'s weights alone.  Otherwise
  /// nullptr: the leaf computes every row, and a reader of its output
  /// sees whatever a comparison finds.
  const Tensor* cone_baseline(const Module& m, const Tensor& input) const;

  /// Rows of the current armed pass: its dim 0.
  std::size_t cone_row_count() const { return cone_input_rows_.size(); }

  /// Per row of the current armed pass, the box of `t`'s elements that
  /// differ bit-wise from the baseline's tensor in the same role (the
  /// pass input against the baseline's copy of its input); the whole row
  /// for a tensor the workspace cannot map.  Compared on the first read
  /// of each pass, unless the leaf that wrote `t` recorded it
  /// (cone_finish).
  std::span<const ops::Rect> cone_boxes(const Tensor& t);

  /// After a replayed leaf's hooks ran on `slot`: records each row's box
  /// against the leaf's baseline output and counts the rows that
  /// computed nothing (all but `computed_rows`) as replayed.
  void cone_finish(const Module& m, const Tensor& slot, const Tensor& baseline,
                   std::size_t computed_rows);

  /// Drops `t`'s recorded boxes (a container's hooks rewrote it), so
  /// its next read compares again.
  void cone_forget(const Tensor& t);

  /// True while an armed pass replays a baseline.
  bool cone_active() const { return cone_; }

  /// The single-row views of leaf `m`'s input and slot, created on the
  /// first armed pass that reaches `m` (so later passes allocate
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
  /// One tensor's per-row boxes and the armed pass they describe.
  struct Cone {
    Role role;
    std::vector<ops::Rect> rows;
    std::uint64_t pass = 0;
  };

  Role role_of(const Tensor& t) const;
  /// The baseline's tensor in `role`, or nullptr.
  const Tensor* baseline_in(const Role& role) const;
  /// Compares every row of `t` with `baseline`'s matching row (row r, or
  /// row 0 of a 1-row baseline) into `rows`; the whole row when the
  /// baseline is missing or shaped otherwise.
  void diff_rows(const Tensor& t, const Tensor* baseline, std::vector<ops::Rect>& rows) const;

  TensorArena arena_;
  std::unordered_map<const Module*, Tensor> slots_;
  std::unordered_map<AuxKey, Tensor, AuxKeyHash> aux_slots_;
  std::unordered_map<const Module*, std::span<float>> scratch_;
  const Module* row_module_ = nullptr;  // redirect_slot() target
  Tensor* row_slot_ = nullptr;
  const Module* root_ = nullptr;
  Shape input_shape_;
  // A copy of the latest run()'s input, which an armed run against this
  // workspace compares its own input with; stale after run_from_child.
  Tensor input_;
  bool input_current_ = false;

  // Leaf bookkeeping.  leaf_exec_ maps each leaf to its execution index,
  // captured once on the planning pass; exec_valid_ drops to false if a
  // leaf runs twice in one pass (a shared module: its slot would hold
  // only its last output, so no pass replays this workspace).
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
  bool armed_ = false;                        // for the next run (one-shot)
  std::vector<const Module*> armed_weights_;  // arm()'s weight_changed
  std::size_t prefix_reused_last_run_ = 0;
  std::size_t prefix_rows_reused_last_run_ = 0;

  // Fault-cone replay state (armed passes).  Entries and views are
  // created on the first armed pass and reused after, so a steady-state
  // pass allocates nothing.
  bool cone_ = false;                      // an armed pass is replaying
  std::uint64_t cone_pass_ = 0;            // counts armed passes
  const Tensor* cone_input_ = nullptr;     // the pass input
  std::vector<ops::Rect> cone_input_rows_;  // its boxes, one per row
  std::vector<ops::Rect> cone_dirty_;       // whole rows, for an unmapped tensor
  std::unordered_map<const Tensor*, Cone> cones_;
  std::unordered_map<const Module*, RowViews> row_views_;
  ops::Conv2dWindowScratch conv_window_;
};

}  // namespace alfi::nn
