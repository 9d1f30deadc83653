#include "core/test_img_class.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>

#include "core/campaign.h"
#include "io/csv.h"
#include "nn/layers.h"
#include "nn/workspace.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace alfi::core {

namespace {

/// One sample of probe input so the wrapper can profile layer geometry.
Tensor probe_input(const data::ClassificationDataset& dataset) {
  const data::ClassificationSample sample = dataset.get(0);
  return stack_images({&sample.image});
}

std::string fmt_float(float v) { return strformat("%.6g", v); }

/// Serializes the fault group applied to one image as a compact string:
/// "layer:c_out:c_in:d:h:w:bit" entries joined by ';'.
std::string faults_to_field(const std::vector<Fault>& faults) {
  std::vector<std::string> parts;
  parts.reserve(faults.size());
  for (const Fault& f : faults) {
    parts.push_back(strformat("%lld:%lld:%lld:%lld:%lld:%lld:%d",
                              static_cast<long long>(f.layer),
                              static_cast<long long>(f.channel_out),
                              static_cast<long long>(f.channel_in),
                              static_cast<long long>(f.depth),
                              static_cast<long long>(f.height),
                              static_cast<long long>(f.width), f.bit_pos));
  }
  return join(parts, ";");
}

bool row_has_nonfinite(std::span<const float> row) {
  for (const float v : row) {
    if (std::isnan(v) || std::isinf(v)) return true;
  }
  return false;
}

/// Appends `top`'s (class, probability) column pairs, blank past its end.
void push_topk(std::vector<std::string>& row, const TopK& top, std::size_t top_k) {
  for (std::size_t j = 0; j < top_k; ++j) {
    if (j < top.classes.size()) {
      row.push_back(std::to_string(top.classes[j]));
      row.push_back(fmt_float(top.probs[j]));
    } else {
      row.push_back("");
      row.push_back("");
    }
  }
}

void write_row(io::ByteWriter& w, const std::vector<std::string>& row) {
  w.write_u64(row.size());
  for (const std::string& field : row) w.write_string(field);
}

/// Grows as fields parse, so a corrupt count underruns (ParseError)
/// after reading at most the bytes present instead of sizing first.
std::vector<std::vector<std::string>> read_rows(io::ByteReader& r) {
  std::vector<std::vector<std::string>> rows;
  for (std::uint64_t n = r.read_u64(); n > 0; --n) {
    std::vector<std::string>& row = rows.emplace_back();
    for (std::uint64_t k = r.read_u64(); k > 0; --k) row.push_back(r.read_string());
  }
  return rows;
}

/// Logit tensors of one coupled triple: the workspaces' root slots or
/// the runner's holder tensors, valid until its next triple.
struct TripleLogits {
  const Tensor* orig = nullptr;
  const Tensor* corr = nullptr;
  const Tensor* resil = nullptr;  // null without mitigation
};

std::span<const float> logit_row(const Tensor& logits, std::size_t row) {
  const std::size_t k = logits.dim(1);
  return {logits.raw() + row * k, k};
}

/// Scores one unit's image — row `row` of the armed passes' logits
/// against row `orig_row` of the fault-free ones — and serializes the
/// unit payload: KPI counter deltas, the results row (plus the
/// fault-free row for an epoch-0 unit) and the unit's injection
/// records.  Deterministic in the unit index alone, so journal-replayed
/// and fresh units match.  `group` is the unit's whole addressed fault
/// group, which the results row lists.
std::string score_unit(std::size_t top_k, const TripleLogits& logits,
                       std::size_t orig_row, std::size_t row, bool monitor_due,
                       const data::ClassificationSample& sample, std::size_t epoch,
                       const std::vector<Fault>& group,
                       std::span<const InjectionRecord> records) {
  const bool has_resil = logits.resil != nullptr;
  const std::span<const float> corr_row = logit_row(*logits.corr, row);
  const TopK orig_top = topk_of_logits(logit_row(*logits.orig, orig_row), top_k);
  const TopK corr_top = topk_of_logits(corr_row, top_k);
  const TopK resil_top =
      has_resil ? topk_of_logits(logit_row(*logits.resil, row), top_k) : TopK{};
  const bool due = row_has_nonfinite(corr_row) || monitor_due;
  const bool sde = !due && corr_top.classes[0] != orig_top.classes[0];
  const bool resil_sde =
      has_resil && !due && resil_top.classes[0] != orig_top.classes[0];

  // KPI counter deltas, in ClassificationKpis order.
  io::ByteWriter w;
  w.write_u64(1);  // total
  w.write_u64(orig_top.classes[0] == sample.label ? 1 : 0);
  w.write_u64(corr_top.classes[0] == sample.label ? 1 : 0);
  w.write_u64(has_resil && resil_top.classes[0] == sample.label ? 1 : 0);
  w.write_u64(sde ? 1 : 0);
  w.write_u64(due ? 1 : 0);
  w.write_u64(resil_sde ? 1 : 0);

  std::vector<std::string> result_row{
      std::to_string(sample.meta.image_id), sample.meta.file_name,
      std::to_string(sample.label),         due ? "1" : "0",
      sde ? "1" : "0",                      faults_to_field(group),
      std::to_string(records.size())};
  push_topk(result_row, orig_top, top_k);
  push_topk(result_row, corr_top, top_k);
  push_topk(result_row, resil_top, top_k);
  w.write_u64(1);
  write_row(w, result_row);

  // The fault-free CSV covers one pass of the dataset.
  w.write_u64(epoch == 0 ? 1 : 0);
  if (epoch == 0) {
    std::vector<std::string> ff_row{std::to_string(sample.meta.image_id),
                                    sample.meta.file_name,
                                    std::to_string(sample.label)};
    push_topk(ff_row, orig_top, top_k);
    write_row(w, ff_row);
  }

  w.write_u64(records.size());
  for (const InjectionRecord& record : records) write_record_bytes(w, record);
  return w.take();
}

/// diff_prefix_boundary's value when no fault lands.
constexpr std::size_t kNoLeaf = static_cast<std::size_t>(-1);

/// The earliest leaf the faults `armed` arm, by execution index in
/// `baseline`'s recorded order — counting every fault that arms: a
/// neuron fault pushed past the pass still runs its layer's skip
/// accounting.  Every leaf before it reads the fault-free pass's input,
/// so it picks the fault-free cache's cut (DESIGN.md §11.1).  0 for an
/// unplanned baseline or a fault layer the baseline never executed;
/// kNoLeaf when no fault lands.
std::size_t diff_prefix_boundary(const ModelProfile& profile, std::span<const Fault> armed,
                                 const nn::InferenceWorkspace& baseline) {
  if (!baseline.planned()) return 0;
  std::size_t boundary = kNoLeaf;
  for (const Fault& fault : armed) {
    const nn::Module* module = profile.layer(static_cast<std::size_t>(fault.layer)).module;
    const std::optional<std::size_t> index = baseline.leaf_exec_index(*module);
    if (!index.has_value()) return 0;  // armed layer outside this workspace's pass
    boundary = std::min(boundary, *index);
  }
  return boundary;
}

/// What a runner keeps of its images' fault-free passes, so a one-unit
/// pack can skip its own (DESIGN.md §11.1): per image the logits and, per
/// cut, the tensor the armed passes start from at that root child.
/// Bounded by `budget_bytes` of tensor data: inserts stop when it is full
/// and nothing is evicted — units visit the images in a cycle, so an LRU
/// smaller than the working set would never hit.
class FaultFreeCache {
 public:
  /// What every runner of one process may keep, together.
  static constexpr std::size_t kProcessBudgetBytes = std::size_t{4} << 20;

  explicit FaultFreeCache(std::size_t budget_bytes) : budget_bytes_(budget_bytes) {}

  struct Entry {
    Tensor logits;
    /// A cut is kept only if its first leaf comes no later than this
    /// (InferenceWorkspace::first_unskippable_leaf).
    std::size_t first_unskippable = 0;
    /// (root child, the tensor it takes as input), one per cut seen.
    std::vector<std::pair<std::size_t, Tensor>> cuts;

    const Tensor* cut(std::size_t child) const {
      for (const auto& [c, live] : cuts) {
        if (c == child) return &live;
      }
      return nullptr;
    }
  };

  Entry* find(std::size_t image) {
    const auto it = entries_.find(image);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// Adds `image`'s entry; nullptr when its logits pass the budget.
  Entry* insert(std::size_t image, const Tensor& logits, std::size_t first_unskippable) {
    if (!charge(logits)) return nullptr;
    return &entries_.emplace(image, Entry{logits, first_unskippable, {}}).first->second;
  }

  /// Adds the input of root child `child` to `entry`, if it fits.
  void add_cut(Entry& entry, std::size_t child, const Tensor& live) {
    if (charge(live)) entry.cuts.emplace_back(child, live);
  }

  std::size_t bytes() const { return bytes_; }

 private:
  /// Counts `t` against the budget; false (nothing counted) past it.
  bool charge(const Tensor& t) {
    const std::size_t bytes = t.numel() * sizeof(float);
    if (bytes_ + bytes > budget_bytes_) return false;
    bytes_ += bytes;
    return true;
  }

  std::size_t budget_bytes_;
  std::unordered_map<std::size_t, Entry> entries_;
  std::size_t bytes_ = 0;
};

}  // namespace

/// Per-worker unit engine for the classification campaign: one image
/// per unit under its addressed fault group, for every injection
/// policy.  A shared runner drives the wrapped original model
/// (single-shard serial path); otherwise it owns a deep-cloned replica
/// with its own injection stack so workers share only read-only state
/// (dataset, fault matrix, calibration bounds).
class ImgClassUnitRunner final : public CampaignUnitRunner {
 public:
  ImgClassUnitRunner(TestErrorModelsImgClass& harness, bool shared_model)
      : h_(harness),
        replica_(shared_model ? nullptr : harness.model_.clone()),
        model_(replica_ ? *replica_ : harness.model_),
        stack_(harness.wrapper_, replica_.get(), probe_input(harness.dataset_),
               harness.store_ ? &*harness.store_ : nullptr, harness.bounds_,
               harness.config_.mitigation, harness.metrics_),
        // The process's runners split its cache budget: a shared-model
        // runner is the only one, the others are one per --jobs thread.
        cache_(FaultFreeCache::kProcessBudgetBytes /
               (shared_model ? 1 : CampaignRunner(harness.config_.jobs).jobs())) {
    if (!h_.config_.workspace) return;
    arena_gauge_ = &h_.metrics_.gauge("campaign.arena_high_water_bytes");
    if (!h_.config_.diff) return;
    // corr/resil replay the orig pass (fault-cone replay, DESIGN.md §12).
    // The observers tell the fault-free cache which leaves a root-child
    // start may drop (§11.1), in hook order: monitor, then protection.
    diff_ = true;
    ws_corr_.set_prefix_baseline(&ws_orig_);
    ws_resil_.set_prefix_baseline(&ws_orig_);
    ws_corr_.add_prefix_observer(&stack_.monitor());
    if (stack_.protection() != nullptr) ws_corr_.add_prefix_observer(stack_.protection());
    diff_skipped_ = &h_.metrics_.counter("campaign.diff.layers_skipped");
    diff_rows_skipped_ = &h_.metrics_.counter("campaign.diff.rows_skipped");
    diff_hits_ = &h_.metrics_.counter("campaign.diff.prefix_hits");
    diff_misses_ = &h_.metrics_.counter("campaign.diff.prefix_misses");
    golden_hits_ = &h_.metrics_.counter("campaign.diff.golden_hits");
    golden_bytes_ = &h_.metrics_.gauge("campaign.golden_cache_bytes");
    // The cut tensors sit at root-child boundaries of a Sequential.
    root_ = dynamic_cast<nn::Sequential*>(&model_);
  }

  /// Unit t = epoch * dataset_size + img runs image `img` under the
  /// fault group address_unit() assigns it.  The global index keeps
  /// group, slot and trace labels independent of which shard — or which
  /// process, for a resumed or fleet campaign — executes the unit.
  ///
  /// The given units run as one triple over a [count, C, H, W] tensor,
  /// unit i's addressed faults armed on batch slot i (DESIGN.md §12).
  /// Packs are strided by dataset_size, so a pack normally holds the SAME
  /// image under different epochs' fault groups — the fault-free pass
  /// then runs batch-1 and is shared by every slot, and with diff on each
  /// slot recomputes only what its faults reach of that pass (fault-cone
  /// replay).  Per-slot outputs are scored and serialized exactly as
  /// count one-unit packs would have been — same rows, same KPIs, same
  /// records, same counters — in pack order.
  std::vector<std::string> run_unit_pack(
      const std::vector<std::size_t>& units) override {
    const std::size_t count = units.size();
    const Scenario& scenario = h_.wrapper_.get_scenario();

    std::vector<UnitAddress> addrs(count);
    std::vector<data::ClassificationSample> samples;
    samples.reserve(count);
    std::vector<const Tensor*> images(count);
    bool same_image = true;
    for (std::size_t i = 0; i < count; ++i) {
      addrs[i] = address_unit(scenario, units[i]);
      samples.push_back(h_.dataset_.get(addrs[i].img));
      images[i] = &samples[i].image;  // reserved: no reallocation
      same_image = same_image && addrs[i].img == addrs[0].img;
    }
    const Tensor packed = stack_images(images);
    // A same-image pack computes the fault-free pass once, batch-1.
    const Tensor orig_input = same_image ? stack_images({images[0]}) : Tensor();

    // A one-unit pack may start from its image's cached fault-free pass
    // instead; when it cannot, its fresh pass fills the cache.
    GoldenStart golden;
    const bool hit = count == 1 && golden_start(addrs[0], packed, golden);
    const TripleLogits logits =
        triple(same_image ? orig_input : packed, packed, count, hit ? &golden : nullptr,
               [&] { arm_pack(units, addrs); });
    if (hit) {
      golden_hits_->add();
    } else if (count == 1) {
      remember(addrs[0], *logits.orig);
    }
    const std::vector<std::vector<InjectionRecord>> records =
        stack_.injector().split_records_by_slot(units);

    std::vector<std::string> payloads;
    payloads.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      payloads.push_back(score_unit(h_.config_.top_k, logits, same_image ? 0 : i, i,
                                    due_[i] != 0, samples[i], addrs[i].epoch,
                                    group_of(addrs[i]), records[i]));
    }
    return payloads;
  }

 private:
  /// A cache hit: the image's fault-free logits, and where its armed
  /// passes start — at root child `child`, from `live`.
  struct GoldenStart {
    const Tensor* logits = nullptr;
    const Tensor* live = nullptr;
    std::size_t child = 0;
  };

  std::vector<Fault> group_of(const UnitAddress& addr) const {
    return h_.wrapper_.fault_matrix().slice(
        addr.group_start, h_.wrapper_.get_scenario().max_faults_per_image);
  }

  /// The earliest leaf the one-unit pack of `addr` arms, kNoLeaf when
  /// none of its faults lands (ws_orig_ must be planned: the index is its
  /// execution order).
  std::size_t unit_boundary(const UnitAddress& addr) {
    unit_faults_.clear();
    append_unit_faults(h_.wrapper_.get_scenario(), h_.wrapper_.fault_matrix(), addr, 0, 1,
                       unit_faults_);
    return diff_prefix_boundary(stack_.injector().profile(), unit_faults_, ws_orig_);
  }

  /// The last root child whose first leaf comes at or before `boundary`:
  /// no leaf of an earlier child holds an armed fault.  A unit none of
  /// whose faults lands (kNoLeaf) cuts at the last root child.
  std::size_t cut_of(std::size_t boundary) const {
    std::size_t child = 0;
    while (child + 1 < child_first_leaf_.size() && child_first_leaf_[child + 1] <= boundary) {
      ++child;
    }
    return child;
  }

  /// True when the one-unit pack of `addr` on `image` can skip its
  /// fault-free pass: its image is cached with the cut its boundary
  /// needs (remember() keeps only cuts no unskippable leaf precedes) and
  /// the armed workspaces are planned for a batch-1 pass.
  bool golden_start(const UnitAddress& addr, const Tensor& image, GoldenStart& start) {
    if (root_ == nullptr) return false;
    const FaultFreeCache::Entry* entry = cache_.find(addr.img);
    if (entry == nullptr) return false;
    start.logits = &entry->logits;
    start.child = cut_of(unit_boundary(addr));
    start.live = start.child == 0 ? &image : entry->cut(start.child);
    return start.live != nullptr && ws_corr_.planned_for(model_, image.shape()) &&
           (stack_.protection() == nullptr || ws_resil_.planned_for(model_, image.shape()));
  }

  /// After a one-unit pack's fresh triple: keeps its image's fault-free
  /// logits and, when every leaf before it is skippable, the input of
  /// the root child its boundary cuts at, for the image's later epochs —
  /// unless the fault-free pass set a monitor flag (a hit would lose its
  /// counts) or this is the image's last epoch (nothing would read it).
  void remember(const UnitAddress& addr, const Tensor& logits) {
    if (root_ == nullptr || orig_flagged_ ||
        addr.epoch + 1 >= h_.wrapper_.get_scenario().num_runs) {
      return;
    }
    if (child_first_leaf_.empty()) {
      for (const auto& [name, child] : root_->children()) {
        std::size_t first = kNoLeaf;
        child->for_each_module([&](const std::string&, nn::Module& m) {
          const std::optional<std::size_t> index = ws_orig_.leaf_exec_index(m);
          if (m.children().empty() && index.has_value()) first = std::min(first, *index);
        });
        child_first_leaf_.push_back(first);
      }
    }
    FaultFreeCache::Entry* entry = cache_.find(addr.img);
    if (entry == nullptr) {
      entry = cache_.insert(addr.img, logits, ws_corr_.first_unskippable_leaf(ws_orig_));
      if (entry == nullptr) return;
    }
    const std::size_t child = cut_of(unit_boundary(addr));
    if (child > 0 && child_first_leaf_[child] <= entry->first_unskippable &&
        entry->cut(child) == nullptr) {
      cache_.add_cut(*entry, child, *ws_orig_.root_child_output(child - 1));
    }
    golden_bytes_->set_max(static_cast<double>(cache_.bytes()));
  }

  /// Arms the pack's faults, unit i on batch slot i, and (diff on)
  /// collects the leaves whose weights they corrupted: the armed passes
  /// recompute those in every row (DESIGN.md §12).
  void arm_pack(const std::vector<std::size_t>& units,
                const std::vector<UnitAddress>& addrs) {
    const std::size_t count = units.size();
    std::vector<Fault> armed;
    for (std::size_t i = 0; i < count; ++i) {
      append_unit_faults(h_.wrapper_.get_scenario(), h_.wrapper_.fault_matrix(), addrs[i], i,
                         count, armed);
    }
    Injector& injector = stack_.injector();
    injector.set_inference_index(units[0]);
    injector.arm(std::move(armed));
    if (diff_) injector.corrupted_weight_modules(weight_changed_);
  }

  /// Runs the coupled triple: the fault-free pass on `orig_images`, then
  /// the corrupted and hardened passes on `faulty_images` (`count` rows)
  /// under the fault set `arm` installs.  A same-image pack passes its
  /// batch-1 image as `orig_images`, so one shared fault-free pass
  /// serves every slot (the fault-cone replay, DESIGN.md §12);
  /// everywhere else the two hold the same images.  A cache hit
  /// (`golden`, one-unit packs only) skips the fault-free pass and starts
  /// the armed passes where it says.  due_[s] holds slot s's DUE
  /// verdict, read right after the corrupted pass, before the hardened
  /// pass can add detections of its own.  A one-unit pack monitors
  /// whole-tensor: it is the reference every larger pack's per-slot
  /// verdicts must match.
  TripleLogits triple(const Tensor& orig_images, const Tensor& faulty_images,
                      std::size_t count, const GoldenStart* golden,
                      const std::function<void()>& arm) {
    Injector& injector = stack_.injector();
    ModelMonitor& monitor = stack_.monitor();
    Protection* protection = stack_.protection();
    TripleLogits out;
    injector.disarm();
    if (protection != nullptr) protection->set_enabled(false);
    // The fault-free pass observes whole-tensor — a same-image pack runs
    // it batch-1; per-slot monitoring only matters for the armed passes.
    monitor.set_slot_count(0);
    monitor.reset();
    if (golden != nullptr) {
      out.orig = golden->logits;
    } else if (h_.config_.workspace) {
      out.orig = &ws_orig_.run(model_, orig_images);
    } else {
      orig_hold_ = model_.forward(orig_images);
      out.orig = &orig_hold_;
    }
    orig_flagged_ = monitor.due_detected();

    arm();
    const std::size_t slots = count > 1 ? count : 0;
    monitor.set_slot_count(slots);
    monitor.reset();
    out.corr = armed_pass(faulty_images, ws_corr_, corr_hold_, golden);
    due_.assign(count, 0);
    for (std::size_t s = 0; s < count; ++s) {
      due_[s] = (slots == 0 ? monitor.due_detected() : monitor.slot_due(s)) ? 1 : 0;
    }
    if (protection != nullptr) {
      protection->set_enabled(true);
      out.resil = armed_pass(faulty_images, ws_resil_, resil_hold_, golden);
      protection->set_enabled(false);
    }
    injector.disarm();
    monitor.set_slot_count(0);
    if (arena_gauge_ != nullptr) {
      // Same planned footprint every unit, so the gauge is deterministic
      // for any job count (the three passes share one plan size).
      arena_gauge_->set(static_cast<double>(ws_corr_.high_water_bytes()));
    }
    return out;
  }

  /// One armed pass: through `ws`, replaying the fault-free pass wherever
  /// a row is bit-identical to it (diff on), from a cache hit's start
  /// (`golden`), or (workspace off) the allocating forward into `hold`.
  /// A hit's pass counts the leaves before its cut as skipped.
  const Tensor* armed_pass(const Tensor& images, nn::InferenceWorkspace& ws,
                           Tensor& hold, const GoldenStart* golden) {
    if (!h_.config_.workspace) {
      hold = model_.forward(images);
      return &hold;
    }
    const Tensor* out = nullptr;
    std::size_t layers = 0;
    std::size_t rows = 0;
    if (golden != nullptr) {
      out = &ws.run_from_child(model_, golden->child, *golden->live);
      layers = rows = child_first_leaf_[golden->child];
    } else {
      if (diff_) ws.arm(weight_changed_);
      out = &ws.run(model_, images);
      layers = ws.prefix_reused_last_run();
      rows = ws.prefix_rows_reused_last_run();
    }
    if (diff_) {
      diff_skipped_->add(layers);
      diff_rows_skipped_->add(rows);
      (rows > 0 ? diff_hits_ : diff_misses_)->add();
    }
    return out;
  }

  TestErrorModelsImgClass& h_;
  std::shared_ptr<nn::Module> replica_;  // null when sharing the original
  nn::Module& model_;
  UnitInjectionStack stack_;
  // One workspace per pass so the three output tensors coexist.
  nn::InferenceWorkspace ws_orig_, ws_corr_, ws_resil_;
  Tensor orig_hold_, corr_hold_, resil_hold_;  // allocating-path storage
  // The current pack: DUE verdicts by slot, and the leaves whose weights
  // its faults corrupted (arm_pack).
  std::vector<std::uint8_t> due_;
  std::vector<const nn::Module*> weight_changed_;
  util::Gauge* arena_gauge_ = nullptr;
  bool diff_ = false;
  util::Counter* diff_skipped_ = nullptr;       // campaign.diff.layers_skipped
  util::Counter* diff_rows_skipped_ = nullptr;  // campaign.diff.rows_skipped
  util::Counter* diff_hits_ = nullptr;     // passes that replayed >= 1 row-leaf
  util::Counter* diff_misses_ = nullptr;   // passes that fully recomputed
  // The fault-free cache (diff on, Sequential root): hits skip the
  // fault-free pass of a one-unit pack.
  nn::Sequential* root_ = nullptr;  // model_, when a Sequential; else no cache
  FaultFreeCache cache_;
  std::vector<std::size_t> child_first_leaf_;  // per root child, ws_orig_ order
  std::vector<Fault> unit_faults_;             // unit_boundary() scratch
  bool orig_flagged_ = false;  // the latest fault-free pass set a monitor flag
  util::Counter* golden_hits_ = nullptr;  // campaign.diff.golden_hits
  util::Gauge* golden_bytes_ = nullptr;   // campaign.golden_cache_bytes (max)
};

TestErrorModelsImgClass::TestErrorModelsImgClass(
    nn::Module& model, const data::ClassificationDataset& dataset, Scenario scenario,
    ImgClassCampaignConfig config)
    : model_(model),
      dataset_(dataset),
      config_(std::move(config)),
      wrapper_(model, std::move(scenario), probe_input(dataset)) {
  ALFI_CHECK(wrapper_.get_scenario().dataset_size <= dataset.size(),
             "scenario dataset_size exceeds the dataset");
  // The tightly-coupled triple shares one model instance, so weight
  // corruption must be restorable between the three passes; persistence
  // across inferences is modeled by the injection policy instead.
  if (wrapper_.get_scenario().duration != FaultDuration::kTransient) {
    throw ConfigError(
        "the coupled campaign harness requires transient duration; "
        "use inj_policy per_epoch to model persistent faults");
  }
  if (!config_.fault_file.empty()) wrapper_.load_fault_matrix(config_.fault_file);
}

std::size_t TestErrorModelsImgClass::unit_count() const {
  const Scenario& scenario = wrapper_.get_scenario();
  return scenario.dataset_size * scenario.num_runs;
}

std::uint64_t TestErrorModelsImgClass::fingerprint() const {
  // Beyond scenario + fault matrix, the unit payloads also depend on
  // the mitigation choice and top_k — fold them in so a resume with a
  // different configuration is refused.
  io::ByteWriter extra;
  extra.write_string(config_.mitigation ? to_string(*config_.mitigation)
                                        : "none");
  extra.write_u64(config_.top_k);
  return fnv1a64(extra.bytes(),
                 campaign_fingerprint(wrapper_.get_scenario(),
                                      wrapper_.fault_matrix()));
}

void TestErrorModelsImgClass::prepare() {
  const Scenario& scenario = wrapper_.get_scenario();
  const bool write_outputs = !config_.output_dir.empty();

  resolved_backend_ = prepare_inference(wrapper_, store_);

  kpis_ = {};
  kpis_.has_resil = config_.mitigation.has_value();
  result_rows_.clear();
  fault_free_rows_.clear();
  trace_.clear();
  result_ = {};

  header_ = {"image_id", "file_name", "gt_label", "due", "sde", "faults",
             "applied"};
  for (const char* which : {"orig", "corr", "resil"}) {
    for (std::size_t k = 1; k <= config_.top_k; ++k) {
      header_.push_back(strformat("%s_top%zu_class", which, k));
      header_.push_back(strformat("%s_top%zu_prob", which, k));
    }
  }
  ff_header_ = {"image_id", "file_name", "gt_label"};
  for (std::size_t k = 1; k <= config_.top_k; ++k) {
    ff_header_.push_back(strformat("top%zu_class", k));
    ff_header_.push_back(strformat("top%zu_prob", k));
  }

  if (write_outputs) {
    std::filesystem::create_directories(config_.output_dir);
    const std::string base = config_.output_dir + "/" + config_.model_name;

    result_.scenario_yml = base + "_scenario.yml";
    io::Json meta = scenario.to_yaml();
    meta["meta"]["model"] = io::Json(config_.model_name);
    meta["meta"]["dataset"] = io::Json(dataset_.name());
    meta["meta"]["mitigation"] =
        io::Json(config_.mitigation ? to_string(*config_.mitigation) : "none");
    io::write_yaml_file(result_.scenario_yml, meta);

    result_.fault_bin = base + "_faults.bin";
    wrapper_.save_fault_matrix(result_.fault_bin);
    result_.results_csv = base + "_results.csv";
    result_.fault_free_csv = base + "_fault_free.csv";
  }

  // Hardened path: profile activation bounds on fault-free calibration
  // batches once, up front — workers install their own Protection over
  // the same bounds, so hardened verdicts match the serial run exactly.
  bounds_ = {};
  if (config_.mitigation) {
    data::ClassificationLoader loader(dataset_, scenario.batch_size);
    std::vector<Tensor> calibration;
    const std::size_t count =
        std::min(config_.calibration_batches, loader.num_batches());
    ALFI_CHECK(count > 0, "no calibration batches available");
    for (std::size_t b = 0; b < count; ++b) {
      calibration.push_back(loader.batch(b).images);
    }
    bounds_ = profile_activation_ranges(model_, calibration);
  }
}

std::unique_ptr<CampaignUnitRunner> TestErrorModelsImgClass::make_unit_runner(
    bool shared_model) {
  return std::make_unique<ImgClassUnitRunner>(*this, shared_model);
}

std::size_t TestErrorModelsImgClass::max_unit_pack() const {
  return unit_pack_limit(wrapper_.fault_matrix());
}

std::size_t TestErrorModelsImgClass::unit_pack_stride() const {
  const Scenario& scenario = wrapper_.get_scenario();
  return scenario.num_runs > 1 ? scenario.dataset_size : 1;
}

std::vector<SteeringCellKey> TestErrorModelsImgClass::steering_cells() const {
  return unit_steering_cells(wrapper_.get_scenario(), wrapper_.fault_matrix(),
                             wrapper_.profile(), unit_count());
}

SteeringUnitOutcome TestErrorModelsImgClass::classify_unit(
    std::size_t, const std::string& payload) const {
  io::ByteReader r(payload);
  r.read_u64();  // total
  r.read_u64();  // orig_correct
  r.read_u64();  // faulty_correct
  r.read_u64();  // resil_correct
  const std::uint64_t sde = r.read_u64();
  const std::uint64_t due = r.read_u64();
  r.read_u64();  // resil_sde
  read_rows(r);  // result rows
  read_rows(r);  // fault-free rows
  const std::uint64_t record_count = r.read_u64();
  SteeringUnitOutcome outcome;
  outcome.sdc = sde > 0;
  outcome.due = due > 0;
  // No injection record means no fault landed on this image (a skipped
  // batch slot, or a per_batch group addressed to another image of the
  // batch); the unit carries no vulnerability evidence.
  outcome.skipped = record_count == 0;
  return outcome;
}

void TestErrorModelsImgClass::absorb_unit(std::size_t, const std::string& payload) {
  io::ByteReader r(payload);
  kpis_.total += r.read_u64();
  kpis_.orig_correct += r.read_u64();
  kpis_.faulty_correct += r.read_u64();
  kpis_.resil_correct += r.read_u64();
  kpis_.sde += r.read_u64();
  kpis_.due += r.read_u64();
  kpis_.resil_sde += r.read_u64();
  for (auto& row : read_rows(r)) result_rows_.push_back(std::move(row));
  for (auto& row : read_rows(r)) fault_free_rows_.push_back(std::move(row));
  const std::uint64_t num_records = r.read_u64();
  for (std::uint64_t i = 0; i < num_records; ++i) {
    trace_.push_back(read_record_bytes(r));
  }
}

void TestErrorModelsImgClass::finalize() {
  if (!config_.output_dir.empty()) {
    io::CsvWriter results_csv(result_.results_csv, header_, io::WriteMode::kAtomic);
    io::CsvWriter fault_free_csv(result_.fault_free_csv, ff_header_,
                                 io::WriteMode::kAtomic);
    for (const auto& row : result_rows_) results_csv.write_row(row);
    for (const auto& row : fault_free_rows_) fault_free_csv.write_row(row);
    results_csv.close();
    fault_free_csv.close();

    result_.trace_bin = config_.output_dir + "/" + config_.model_name + "_trace.bin";
    save_injection_records(trace_, result_.trace_bin);
  }
  result_.kpis = kpis_;
}

ImgClassCampaignResult TestErrorModelsImgClass::run() {
  run_campaign_task(*this, config_, metrics_, resolved_backend_);
  result_.skipped_injections =
      metrics_.counter("injections.skipped_batch_slot").value();
  return result_;
}

}  // namespace alfi::core
