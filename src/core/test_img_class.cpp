#include "core/test_img_class.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <span>

#include "io/csv.h"
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

std::vector<std::vector<std::string>> read_rows(io::ByteReader& r) {
  std::vector<std::vector<std::string>> rows(r.read_u64());
  for (auto& row : rows) {
    row.resize(r.read_u64());
    for (std::string& field : row) field = r.read_string();
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
               harness.config_.mitigation, harness.metrics_) {
    if (!h_.config_.workspace) return;
    arena_gauge_ = &h_.metrics_.gauge("campaign.arena_high_water_bytes");
    if (!h_.config_.diff) return;
    // corr/resil replay the orig pass; observers follow the hook order
    // on each leaf (injector has nothing to replay on unarmed layers,
    // monitor observes, protection validates its clamp).
    diff_ = true;
    for (nn::InferenceWorkspace* ws : {&ws_corr_, &ws_resil_}) {
      ws->set_prefix_baseline(&ws_orig_);
      // Same-image packs run the orig pass at batch 1 under a K-row
      // corr/resil pass; every packed row is the same image, so the
      // broadcast-replay row-equality contract holds (DESIGN.md §12).
      ws->set_prefix_broadcast(true);
      ws->add_prefix_observer(&stack_.monitor());
      if (stack_.protection() != nullptr) ws->add_prefix_observer(stack_.protection());
    }
    diff_skipped_ = &h_.metrics_.counter("campaign.diff.layers_skipped");
    diff_hits_ = &h_.metrics_.counter("campaign.diff.prefix_hits");
    diff_misses_ = &h_.metrics_.counter("campaign.diff.prefix_misses");
  }

  /// Unit t = epoch * dataset_size + img runs image `img` under the
  /// fault group address_unit() assigns it.  The global index keeps
  /// group, slot and trace labels independent of which shard — or which
  /// process, for a resumed or fleet campaign — executes the unit.
  ///
  /// The given units run as one triple over a [count, C, H, W] tensor,
  /// each unit's addressed faults armed on its own batch slot
  /// (DESIGN.md §12).  Packs are strided by dataset_size, so a
  /// pack normally holds the SAME image under different epochs' fault
  /// groups — the fault-free pass then runs batch-1 and is shared by
  /// every slot (via the broadcast prefix replay when diff is on).
  /// Per-slot outputs are scored and serialized exactly as count
  /// one-unit packs would have been — same rows, same KPIs, same
  /// records, same counters.
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

    Injector& injector = stack_.injector();
    const TripleLogits logits =
        triple(same_image ? orig_input : packed, packed, count, [&] {
          std::vector<Fault> armed;
          for (std::size_t i = 0; i < count; ++i) {
            append_unit_faults(scenario, h_.wrapper_.fault_matrix(), addrs[i], i,
                               count, armed);
          }
          injector.set_inference_index(units[0]);
          injector.arm(std::move(armed));
        });
    const std::vector<std::vector<InjectionRecord>> records =
        injector.split_records_by_slot(units);

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
  std::vector<Fault> group_of(const UnitAddress& addr) const {
    return h_.wrapper_.fault_matrix().slice(
        addr.group_start, h_.wrapper_.get_scenario().max_faults_per_image);
  }

  /// Runs the coupled triple: the fault-free pass on `orig_images`, then
  /// the corrupted and hardened passes on `faulty_images` (`count` rows)
  /// under the fault set `arm` installs.  A same-image pack passes its
  /// batch-1 image as `orig_images`, so one shared fault-free pass
  /// serves every slot (the broadcast prefix replay, DESIGN.md §12);
  /// everywhere else the two hold the same images.  due_[s] holds slot
  /// s's DUE verdict, read right after the corrupted pass, before the
  /// hardened pass can add detections of its own.  A one-unit pack
  /// monitors whole-tensor: it is the reference every larger pack's
  /// per-slot verdicts must match.
  TripleLogits triple(const Tensor& orig_images, const Tensor& faulty_images,
                      std::size_t count, const std::function<void()>& arm) {
    Injector& injector = stack_.injector();
    ModelMonitor& monitor = stack_.monitor();
    Protection* protection = stack_.protection();
    TripleLogits out;
    injector.disarm();
    if (protection != nullptr) protection->set_enabled(false);
    // The fault-free pass observes whole-tensor — a same-image pack runs
    // it batch-1; per-slot monitoring only matters for the armed passes.
    monitor.set_slot_count(0);
    if (h_.config_.workspace) {
      out.orig = &ws_orig_.run(model_, orig_images);
    } else {
      orig_hold_ = model_.forward(orig_images);
      out.orig = &orig_hold_;
    }

    arm();
    const std::size_t slots = count > 1 ? count : 0;
    monitor.set_slot_count(slots);
    monitor.reset();
    // The armed set is fixed for both remaining passes, so one boundary
    // serves corr and resil alike; 0 (diff off or nothing replayable)
    // makes forward_from a plain full recompute.
    const std::size_t boundary =
        diff_ ? diff_prefix_boundary(injector, ws_orig_) : 0;
    out.corr = armed_pass(faulty_images, boundary, ws_corr_, corr_hold_);
    due_.assign(count, 0);
    for (std::size_t s = 0; s < count; ++s) {
      due_[s] = (slots == 0 ? monitor.due_detected() : monitor.slot_due(s)) ? 1 : 0;
    }
    if (protection != nullptr) {
      protection->set_enabled(true);
      out.resil = armed_pass(faulty_images, boundary, ws_resil_, resil_hold_);
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

  /// One armed pass: through `ws`, replaying the fault-free prefix up to
  /// `boundary`, or (workspace off) the allocating forward into `hold`.
  const Tensor* armed_pass(const Tensor& images, std::size_t boundary,
                           nn::InferenceWorkspace& ws, Tensor& hold) {
    if (!h_.config_.workspace) {
      hold = model_.forward(images);
      return &hold;
    }
    const Tensor* out = &model_.forward_from(boundary, images, ws);
    if (diff_) {
      const std::size_t reused = ws.prefix_reused_last_run();
      diff_skipped_->add(reused);
      (reused > 0 ? diff_hits_ : diff_misses_)->add();
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
  std::vector<std::uint8_t> due_;
  util::Gauge* arena_gauge_ = nullptr;
  bool diff_ = false;
  util::Counter* diff_skipped_ = nullptr;  // campaign.diff.layers_skipped
  util::Counter* diff_hits_ = nullptr;     // passes that replayed >= 1 leaf
  util::Counter* diff_misses_ = nullptr;   // passes that fully recomputed
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
