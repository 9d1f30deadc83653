#include "core/test_obj_det.h"

#include <algorithm>
#include <filesystem>

#include "nn/workspace.h"
#include "util/hash.h"

namespace alfi::core {

namespace {

Tensor probe_input(const data::DetectionDataset& dataset) {
  const data::DetectionSample sample = dataset.get(0);
  return stack_images({&sample.image});
}

/// COCO results format: flat list of {image_id, category_id, bbox, score}.
io::Json detections_to_coco(const std::vector<std::int64_t>& image_ids,
                            const std::vector<std::vector<models::Detection>>& dets) {
  io::Json arr = io::Json::array();
  for (std::size_t img = 0; img < dets.size(); ++img) {
    for (const models::Detection& det : dets[img]) {
      io::Json entry = io::Json::object();
      entry["image_id"] = io::Json(image_ids[img]);
      entry["category_id"] = io::Json(det.category);
      io::Json bbox = io::Json::array();
      bbox.push_back(io::Json(static_cast<double>(det.box.x)));
      bbox.push_back(io::Json(static_cast<double>(det.box.y)));
      bbox.push_back(io::Json(static_cast<double>(det.box.w)));
      bbox.push_back(io::Json(static_cast<double>(det.box.h)));
      entry["bbox"] = bbox;
      entry["score"] = io::Json(static_cast<double>(det.score));
      arr.push_back(entry);
    }
  }
  return arr;
}

void write_detections(io::ByteWriter& w,
                      const std::vector<models::Detection>& dets) {
  w.write_u64(dets.size());
  for (const models::Detection& det : dets) {
    w.write_f32(det.box.x);
    w.write_f32(det.box.y);
    w.write_f32(det.box.w);
    w.write_f32(det.box.h);
    w.write_u64(det.category);
    w.write_f32(det.score);
  }
}

std::vector<models::Detection> read_detections(io::ByteReader& r) {
  std::vector<models::Detection> dets(r.read_u64());
  for (models::Detection& det : dets) {
    det.box.x = r.read_f32();
    det.box.y = r.read_f32();
    det.box.w = r.read_f32();
    det.box.h = r.read_f32();
    det.category = static_cast<std::size_t>(r.read_u64());
    det.score = r.read_f32();
  }
  return dets;
}

}  // namespace

/// Per-worker unit engine for the detection campaign.  A shared runner
/// drives the wrapped original detector (single-shard serial path);
/// otherwise it owns a Detector::clone() replica with its own injection
/// stack.
class ObjDetUnitRunner final : public CampaignUnitRunner {
 public:
  ObjDetUnitRunner(TestErrorModelsObjDet& harness, bool shared_model)
      : h_(harness),
        replica_(shared_model ? nullptr : harness.detector_.clone()),
        detector_(replica_ ? replica_.get() : &harness.detector_),
        stack_(harness.wrapper_, replica_ ? &replica_->network() : nullptr,
               probe_input(harness.dataset_),
               harness.store_ ? &*harness.store_ : nullptr, harness.bounds_,
               harness.config_.mitigation, harness.metrics_),
        injector_(stack_.injector()),
        monitor_(stack_.monitor()),
        protection_(stack_.protection()) {
    if (!h_.config_.workspace) return;
    // One workspace suffices: detect() decodes each pass's output into
    // Detection vectors before the next pass overwrites the slots.
    detector_->set_workspace(&ws_);
    arena_gauge_ = &h_.metrics_.gauge("campaign.arena_high_water_bytes");
    if (!h_.config_.diff) return;
    // Self-baseline: a differential pass only overwrites suffix slots,
    // so prefix slots keep their fault-free values from this unit's
    // pass 1 — valid to replay for passes 2 and 3.
    diff_ = true;
    ws_.set_prefix_baseline(&ws_);
    ws_.add_prefix_observer(&monitor_);
    if (protection_ != nullptr) ws_.add_prefix_observer(protection_);
    diff_skipped_ = &h_.metrics_.counter("campaign.diff.layers_skipped");
    diff_hits_ = &h_.metrics_.counter("campaign.diff.prefix_hits");
    diff_misses_ = &h_.metrics_.counter("campaign.diff.prefix_misses");
  }

  ~ObjDetUnitRunner() override { detector_->set_workspace(nullptr); }

  /// The given units run as one three-pass sequence over a
  /// [count, C, H, W] tensor, each unit's addressed faults armed on its
  /// own batch slot (DESIGN.md §12; a weight fault arms as drawn, and
  /// max_unit_pack() keeps it out of multi-unit packs — weights are
  /// shared across slots).  detect() returns per-slot detection lists,
  /// so unpacking is direct; verdicts, payloads, records and counters
  /// match count one-unit packs.
  std::vector<std::string> run_unit_pack(
      const std::vector<std::size_t>& units) override {
    const std::size_t count = units.size();
    const Scenario& scenario = h_.wrapper_.get_scenario();

    std::vector<UnitAddress> addrs(count);
    std::vector<data::DetectionSample> samples;
    samples.reserve(count);
    std::vector<const Tensor*> images(count);
    for (std::size_t i = 0; i < count; ++i) {
      addrs[i] = address_unit(scenario, units[i]);
      samples.push_back(h_.dataset_.get(addrs[i].img));
      images[i] = &samples[i].image;  // reserved: no reallocation
    }
    const Tensor packed = stack_images(images);

    const auto arm = [&] {
      injector_.set_inference_index(units[0]);
      std::vector<Fault> armed;
      for (std::size_t i = 0; i < count; ++i) {
        append_unit_faults(scenario, h_.wrapper_.fault_matrix(), addrs[i], i, count,
                           armed);
      }
      injector_.arm(std::move(armed));
    };

    // Per-slot monitoring for a multi-unit pack; a one-unit pack
    // monitors whole-tensor, so a layer whose dim 0 is not the batch
    // (FrcnnLite's proposal head) stays checkable.
    const std::size_t slots = count > 1 ? count : 0;
    monitor_.set_slot_count(slots);

    // ---- pass 1: fault-free -------------------------------------------------
    injector_.disarm();
    if (protection_) protection_->set_enabled(false);
    auto orig = detector_->detect(packed, h_.config_.conf_threshold);

    // ---- pass 2: faulty -----------------------------------------------------
    arm();
    monitor_.reset();
    // Both remaining passes arm the identical fault group, so one
    // boundary serves pass 2 and pass 3 — which also guarantees pass 3
    // never replays a slot pass 2 overwrote.
    std::size_t boundary = 0;
    if (diff_) boundary = diff_prefix_boundary(injector_, ws_);
    const auto note_diff = [this] {
      if (!diff_) return;
      const std::size_t reused = ws_.prefix_reused_last_run();
      diff_skipped_->add(reused);
      (reused > 0 ? diff_hits_ : diff_misses_)->add();
    };
    ws_.set_prefix_boundary(boundary);
    auto corr = detector_->detect(packed, h_.config_.conf_threshold);
    note_diff();
    // Per-slot DUE verdicts, read after the faulty pass, before the
    // hardened one.
    std::vector<std::uint8_t> due(count, 0);
    for (std::size_t i = 0; i < count; ++i) {
      due[i] = (slots == 0 ? monitor_.due_detected() : monitor_.slot_due(i)) ? 1 : 0;
    }

    // ---- pass 3: hardened ---------------------------------------------------
    std::vector<std::vector<models::Detection>> resil;
    if (protection_) {
      injector_.disarm();
      arm();
      protection_->set_enabled(true);
      ws_.set_prefix_boundary(boundary);
      resil = detector_->detect(packed, h_.config_.conf_threshold);
      note_diff();
      protection_->set_enabled(false);
    }
    injector_.disarm();
    monitor_.set_slot_count(0);
    if (arena_gauge_ != nullptr) {
      arena_gauge_->set(static_cast<double>(ws_.high_water_bytes()));
    }

    const std::vector<std::vector<InjectionRecord>> per_unit_records =
        injector_.split_records_by_slot(units);

    // ---- per-unit verdicts + payloads ---------------------------------------
    std::vector<std::string> payloads;
    payloads.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const bool unit_due = due[i] != 0;
      const bool sde = !unit_due && detections_differ(orig[i], corr[i]);
      const bool resil_sde =
          protection_ && !unit_due && detections_differ(orig[i], resil[i]);

      io::ByteWriter w;
      w.write_u8(unit_due ? 1 : 0);
      w.write_u8(sde ? 1 : 0);
      w.write_u8(resil_sde ? 1 : 0);
      // mAP is evaluated over one pass of the dataset, so detections only
      // ride along for epoch-0 units.
      w.write_u8(addrs[i].epoch == 0 ? 1 : 0);
      if (addrs[i].epoch == 0) {
        w.write_i64(samples[i].meta.image_id);
        write_detections(w, orig[i]);
        write_detections(w, corr[i]);
        w.write_u8(protection_ ? 1 : 0);
        if (protection_) write_detections(w, resil[i]);
      }
      w.write_u64(per_unit_records[i].size());
      for (const InjectionRecord& record : per_unit_records[i]) {
        write_record_bytes(w, record);
      }
      payloads.push_back(w.take());
    }
    return payloads;
  }

 private:
  TestErrorModelsObjDet& h_;
  std::unique_ptr<models::Detector> replica_;  // null when sharing the original
  models::Detector* detector_;
  UnitInjectionStack stack_;
  Injector& injector_;
  ModelMonitor& monitor_;
  Protection* protection_;  // null without mitigation
  nn::InferenceWorkspace ws_;
  util::Gauge* arena_gauge_ = nullptr;
  bool diff_ = false;
  util::Counter* diff_skipped_ = nullptr;
  util::Counter* diff_hits_ = nullptr;
  util::Counter* diff_misses_ = nullptr;
};

TestErrorModelsObjDet::TestErrorModelsObjDet(models::Detector& detector,
                                             const data::DetectionDataset& dataset,
                                             Scenario scenario,
                                             ObjDetCampaignConfig config)
    : detector_(detector),
      dataset_(dataset),
      config_(std::move(config)),
      wrapper_(detector.network(), std::move(scenario), probe_input(dataset)) {
  ALFI_CHECK(wrapper_.get_scenario().dataset_size <= dataset.size(),
             "scenario dataset_size exceeds the dataset");
  if (wrapper_.get_scenario().duration != FaultDuration::kTransient) {
    throw ConfigError(
        "the coupled campaign harness requires transient duration; "
        "use inj_policy per_epoch to model persistent faults");
  }
  if (!config_.fault_file.empty()) wrapper_.load_fault_matrix(config_.fault_file);
}

std::size_t TestErrorModelsObjDet::unit_count() const {
  const Scenario& scenario = wrapper_.get_scenario();
  return scenario.dataset_size * scenario.num_runs;
}

std::uint64_t TestErrorModelsObjDet::fingerprint() const {
  io::ByteWriter extra;
  extra.write_string(config_.mitigation ? to_string(*config_.mitigation)
                                        : "none");
  extra.write_f32(config_.conf_threshold);
  return fnv1a64(extra.bytes(),
                 campaign_fingerprint(wrapper_.get_scenario(),
                                      wrapper_.fault_matrix()));
}

void TestErrorModelsObjDet::prepare() {
  const Scenario& scenario = wrapper_.get_scenario();
  const bool write_outputs = !config_.output_dir.empty();

  resolved_backend_ = prepare_inference(wrapper_, store_);

  ivmod_ = {};
  ivmod_.has_resil = config_.mitigation.has_value();
  image_ids_.clear();
  ground_truth_.clear();
  orig_all_.clear();
  corr_all_.clear();
  resil_all_.clear();
  trace_.clear();
  result_ = {};

  if (write_outputs) {
    std::filesystem::create_directories(config_.output_dir);
    const std::string base = config_.output_dir + "/" + config_.model_name;

    result_.ground_truth_json = base + "_ground_truth.json";
    io::write_json_file(result_.ground_truth_json, data::coco_ground_truth(dataset_));

    result_.scenario_yml = base + "_scenario.yml";
    io::Json meta = scenario.to_yaml();
    meta["meta"]["model"] = io::Json(config_.model_name);
    meta["meta"]["dataset"] = io::Json(dataset_.name());
    meta["meta"]["mitigation"] =
        io::Json(config_.mitigation ? to_string(*config_.mitigation) : "none");
    io::write_yaml_file(result_.scenario_yml, meta);

    result_.fault_bin = base + "_faults.bin";
    wrapper_.save_fault_matrix(result_.fault_bin);
  }

  // Mitigation: profile bounds on fault-free calibration images, once,
  // up front — every worker's Protection shares the same bounds.
  bounds_ = {};
  if (config_.mitigation) {
    std::vector<Tensor> calibration;
    const std::size_t count = std::min(config_.calibration_images, dataset_.size());
    ALFI_CHECK(count > 0, "no calibration images available");
    for (std::size_t i = 0; i < count; ++i) {
      const data::DetectionSample sample = dataset_.get(i);
      calibration.push_back(stack_images({&sample.image}));
    }
    bounds_ = profile_activation_ranges(detector_.network(), calibration);
  }
}

std::unique_ptr<CampaignUnitRunner> TestErrorModelsObjDet::make_unit_runner(
    bool shared_model) {
  return std::make_unique<ObjDetUnitRunner>(*this, shared_model);
}

std::size_t TestErrorModelsObjDet::max_unit_pack() const {
  return detector_.packable() ? unit_pack_limit(wrapper_.fault_matrix()) : 1;
}

std::vector<SteeringCellKey> TestErrorModelsObjDet::steering_cells() const {
  return unit_steering_cells(wrapper_.get_scenario(), wrapper_.fault_matrix(),
                             wrapper_.profile(), unit_count());
}

SteeringUnitOutcome TestErrorModelsObjDet::classify_unit(
    std::size_t, const std::string& payload) const {
  io::ByteReader r(payload);
  SteeringUnitOutcome outcome;
  outcome.due = r.read_u8() != 0;
  outcome.sdc = r.read_u8() != 0;
  r.read_u8();  // resil_sde
  if (r.read_u8() != 0) {  // epoch-0 detections ride along
    r.read_i64();          // image_id
    read_detections(r);    // orig
    read_detections(r);    // corr
    if (r.read_u8() != 0) read_detections(r);  // resil
  }
  // No injection record means the armed fault never landed on this
  // image; the unit carries no vulnerability evidence.
  outcome.skipped = r.read_u64() == 0;
  return outcome;
}

void TestErrorModelsObjDet::absorb_unit(std::size_t t, const std::string& payload) {
  const UnitAddress addr = address_unit(wrapper_.get_scenario(), t);
  io::ByteReader r(payload);

  const bool due = r.read_u8() != 0;
  const bool sde = r.read_u8() != 0;
  const bool resil_sde = r.read_u8() != 0;
  ++ivmod_.total;
  ivmod_.due_images += due ? 1 : 0;
  ivmod_.sde_images += sde ? 1 : 0;
  ivmod_.resil_sde_images += resil_sde ? 1 : 0;

  if (r.read_u8() != 0) {  // epoch-0 detections present
    image_ids_.push_back(r.read_i64());
    ground_truth_.push_back(dataset_.get(addr.img).annotations);
    orig_all_.push_back(read_detections(r));
    corr_all_.push_back(read_detections(r));
    if (r.read_u8() != 0) resil_all_.push_back(read_detections(r));
  }

  const std::uint64_t num_records = r.read_u64();
  for (std::uint64_t i = 0; i < num_records; ++i) {
    trace_.push_back(read_record_bytes(r));
  }
}

void TestErrorModelsObjDet::finalize() {
  const std::size_t num_classes = detector_.num_classes();
  result_.orig_map = evaluate_coco(ground_truth_, orig_all_, num_classes);
  result_.faulty_map = evaluate_coco(ground_truth_, corr_all_, num_classes);
  if (config_.mitigation) {
    result_.resil_map = evaluate_coco(ground_truth_, resil_all_, num_classes);
  }
  result_.ivmod = ivmod_;

  if (!config_.output_dir.empty()) {
    const std::string base = config_.output_dir + "/" + config_.model_name;
    result_.orig_json = base + "_orig_detections.json";
    io::write_json_file(result_.orig_json, detections_to_coco(image_ids_, orig_all_));
    result_.corr_json = base + "_corr_detections.json";
    io::write_json_file(result_.corr_json, detections_to_coco(image_ids_, corr_all_));
    if (config_.mitigation) {
      result_.resil_json = base + "_resil_detections.json";
      io::write_json_file(result_.resil_json,
                          detections_to_coco(image_ids_, resil_all_));
    }
    result_.trace_bin = base + "_trace.bin";
    save_injection_records(trace_, result_.trace_bin);
  }
}

ObjDetCampaignResult TestErrorModelsObjDet::run() {
  run_campaign_task(*this, config_, metrics_, resolved_backend_);
  result_.skipped_injections =
      metrics_.counter("injections.skipped_batch_slot").value();
  return result_;
}

}  // namespace alfi::core
