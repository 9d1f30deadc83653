// TestErrorModelsObjDet — the high-level object-detection campaign
// harness (paper §V.B / §V.F.2, test_error_models_objdet.py and the
// Fig. 3 submodule).
//
// Produces the three output sets of §V.F.2:
//   a) ground truth + meta-files: COCO-format ground-truth JSON and the
//      effective scenario YAML,
//   b) binary fault files (matrix + post-run trace),
//   c) intermediate result JSONs (COCO results format) for the original,
//      corrupted and hardened model, plus mAP / IVMOD summaries.
//
// Images are evaluated one at a time so DUE (NaN/Inf) and IVMOD_SDE
// (changed detections) verdicts attribute exactly to one image and one
// fault group; per_batch fault groups are replayed by remapping each
// fault's batch slot onto the matching sequential image.
//
// Because every image is an independent inference, the whole campaign
// is unit-addressable for every injection policy: unit t maps to
// (epoch, image) and its fault group by closed-form arithmetic
// (address_unit, core/campaign_task.h — shared with the classification
// harness).  The harness therefore runs entirely through
// core::CampaignExecutor as a CampaignTask — gaining parallel --jobs
// (per-worker Detector::clone() replicas) and crash-safe
// checkpoint/resume for free.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/campaign_task.h"
#include "core/kpi.h"
#include "core/mitigation.h"
#include "core/monitor.h"
#include "core/wrapper.h"
#include "data/dataloader.h"
#include "nn/quantize.h"
#include "util/metrics.h"

namespace alfi::core {

struct ObjDetCampaignConfig : CampaignConfigBase {
  ObjDetCampaignConfig() { model_name = "detector"; }

  std::size_t calibration_images = 16;
  float conf_threshold = 0.4f;
};

struct ObjDetCampaignResult {
  IvmodKpis ivmod;
  /// Injector-level skip backstop (injections.skipped_batch_slot).
  /// Per-batch fault slots are remapped onto the actual batch occupancy
  /// before arming (slot % occupancy), so every drawn fault lands on a
  /// scored image and this stays 0 for campaign-generated matrices;
  /// hand-made per_image faults with a slot > 0 surface here.
  std::size_t skipped_injections = 0;
  CocoSummary orig_map;
  CocoSummary faulty_map;
  CocoSummary resil_map;  // valid only when mitigation was configured
  std::string ground_truth_json;
  std::string scenario_yml;
  std::string fault_bin;
  std::string trace_bin;
  std::string orig_json;
  std::string corr_json;
  std::string resil_json;
};

class ObjDetUnitRunner;

class TestErrorModelsObjDet final : public CampaignTask {
 public:
  TestErrorModelsObjDet(models::Detector& detector,
                        const data::DetectionDataset& dataset, Scenario scenario,
                        ObjDetCampaignConfig config);

  /// Runs the campaign — the paper's test_rand_ObjDet_SBFs_inj.
  ObjDetCampaignResult run();

  PtfiWrap& wrapper() { return wrapper_; }

  /// Campaign telemetry, populated during run().  Written to
  /// config.metrics_path (when set) and readable afterwards regardless.
  const util::MetricsRegistry& metrics() const { return metrics_; }

  // ---- CampaignTask ----------------------------------------------------------
  std::string task_kind() const override { return "objdet"; }
  const Scenario& task_scenario() const override { return wrapper_.get_scenario(); }
  const CampaignConfigBase& base_config() const override { return config_; }
  std::size_t unit_count() const override;
  std::uint64_t fingerprint() const override;
  void prepare() override;
  std::unique_ptr<CampaignUnitRunner> make_unit_runner(bool shared_model) override;
  /// Unbounded for neuron-fault campaigns (each unit's addressed faults
  /// arm on its own batch slot); 1 when any fault targets weights or the
  /// detector is not packable() (FrcnnLite's per-image proposal head).
  std::size_t max_unit_pack() const override;
  /// Unit t's (layer, bit, fault-type) stratum from its addressed
  /// group's first fault (unit_steering_cells).
  std::vector<SteeringCellKey> steering_cells() const override;
  /// IVMOD verdicts straight from the unit payload (due/sde flags and
  /// the trailing record count).
  SteeringUnitOutcome classify_unit(std::size_t t,
                                    const std::string& payload) const override;
  void absorb_unit(std::size_t t, const std::string& payload) override;
  void finalize() override;

 private:
  friend class ObjDetUnitRunner;

  models::Detector& detector_;
  const data::DetectionDataset& dataset_;
  ObjDetCampaignConfig config_;
  // Declared before wrapper_: the wrapper's injector reports restore
  // counts while being destroyed, so the registry must outlive it.
  util::MetricsRegistry metrics_;
  PtfiWrap wrapper_;

  // Campaign state between prepare() and finalize().
  RangeMap bounds_;
  /// Stored-weight representation of the primary network (stored
  /// numeric types only; prepare_inference builds it once).  Replica
  /// runners copy it bit-exact.
  std::optional<nn::StoredWeightStore> store_;
  std::string resolved_backend_;  ///< registry name of what actually ran
  IvmodKpis ivmod_;
  std::vector<std::int64_t> image_ids_;
  std::vector<std::vector<data::Annotation>> ground_truth_;
  std::vector<std::vector<models::Detection>> orig_all_, corr_all_, resil_all_;
  std::vector<InjectionRecord> trace_;
  ObjDetCampaignResult result_;
};

}  // namespace alfi::core
