// TestErrorModelsImgClass — the high-level classification campaign
// harness (paper §V.B, test_error_models_imgclass.py).
//
// Runs the tightly-coupled triple (original / fault-injected / hardened
// "resil" model) over a metadata-enriched dataset and produces the three
// output sets of §V.F.1:
//   a) meta-files: the effective scenario as YAML plus run metadata,
//   b) binary fault files: the pre-generated fault matrix and the
//      post-run corruption trace (original/corrupted values, flip
//      directions),
//   c) model outputs: per-image CSV with ground truth, top-K classes
//      and probabilities for all three models, fault locations, and
//      SDE/DUE verdicts; plus a separate fault-free CSV.
//
// "Tight coupling" means all three verdicts for one image come from the
// same input tensor and the same armed fault set, so effects can be
// analyzed "at a granular level of a single fault location and input
// data point" (paper §I).
//
// Every injection policy runs through core::CampaignExecutor (or the
// fleet) as a CampaignTask: the executor owns sharding, journaling,
// checkpoint/resume and steering; this class contributes the unit
// computation and the ordered merge.  A unit is one image under the
// fault group address_unit() assigns it — its own group (per_image),
// its batch's (per_batch) or its epoch's (per_epoch) — and its DUE
// verdict comes from that image's own monitor.
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

struct ImgClassCampaignConfig : CampaignConfigBase {
  /// Batches of calibration data for range profiling (defaults to the
  /// first few dataset batches when empty).
  std::size_t calibration_batches = 4;
  std::size_t top_k = 5;
};

struct ImgClassCampaignResult {
  ClassificationKpis kpis;
  /// Injector-level skip backstop (injections.skipped_batch_slot).
  /// Campaign-generated per-batch faults are remapped onto the actual
  /// batch occupancy before arming (slot % occupancy), so this stays 0
  /// for generated matrices; loaded fault files hand-crafted with
  /// slots > 0 on per_image campaigns still surface here.
  std::size_t skipped_injections = 0;
  std::string results_csv;     // per-image faulty-run results ("" if not written)
  std::string fault_free_csv;  // fault-free outputs
  std::string scenario_yml;    // effective scenario meta-file
  std::string fault_bin;       // pre-generated fault matrix
  std::string trace_bin;       // post-run injection records
};

class ImgClassUnitRunner;

class TestErrorModelsImgClass final : public CampaignTask {
 public:
  TestErrorModelsImgClass(nn::Module& model,
                          const data::ClassificationDataset& dataset,
                          Scenario scenario, ImgClassCampaignConfig config);

  /// Runs the complete campaign (num_runs epochs over dataset_size
  /// images) and writes all output sets.
  ImgClassCampaignResult run();

  PtfiWrap& wrapper() { return wrapper_; }

  /// Campaign telemetry, populated during run().  Written to
  /// config.metrics_path (when set) and readable afterwards regardless.
  const util::MetricsRegistry& metrics() const { return metrics_; }

  // ---- CampaignTask ----------------------------------------------------------
  std::string task_kind() const override { return "imgclass"; }
  const Scenario& task_scenario() const override { return wrapper_.get_scenario(); }
  const CampaignConfigBase& base_config() const override { return config_; }
  std::size_t unit_count() const override;
  std::uint64_t fingerprint() const override;
  void prepare() override;
  std::unique_ptr<CampaignUnitRunner> make_unit_runner(bool shared_model) override;
  /// Unbounded for neuron-fault campaigns (each unit's group arms on its
  /// own batch slot); 1 when any fault targets weights — weights are
  /// shared across a packed pass, so those campaigns stay unit-at-a-time.
  std::size_t max_unit_pack() const override;
  /// dataset_size when the scenario runs multiple epochs: a pack then
  /// holds the SAME image under different epochs' fault groups, so the
  /// runner computes the fault-free pass once per pack (DESIGN.md §12).
  std::size_t unit_pack_stride() const override;
  /// Unit t's (layer, bit, fault-type) stratum, from its addressed
  /// group's first fault (unit_steering_cells).
  std::vector<SteeringCellKey> steering_cells() const override;
  /// SDC/DUE/skip verdict straight from the unit payload's KPI counters
  /// and record count.
  SteeringUnitOutcome classify_unit(std::size_t t,
                                    const std::string& payload) const override;
  void absorb_unit(std::size_t t, const std::string& payload) override;
  void finalize() override;

 private:
  friend class ImgClassUnitRunner;

  nn::Module& model_;
  const data::ClassificationDataset& dataset_;
  ImgClassCampaignConfig config_;
  // Declared before wrapper_: the wrapper's injector reports restore
  // counts while being destroyed, so the registry must outlive it.
  util::MetricsRegistry metrics_;
  PtfiWrap wrapper_;

  // Campaign state between prepare() and finalize().
  RangeMap bounds_;  ///< mitigation calibration, shared by all workers
  /// Stored-weight representation of the primary model (stored numeric
  /// types only; prepare_inference builds it once).  Replica runners
  /// copy it bit-exact (StoredWeightStore replica ctor).
  std::optional<nn::StoredWeightStore> store_;
  std::string resolved_backend_;  ///< registry name of what actually ran
  std::vector<std::string> header_;
  std::vector<std::string> ff_header_;
  ClassificationKpis kpis_;
  std::vector<std::vector<std::string>> result_rows_;
  std::vector<std::vector<std::string>> fault_free_rows_;
  std::vector<InjectionRecord> trace_;
  ImgClassCampaignResult result_;
};

}  // namespace alfi::core
