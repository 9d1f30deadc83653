// Batched-execution parity: a campaign run with --unit-batch K > 1
// (packing K units into one batched forward pass, DESIGN.md §12) must
// produce byte-identical artifacts to the classic unit-at-a-time run —
// results CSVs, trace/fault binaries, journals, KPIs and every counter
// except the `campaign.diff.*` bookkeeping family, which counts
// pass-level events and so legitimately shrinks as passes fuse.
// Covered axes: unit-batch 1/4/7, --jobs 1/4, both harnesses, with and
// without Ranger mitigation, with and without differential inference,
// same-image packs (the classification harness strides packs by
// dataset_size, sharing one fault-free pass per pack) and gather packs
// (single-epoch classification and object detection pack consecutive
// different-image units), plus short/uneven packs at shard boundaries.
// Weight-fault campaigns must silently clamp the pack to 1, and so must
// FrcnnLite, whose per-image proposal head mixes a pack's images; the
// multi-head RetinaLite packs.  Packing must also keep differential
// replay: a same-image pack replays at least 90% of the (row, leaf)
// pairs unit-at-a-time replays (campaign.diff.rows_skipped).
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>

#include "core/campaign.h"
#include "core/test_img_class.h"
#include "core/test_obj_det.h"
#include "data/synthetic.h"
#include "io/json.h"
#include "models/classification.h"
#include "models/train.h"
#include "models/yolo_lite.h"
#include "test_common.h"

namespace alfi::core {
namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Counter section of metrics.json minus the diff bookkeeping family:
/// those counters record per-pass events (prefix replays, layers
/// skipped), and a packed pass covering K units runs once where the
/// serial campaign runs K times.  Everything else must match exactly.
std::string comparable_counters(const std::string& metrics_path) {
  const io::Json counters = io::read_json_file(metrics_path).at("counters");
  io::Json filtered = io::Json::object();
  for (const auto& [key, value] : counters.as_object()) {
    if (key.starts_with("campaign.diff.")) continue;
    filtered.as_object()[key] = value;
  }
  return filtered.dump();
}

// ---- image classification ------------------------------------------------

struct ImgRun {
  ImgClassCampaignResult result;
  std::string counters_json;
  std::string journal_bytes;
  std::int64_t rows_skipped = 0;  // campaign.diff.rows_skipped
};

class BatchedIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesClassification(
        {.size = 32, .num_classes = 10, .seed = 17});
    model_ = models::make_mini_alexnet();
    Rng rng(17);
    nn::kaiming_init(*model_, rng);
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    model_.reset();
  }

  // 4 images x 6 epochs = 24 units, packed at stride 4 (same image,
  // different epochs' fault groups).  At unit-batch 4 and --jobs 1 the
  // last packs hold only 2 units; at --jobs 4 each 6-unit shard yields
  // packs of 2, 2, 1 and 1 — short packs and singleton fall-through in
  // one geometry.  num_runs = 1 (single epoch) flips the stride to 1,
  // exercising the different-image gather path instead.
  static Scenario scenario(FaultTarget target, std::size_t dataset_size = 4,
                           std::size_t num_runs = 6) {
    Scenario s;
    s.target = target;
    s.value_type = ValueType::kBitFlip;
    s.rnd_bit_range_lo = 20;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.dataset_size = dataset_size;
    s.num_runs = num_runs;
    s.max_faults_per_image = 2;
    s.batch_size = 8;
    s.rnd_seed = 4242;
    return s;
  }

  ImgRun run_campaign(std::size_t unit_batch, std::size_t jobs,
                      const std::string& dir, FaultTarget target,
                      std::optional<MitigationKind> mitigation, bool diff,
                      bool journal, std::size_t dataset_size = 4,
                      std::size_t num_runs = 6) {
    ImgClassCampaignConfig config;
    config.model_name = "alexnet";
    config.output_dir = dir;
    config.mitigation = mitigation;
    config.jobs = jobs;
    config.unit_batch = unit_batch;
    config.workspace = true;
    config.diff = diff;
    config.metrics_path = dir + "/metrics.json";
    if (journal) {
      config.checkpoint_dir = dir + "/ckpt";
    }
    TestErrorModelsImgClass harness(
        *model_, *dataset_, scenario(target, dataset_size, num_runs), config);
    ImgRun run;
    run.result = harness.run();
    run.counters_json = comparable_counters(config.metrics_path);
    const io::Json counters = io::read_json_file(config.metrics_path).at("counters");
    if (counters.contains("campaign.diff.rows_skipped")) {
      run.rows_skipped = counters.at("campaign.diff.rows_skipped").as_int();
    }
    if (journal) {
      run.journal_bytes =
          file_bytes(CampaignExecutor::journal_path(config.checkpoint_dir));
    }
    return run;
  }

  void expect_identical(const ImgRun& packed, const ImgRun& serial) {
    EXPECT_EQ(file_bytes(packed.result.results_csv),
              file_bytes(serial.result.results_csv));
    EXPECT_EQ(file_bytes(packed.result.fault_free_csv),
              file_bytes(serial.result.fault_free_csv));
    EXPECT_EQ(file_bytes(packed.result.fault_bin),
              file_bytes(serial.result.fault_bin));
    EXPECT_EQ(file_bytes(packed.result.trace_bin),
              file_bytes(serial.result.trace_bin));
    EXPECT_EQ(packed.counters_json, serial.counters_json);
    EXPECT_EQ(packed.journal_bytes, serial.journal_bytes);
    EXPECT_EQ(packed.result.kpis.total, serial.result.kpis.total);
    EXPECT_EQ(packed.result.kpis.sde, serial.result.kpis.sde);
    EXPECT_EQ(packed.result.kpis.due, serial.result.kpis.due);
    EXPECT_EQ(packed.result.kpis.orig_correct, serial.result.kpis.orig_correct);
    EXPECT_EQ(packed.result.kpis.faulty_correct,
              serial.result.kpis.faulty_correct);
    EXPECT_EQ(packed.result.kpis.resil_sde, serial.result.kpis.resil_sde);
    EXPECT_EQ(packed.result.skipped_injections,
              serial.result.skipped_injections);
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* BatchedIdentity::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> BatchedIdentity::model_;

TEST_F(BatchedIdentity, SerialPackedCampaignMatchesUnitAtATime) {
  test::TempDir packed_dir("batched_on1");
  test::TempDir serial_dir("batched_off1");
  const auto packed =
      run_campaign(4, 1, packed_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/true);
  const auto serial =
      run_campaign(1, 1, serial_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/true);
  EXPECT_EQ(packed.result.kpis.total, 24u);  // 4 images * 6 runs
  expect_identical(packed, serial);
}

TEST_F(BatchedIdentity, ShortFinalPackMatchesUnitAtATime) {
  // unit-batch 7 exceeds the 6 epochs a stride-4 pack can hold, so every
  // pack stops early at the unit range — the clamp must neither read
  // past the range nor disturb the journal frame order (strided packs
  // complete out of ascending order; the deferred absorb reorders them)
  // or the checkpoint cadence.
  test::TempDir packed_dir("batched_on7");
  test::TempDir serial_dir("batched_off7");
  const auto packed =
      run_campaign(7, 1, packed_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/true);
  const auto serial =
      run_campaign(1, 1, serial_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/true);
  expect_identical(packed, serial);
}

TEST_F(BatchedIdentity, SingleEpochGatherPackMatchesUnitAtATime) {
  // num_runs = 1 drops the pack stride to 1: packs gather consecutive
  // DIFFERENT images into one batched pass (no shared fault-free pass).
  test::TempDir packed_dir("batched_ong");
  test::TempDir serial_dir("batched_offg");
  const auto packed =
      run_campaign(4, 1, packed_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/true, /*dataset_size=*/12,
                   /*num_runs=*/1);
  const auto serial =
      run_campaign(1, 1, serial_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/true, /*dataset_size=*/12,
                   /*num_runs=*/1);
  expect_identical(packed, serial);
}

TEST_F(BatchedIdentity, ParallelPackedCampaignMatchesUnitAtATime) {
  test::TempDir packed_dir("batched_on4j");
  test::TempDir serial_dir("batched_off4j");
  const auto packed =
      run_campaign(4, 4, packed_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/false);
  const auto serial =
      run_campaign(1, 4, serial_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/false);
  expect_identical(packed, serial);
}

TEST_F(BatchedIdentity, PackedParallelMatchesSerialUnitAtATime) {
  // Cross axes: packed at --jobs 4 against unit-at-a-time at --jobs 1.
  // Each 6-unit shard truncates the stride-4 packs to sizes 2, 2, 1, 1,
  // so shard boundaries and singleton fall-through are both exercised.
  test::TempDir packed_dir("batched_on7x");
  test::TempDir serial_dir("batched_off1x");
  const auto packed =
      run_campaign(7, 4, packed_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/false);
  const auto serial =
      run_campaign(1, 1, serial_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/false);
  expect_identical(packed, serial);
}

TEST_F(BatchedIdentity, MitigatedPackedCampaignMatchesUnitAtATime) {
  // Ranger clamps elementwise, so a packed pass hardens each batch row
  // exactly as the serial pass hardened its single row.
  test::TempDir packed_dir("batched_onm");
  test::TempDir serial_dir("batched_offm");
  const auto packed =
      run_campaign(4, 1, packed_dir.str(), FaultTarget::kNeurons,
                   MitigationKind::kRanger, /*diff=*/true, /*journal=*/true);
  const auto serial =
      run_campaign(1, 1, serial_dir.str(), FaultTarget::kNeurons,
                   MitigationKind::kRanger, /*diff=*/true, /*journal=*/true);
  expect_identical(packed, serial);
}

TEST_F(BatchedIdentity, NoDiffPackedCampaignMatchesUnitAtATime) {
  // Packing composes with full recompute too (--no-diff --unit-batch K).
  test::TempDir packed_dir("batched_onnd");
  test::TempDir serial_dir("batched_offnd");
  const auto packed =
      run_campaign(4, 1, packed_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/false, /*journal=*/false);
  const auto serial =
      run_campaign(1, 1, serial_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/false, /*journal=*/false);
  expect_identical(packed, serial);
}

TEST_F(BatchedIdentity, RaggedPackReplaysNearlyAllUnitAtATimeRows) {
  // Each row of a same-image pack replays the fault-free prefix up to
  // its own unit's earliest armed leaf (DESIGN.md §12), so an 8-unit
  // pack keeps at least 90% of the (row, leaf) pairs unit-at-a-time
  // replays; a pack-wide boundary would replay almost none.
  test::TempDir packed_dir("batched_on8r");
  test::TempDir serial_dir("batched_off8r");
  const auto packed =
      run_campaign(8, 1, packed_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/false, /*dataset_size=*/4,
                   /*num_runs=*/8);
  const auto serial =
      run_campaign(1, 1, serial_dir.str(), FaultTarget::kNeurons, std::nullopt,
                   /*diff=*/true, /*journal=*/false, /*dataset_size=*/4,
                   /*num_runs=*/8);
  expect_identical(packed, serial);
  EXPECT_GT(serial.rows_skipped, 0);
  EXPECT_GE(packed.rows_skipped * 10, serial.rows_skipped * 9)
      << "packed " << packed.rows_skipped << " vs unit-at-a-time "
      << serial.rows_skipped;
}

TEST_F(BatchedIdentity, WeightCampaignClampsPackToUnitAtATime) {
  // Weights are shared across every row of a packed pass, so a weight
  // fault cannot be scoped to one slot: max_unit_pack() forces the
  // executor back to unit-at-a-time and the run stays identical.
  test::TempDir packed_dir("batched_onw");
  test::TempDir serial_dir("batched_offw");
  const auto packed =
      run_campaign(4, 1, packed_dir.str(), FaultTarget::kWeights, std::nullopt,
                   /*diff=*/true, /*journal=*/true);
  const auto serial =
      run_campaign(1, 1, serial_dir.str(), FaultTarget::kWeights, std::nullopt,
                   /*diff=*/true, /*journal=*/true);
  expect_identical(packed, serial);
}

// ---- object detection ----------------------------------------------------

class ObjDetBatchedIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesDetection(
        {.size = 16, .min_objects = 1, .max_objects = 2, .seed = 41});
    detector_ = new models::YoloLite(models::GridSpec{6, 48, 48}, 3, 3);
    models::TrainConfig config;
    config.epochs = 8;  // determinism test: accuracy is irrelevant
    config.batch_size = 8;
    config.learning_rate = 0.01f;
    models::train_detector(*detector_, *dataset_, config);
  }

  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static Scenario scenario(InjectionPolicy policy) {
    Scenario s;
    s.target = FaultTarget::kNeurons;
    s.inj_policy = policy;
    s.rnd_bit_range_lo = 24;
    s.rnd_bit_range_hi = 30;
    s.dataset_size = 12;
    s.batch_size = 4;
    s.max_faults_per_image = 1;
    s.rnd_seed = 55;
    return s;
  }

  struct DetRun {
    ObjDetCampaignResult result;
    std::string counters_json;
  };

  static DetRun run_campaign(std::size_t unit_batch, std::size_t jobs,
                             const std::string& dir, InjectionPolicy policy,
                             std::optional<MitigationKind> mitigation) {
    ObjDetCampaignConfig config;
    config.model_name = "yolo";
    config.output_dir = dir;
    config.jobs = jobs;
    config.unit_batch = unit_batch;
    config.workspace = true;
    config.mitigation = mitigation;
    config.metrics_path = dir + "/metrics.json";
    TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(policy),
                                  config);
    DetRun run;
    run.result = harness.run();
    run.counters_json = comparable_counters(config.metrics_path);
    return run;
  }

  static void expect_identical(const DetRun& packed, const DetRun& serial) {
    EXPECT_EQ(file_bytes(packed.result.orig_json),
              file_bytes(serial.result.orig_json));
    EXPECT_EQ(file_bytes(packed.result.corr_json),
              file_bytes(serial.result.corr_json));
    EXPECT_EQ(file_bytes(packed.result.trace_bin),
              file_bytes(serial.result.trace_bin));
    EXPECT_EQ(packed.counters_json, serial.counters_json);
    EXPECT_EQ(packed.result.ivmod.total, serial.result.ivmod.total);
    EXPECT_EQ(packed.result.ivmod.sde_images, serial.result.ivmod.sde_images);
    EXPECT_EQ(packed.result.ivmod.due_images, serial.result.ivmod.due_images);
    EXPECT_EQ(packed.result.orig_map.ap_50, serial.result.orig_map.ap_50);
    EXPECT_EQ(packed.result.faulty_map.ap_50, serial.result.faulty_map.ap_50);
    EXPECT_EQ(packed.result.skipped_injections,
              serial.result.skipped_injections);
  }

  static data::SyntheticShapesDetection* dataset_;
  static models::YoloLite* detector_;
};

data::SyntheticShapesDetection* ObjDetBatchedIdentity::dataset_ = nullptr;
models::YoloLite* ObjDetBatchedIdentity::detector_ = nullptr;

TEST_F(ObjDetBatchedIdentity, SerialPackedDetectionMatchesUnitAtATime) {
  test::TempDir packed_dir("batched_det_on");
  test::TempDir serial_dir("batched_det_off");
  const auto packed = run_campaign(4, 1, packed_dir.str(),
                                   InjectionPolicy::kPerImage, std::nullopt);
  const auto serial = run_campaign(1, 1, serial_dir.str(),
                                   InjectionPolicy::kPerImage, std::nullopt);
  expect_identical(packed, serial);
}

TEST_F(ObjDetBatchedIdentity, PackedPerBatchDetectionMatchesUnitAtATime) {
  // per_batch units within one dataset batch share a fault group whose
  // slots address images by occupancy remap; packing such units must
  // not change which image each fault lands on.
  test::TempDir packed_dir("batched_det_pb");
  test::TempDir serial_dir("batched_det_pbs");
  const auto packed = run_campaign(4, 1, packed_dir.str(),
                                   InjectionPolicy::kPerBatch, std::nullopt);
  const auto serial = run_campaign(1, 1, serial_dir.str(),
                                   InjectionPolicy::kPerBatch, std::nullopt);
  expect_identical(packed, serial);
}

TEST_F(ObjDetBatchedIdentity, ParallelMitigatedPackedDetectionMatchesUnitAtATime) {
  test::TempDir packed_dir("batched_det_on7");
  test::TempDir serial_dir("batched_det_off7");
  const auto packed = run_campaign(
      7, 4, packed_dir.str(), InjectionPolicy::kPerImage, MitigationKind::kRanger);
  const auto serial = run_campaign(
      1, 4, serial_dir.str(), InjectionPolicy::kPerImage, MitigationKind::kRanger);
  expect_identical(packed, serial);
}

// ---- multi-head and two-stage detectors -----------------------------------

/// RetinaLite (separate class and box heads) and FrcnnLite (a proposal
/// head run per image) over unit-batch 1/4 x jobs 1/2 x diff on/off,
/// with neuron faults on their heads.  FrcnnLite is not packable(): its
/// head sees a [proposals, 64] tensor per image, so a fault armed on
/// pack slot i would corrupt proposal i of every image in the pack —
/// its packs clamp to one unit.  The jobs-2 runs clone both detectors
/// and every run goes through their workspace paths.
class DetectorPackIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesDetection(
        {.size = 16, .min_objects = 1, .max_objects = 2, .seed = 43});
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::unique_ptr<models::Detector> trained(const std::string& family) {
    auto detector = models::make_detector(family, models::GridSpec{6, 48, 48}, 3, 3);
    models::TrainConfig config;
    config.epochs = 6;  // determinism test: accuracy is irrelevant
    config.batch_size = 8;
    config.learning_rate = 0.01f;
    models::train_detector(*detector, *dataset_, config);
    return detector;
  }

  /// Exponent flips, large enough to change detections.  `kinds` empty
  /// = every layer kind.
  static Scenario scenario(std::vector<nn::LayerKind> kinds) {
    Scenario s;
    s.target = FaultTarget::kNeurons;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.rnd_bit_range_lo = 24;
    s.rnd_bit_range_hi = 30;
    s.layer_types = std::move(kinds);
    s.dataset_size = 12;
    s.num_runs = 1;
    s.max_faults_per_image = 1;
    s.rnd_seed = 3;
    return s;
  }

  struct DetRun {
    ObjDetCampaignResult result;
    std::string counters_json;
    std::size_t head_faults = 0;  ///< matrix faults on the head's layers
  };

  static DetRun run_campaign(models::Detector& detector, const Scenario& s,
                             std::size_t unit_batch, std::size_t jobs, bool diff,
                             const std::string& dir) {
    ObjDetCampaignConfig config;
    config.model_name = detector.name();
    config.output_dir = dir;
    config.jobs = jobs;
    config.unit_batch = unit_batch;
    config.diff = diff;
    config.conf_threshold = 0.05f;
    config.metrics_path = dir + "/metrics.json";
    TestErrorModelsObjDet harness(detector, *dataset_, s, config);
    DetRun run;
    run.result = harness.run();
    run.counters_json = comparable_counters(config.metrics_path);
    const ModelProfile& profile = harness.wrapper().profile();
    for (const Fault& fault : harness.wrapper().fault_matrix().faults()) {
      const std::string& path = profile.layer(static_cast<std::size_t>(fault.layer)).path;
      if (path.find("head") != std::string::npos) ++run.head_faults;
    }
    return run;
  }

  static void expect_grid_identical(models::Detector& detector, const Scenario& s) {
    test::TempDir ref_dir("det_pack_ref");
    const DetRun ref = run_campaign(detector, s, 1, 1, true, ref_dir.str());
    EXPECT_GT(ref.head_faults, 0u) << detector.name();
    EXPECT_GT(ref.result.ivmod.sde_images, 0u) << detector.name();
    for (const std::size_t unit_batch : {1u, 4u}) {
      for (const std::size_t jobs : {1u, 2u}) {
        for (const bool diff : {true, false}) {
          if (unit_batch == 1 && jobs == 1 && diff) continue;  // the reference
          SCOPED_TRACE(detector.name() + " unit_batch " + std::to_string(unit_batch) +
                       " jobs " + std::to_string(jobs) + (diff ? " diff" : " no-diff"));
          test::TempDir dir("det_pack");
          const DetRun run = run_campaign(detector, s, unit_batch, jobs, diff, dir.str());
          EXPECT_EQ(file_bytes(run.result.orig_json), file_bytes(ref.result.orig_json));
          EXPECT_EQ(file_bytes(run.result.corr_json), file_bytes(ref.result.corr_json));
          EXPECT_EQ(file_bytes(run.result.trace_bin), file_bytes(ref.result.trace_bin));
          EXPECT_EQ(run.counters_json, ref.counters_json);
          EXPECT_EQ(run.result.ivmod.sde_images, ref.result.ivmod.sde_images);
          EXPECT_EQ(run.result.ivmod.due_images, ref.result.ivmod.due_images);
          EXPECT_EQ(run.result.faulty_map.ap_50, ref.result.faulty_map.ap_50);
        }
      }
    }
  }

  static data::SyntheticShapesDetection* dataset_;
};

data::SyntheticShapesDetection* DetectorPackIdentity::dataset_ = nullptr;

TEST_F(DetectorPackIdentity, RetinaPacksMatchUnitAtATime) {
  const auto detector = trained("retina");
  expect_grid_identical(*detector, scenario({}));
}

TEST_F(DetectorPackIdentity, FrcnnPacksMatchUnitAtATime) {
  // Linear layers only: every fault lands in the proposal head.
  const auto detector = trained("frcnn");
  expect_grid_identical(*detector, scenario({nn::LayerKind::kLinear}));
}

}  // namespace
}  // namespace alfi::core
