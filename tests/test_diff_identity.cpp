// Differential-inference parity: a campaign run with prefix reuse
// enabled (the workspace default) must produce byte-identical artifacts
// to the same run with --no-diff — results CSVs, trace/fault binaries,
// journals, KPIs and every counter except the `campaign.diff.*`
// bookkeeping family, which intentionally exists only on the diff path
// (DESIGN.md §11).  Covered axes: serial and parallel executors, both
// harnesses, with and without Ranger mitigation.
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

/// Counter section of metrics.json with the diff-only bookkeeping
/// removed, plus the skip counter itself so tests can assert the diff
/// path actually engaged (identity alone would also hold for a diff
/// implementation that never skipped anything), and the fault-free
/// cache's hits, which skip leaves as well.
struct CounterView {
  std::string comparable_json;
  std::int64_t layers_skipped = 0;
  std::int64_t rows_skipped = 0;
  std::int64_t golden_hits = 0;
};

CounterView read_counters(const std::string& metrics_path) {
  CounterView view;
  const io::Json counters = io::read_json_file(metrics_path).at("counters");
  io::Json filtered = io::Json::object();
  for (const auto& [key, value] : counters.as_object()) {
    if (key == "campaign.diff.layers_skipped") view.layers_skipped = value.as_int();
    if (key == "campaign.diff.rows_skipped") view.rows_skipped = value.as_int();
    if (key == "campaign.diff.golden_hits") view.golden_hits = value.as_int();
    if (key.starts_with("campaign.diff.")) continue;
    filtered.as_object()[key] = value;
  }
  view.comparable_json = filtered.dump();
  return view;
}

// ---- image classification ------------------------------------------------

struct ImgRun {
  ImgClassCampaignResult result;
  CounterView counters;
  std::string journal_bytes;
};

class DiffIdentity : public ::testing::Test {
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

  static Scenario scenario(FaultTarget target, std::size_t num_runs) {
    Scenario s;
    s.target = target;
    s.value_type = ValueType::kBitFlip;
    s.rnd_bit_range_lo = 20;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.dataset_size = 12;
    s.num_runs = num_runs;
    s.max_faults_per_image = 2;
    s.batch_size = 8;
    s.rnd_seed = 4242;
    return s;
  }

  ImgRun run_campaign(bool diff, std::size_t jobs, const std::string& dir,
                      FaultTarget target,
                      std::optional<MitigationKind> mitigation, bool journal,
                      std::size_t num_runs = 2) {
    ImgClassCampaignConfig config;
    config.model_name = "alexnet";
    config.output_dir = dir;
    config.mitigation = mitigation;
    config.jobs = jobs;
    config.workspace = true;  // diff requires the workspace path
    config.diff = diff;
    config.metrics_path = dir + "/metrics.json";
    if (journal) {
      config.checkpoint_dir = dir + "/ckpt";
    }
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(target, num_runs),
                                    config);
    ImgRun run;
    run.result = harness.run();
    run.counters = read_counters(config.metrics_path);
    if (journal) {
      run.journal_bytes =
          file_bytes(CampaignExecutor::journal_path(config.checkpoint_dir));
    }
    return run;
  }

  void expect_identical(const ImgRun& diff, const ImgRun& full) {
    EXPECT_EQ(file_bytes(diff.result.results_csv),
              file_bytes(full.result.results_csv));
    EXPECT_EQ(file_bytes(diff.result.fault_free_csv),
              file_bytes(full.result.fault_free_csv));
    EXPECT_EQ(file_bytes(diff.result.fault_bin),
              file_bytes(full.result.fault_bin));
    EXPECT_EQ(file_bytes(diff.result.trace_bin),
              file_bytes(full.result.trace_bin));
    EXPECT_EQ(diff.counters.comparable_json, full.counters.comparable_json);
    EXPECT_EQ(diff.journal_bytes, full.journal_bytes);
    EXPECT_EQ(diff.result.kpis.total, full.result.kpis.total);
    EXPECT_EQ(diff.result.kpis.sde, full.result.kpis.sde);
    EXPECT_EQ(diff.result.kpis.due, full.result.kpis.due);
    EXPECT_EQ(diff.result.kpis.orig_correct, full.result.kpis.orig_correct);
    EXPECT_EQ(diff.result.kpis.faulty_correct, full.result.kpis.faulty_correct);
    EXPECT_EQ(diff.result.kpis.resil_sde, full.result.kpis.resil_sde);
    // The diff run must have actually replayed prefixes; the full
    // recompute must not have.
    EXPECT_GT(diff.counters.layers_skipped, 0);
    EXPECT_EQ(full.counters.layers_skipped, 0);
  }

  /// A serial run serves its second epoch from the fault-free cache,
  /// whose hits count skipped leaves too, so leaf replay is checked on
  /// its own: one epoch caches nothing (an image's last epoch inserts
  /// no entry), so every leaf it skips was replayed.
  void expect_leaf_replay(FaultTarget target, std::optional<MitigationKind> mitigation) {
    test::TempDir dir("diffid_replay");
    const auto run = run_campaign(true, 1, dir.str(), target, mitigation,
                                  /*journal=*/false, /*num_runs=*/1);
    EXPECT_EQ(run.counters.golden_hits, 0);
    EXPECT_GT(run.counters.layers_skipped, 0);
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* DiffIdentity::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> DiffIdentity::model_;

TEST_F(DiffIdentity, SerialNeuronCampaignMatchesFullRecompute) {
  test::TempDir diff_dir("diffid_on1");
  test::TempDir full_dir("diffid_off1");
  const auto diff = run_campaign(true, 1, diff_dir.str(), FaultTarget::kNeurons,
                                 std::nullopt, /*journal=*/true);
  const auto full = run_campaign(false, 1, full_dir.str(),
                                 FaultTarget::kNeurons, std::nullopt,
                                 /*journal=*/true);
  EXPECT_EQ(diff.result.kpis.total, 24u);  // 12 images * 2 runs
  expect_identical(diff, full);
  expect_leaf_replay(FaultTarget::kNeurons, std::nullopt);
}

TEST_F(DiffIdentity, ParallelNeuronCampaignMatchesFullRecompute) {
  test::TempDir diff_dir("diffid_on4");
  test::TempDir full_dir("diffid_off4");
  const auto diff = run_campaign(true, 4, diff_dir.str(), FaultTarget::kNeurons,
                                 std::nullopt, /*journal=*/false);
  const auto full = run_campaign(false, 4, full_dir.str(),
                                 FaultTarget::kNeurons, std::nullopt,
                                 /*journal=*/false);
  expect_identical(diff, full);
}

TEST_F(DiffIdentity, MitigatedWeightCampaignMatchesFullRecompute) {
  // Ranger's Protection observer can veto prefix replay (out-of-bounds
  // cached activations force materialization); the artifacts must stay
  // identical either way.
  test::TempDir diff_dir("diffid_onm");
  test::TempDir full_dir("diffid_offm");
  const auto diff = run_campaign(true, 1, diff_dir.str(), FaultTarget::kWeights,
                                 MitigationKind::kRanger, /*journal=*/true);
  const auto full = run_campaign(false, 1, full_dir.str(),
                                 FaultTarget::kWeights, MitigationKind::kRanger,
                                 /*journal=*/true);
  expect_identical(diff, full);
  expect_leaf_replay(FaultTarget::kWeights, MitigationKind::kRanger);
}

TEST_F(DiffIdentity, DiffParallelMatchesFullRecomputeSerial) {
  // Cross axes: prefix reuse at --jobs 4 against full recompute at
  // --jobs 1.
  test::TempDir diff_dir("diffid_on4x");
  test::TempDir full_dir("diffid_off1x");
  const auto diff = run_campaign(true, 4, diff_dir.str(), FaultTarget::kNeurons,
                                 std::nullopt, /*journal=*/false);
  const auto full = run_campaign(false, 1, full_dir.str(),
                                 FaultTarget::kNeurons, std::nullopt,
                                 /*journal=*/false);
  expect_identical(diff, full);
}

// ---- object detection ----------------------------------------------------

class ObjDetDiffIdentity : public ::testing::Test {
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

  static Scenario scenario() {
    Scenario s;
    s.target = FaultTarget::kNeurons;
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
    CounterView counters;
  };

  static DetRun run_campaign(bool diff, std::size_t jobs,
                             const std::string& dir,
                             std::optional<MitigationKind> mitigation,
                             std::size_t unit_batch = 1) {
    ObjDetCampaignConfig config;
    config.model_name = "yolo";
    config.output_dir = dir;
    config.jobs = jobs;
    config.unit_batch = unit_batch;
    config.workspace = true;
    config.diff = diff;
    config.mitigation = mitigation;
    config.metrics_path = dir + "/metrics.json";
    TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), config);
    DetRun run;
    run.result = harness.run();
    run.counters = read_counters(config.metrics_path);
    return run;
  }

  static void expect_identical(const DetRun& diff, const DetRun& full) {
    EXPECT_EQ(file_bytes(diff.result.orig_json),
              file_bytes(full.result.orig_json));
    EXPECT_EQ(file_bytes(diff.result.corr_json),
              file_bytes(full.result.corr_json));
    EXPECT_EQ(file_bytes(diff.result.trace_bin),
              file_bytes(full.result.trace_bin));
    EXPECT_EQ(diff.counters.comparable_json, full.counters.comparable_json);
    EXPECT_EQ(diff.result.ivmod.total, full.result.ivmod.total);
    EXPECT_EQ(diff.result.ivmod.sde_images, full.result.ivmod.sde_images);
    EXPECT_EQ(diff.result.ivmod.due_images, full.result.ivmod.due_images);
    EXPECT_EQ(diff.result.orig_map.ap_50, full.result.orig_map.ap_50);
    EXPECT_EQ(diff.result.faulty_map.ap_50, full.result.faulty_map.ap_50);
    EXPECT_GT(diff.counters.layers_skipped, 0);
    EXPECT_EQ(full.counters.layers_skipped, 0);
  }

  static data::SyntheticShapesDetection* dataset_;
  static models::YoloLite* detector_;
};

data::SyntheticShapesDetection* ObjDetDiffIdentity::dataset_ = nullptr;
models::YoloLite* ObjDetDiffIdentity::detector_ = nullptr;

TEST_F(ObjDetDiffIdentity, SerialDetectionCampaignMatchesFullRecompute) {
  // The detection harness runs its fault-free pass in one workspace and
  // both armed passes in another, which replays the first.
  test::TempDir diff_dir("diffid_det_on");
  test::TempDir full_dir("diffid_det_off");
  const auto diff = run_campaign(true, 1, diff_dir.str(), std::nullopt);
  const auto full = run_campaign(false, 1, full_dir.str(), std::nullopt);
  expect_identical(diff, full);
}

TEST_F(ObjDetDiffIdentity, ParallelMitigatedDetectionMatchesFullRecompute) {
  test::TempDir diff_dir("diffid_det_on4");
  test::TempDir full_dir("diffid_det_off4");
  const auto diff =
      run_campaign(true, 4, diff_dir.str(), MitigationKind::kRanger);
  const auto full =
      run_campaign(false, 4, full_dir.str(), MitigationKind::kRanger);
  expect_identical(diff, full);
}

TEST_F(ObjDetDiffIdentity, GatherPacksMatchFullRecompute) {
  // --unit-batch 4 packs neighbouring images: the armed passes replay a
  // fault-free pass of the same rows, row r against row r (DESIGN.md
  // §12), at --jobs 1 and 4 with Ranger, against the serial --no-diff
  // run.
  test::TempDir full_dir("diffid_det_gather_off");
  const auto full = run_campaign(false, 1, full_dir.str(), MitigationKind::kRanger);
  for (const std::size_t jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    test::TempDir diff_dir("diffid_det_gather_on" + std::to_string(jobs));
    const auto diff =
        run_campaign(true, jobs, diff_dir.str(), MitigationKind::kRanger, /*unit_batch=*/4);
    expect_identical(diff, full);
    EXPECT_GT(diff.counters.rows_skipped, diff.counters.layers_skipped);
  }
}

}  // namespace
}  // namespace alfi::core
