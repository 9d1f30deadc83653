// Golden parity: arena-backed workspace inference vs the legacy
// allocating forward() path.  Every campaign artifact — results CSVs,
// fault/trace binaries, the unit journal and the metrics.json counter
// section — must be byte-identical between the two paths, serial and
// parallel, with and without mitigation.  This is the contract that
// lets the zero-allocation engine replace the allocating path without
// invalidating any published campaign result (DESIGN.md §10).
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

/// One campaign run plus the deterministic artifacts the identity
/// tests compare.  The metrics "timing" section (wall times, gauges —
/// including the arena high-water mark, absent on the allocating path)
/// is intentionally excluded: only counters are part of the contract.
struct RunArtifacts {
  ImgClassCampaignResult result;
  std::string counters_json;
  std::string journal_bytes;  // empty unless journaling was enabled
};

class WorkspaceIdentity : public ::testing::Test {
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

  static Scenario scenario(FaultTarget target) {
    Scenario s;
    s.target = target;
    s.value_type = ValueType::kBitFlip;
    s.rnd_bit_range_lo = 20;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.dataset_size = 12;
    s.num_runs = 2;
    s.max_faults_per_image = 2;
    s.batch_size = 8;
    s.rnd_seed = 4242;
    return s;
  }

  RunArtifacts run_campaign(bool workspace, std::size_t jobs,
                            const std::string& dir, FaultTarget target,
                            std::optional<MitigationKind> mitigation,
                            bool journal) {
    ImgClassCampaignConfig config;
    config.model_name = "alexnet";
    config.output_dir = dir;
    config.mitigation = mitigation;
    config.jobs = jobs;
    config.workspace = workspace;
    config.metrics_path = dir + "/metrics.json";
    if (journal) {
      config.checkpoint_dir = dir + "/ckpt";
    }
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(target),
                                    config);
    RunArtifacts artifacts;
    artifacts.result = harness.run();
    // The workspace path runs differential inference by default, which
    // adds `campaign.diff.*` bookkeeping counters the allocating path
    // cannot have — they describe how the result was computed, not the
    // result, so they are excluded from the identity contract (every
    // other counter must still match exactly).
    const io::Json counters =
        io::read_json_file(config.metrics_path).at("counters");
    io::Json filtered = io::Json::object();
    for (const auto& [key, value] : counters.as_object()) {
      if (!key.starts_with("campaign.diff.")) filtered.as_object()[key] = value;
    }
    artifacts.counters_json = filtered.dump();
    if (journal) {
      artifacts.journal_bytes =
          file_bytes(CampaignExecutor::journal_path(config.checkpoint_dir));
    }
    return artifacts;
  }

  void expect_identical(const RunArtifacts& ws, const RunArtifacts& alloc) {
    EXPECT_EQ(file_bytes(ws.result.results_csv),
              file_bytes(alloc.result.results_csv));
    EXPECT_EQ(file_bytes(ws.result.fault_free_csv),
              file_bytes(alloc.result.fault_free_csv));
    EXPECT_EQ(file_bytes(ws.result.fault_bin), file_bytes(alloc.result.fault_bin));
    EXPECT_EQ(file_bytes(ws.result.trace_bin), file_bytes(alloc.result.trace_bin));
    EXPECT_EQ(ws.counters_json, alloc.counters_json);
    EXPECT_EQ(ws.journal_bytes, alloc.journal_bytes);
    EXPECT_EQ(ws.result.kpis.total, alloc.result.kpis.total);
    EXPECT_EQ(ws.result.kpis.sde, alloc.result.kpis.sde);
    EXPECT_EQ(ws.result.kpis.due, alloc.result.kpis.due);
    EXPECT_EQ(ws.result.kpis.orig_correct, alloc.result.kpis.orig_correct);
    EXPECT_EQ(ws.result.kpis.faulty_correct, alloc.result.kpis.faulty_correct);
    EXPECT_EQ(ws.result.kpis.resil_sde, alloc.result.kpis.resil_sde);
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* WorkspaceIdentity::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> WorkspaceIdentity::model_;

TEST_F(WorkspaceIdentity, SerialNeuronCampaignIsByteIdenticalAcrossPaths) {
  // --jobs 1 with journaling: the journal append order is deterministic
  // on the serial executor, so the journal bytes are part of the
  // comparison here.
  test::TempDir ws_dir("wsid_ws1");
  test::TempDir alloc_dir("wsid_alloc1");
  const auto ws = run_campaign(true, 1, ws_dir.str(), FaultTarget::kNeurons,
                               std::nullopt, /*journal=*/true);
  const auto alloc = run_campaign(false, 1, alloc_dir.str(),
                                  FaultTarget::kNeurons, std::nullopt,
                                  /*journal=*/true);
  EXPECT_EQ(ws.result.kpis.total, 24u);  // 12 images * 2 runs
  expect_identical(ws, alloc);
}

TEST_F(WorkspaceIdentity, ParallelNeuronCampaignIsByteIdenticalAcrossPaths) {
  // --jobs 4: merged outputs and counters stay deterministic; the
  // journal is completion-ordered across workers, so it is not part of
  // the parallel comparison (that ordering varies run to run regardless
  // of the inference path).
  test::TempDir ws_dir("wsid_ws4");
  test::TempDir alloc_dir("wsid_alloc4");
  const auto ws = run_campaign(true, 4, ws_dir.str(), FaultTarget::kNeurons,
                               std::nullopt, /*journal=*/false);
  const auto alloc = run_campaign(false, 4, alloc_dir.str(),
                                  FaultTarget::kNeurons, std::nullopt,
                                  /*journal=*/false);
  expect_identical(ws, alloc);
}

TEST_F(WorkspaceIdentity, WorkspaceParallelMatchesAllocatingSerial) {
  // Cross-check both axes at once: the workspace path at --jobs 4 must
  // reproduce the allocating serial run exactly.
  test::TempDir ws_dir("wsid_ws4x");
  test::TempDir alloc_dir("wsid_alloc1x");
  const auto ws = run_campaign(true, 4, ws_dir.str(), FaultTarget::kNeurons,
                               std::nullopt, /*journal=*/false);
  const auto alloc = run_campaign(false, 1, alloc_dir.str(),
                                  FaultTarget::kNeurons, std::nullopt,
                                  /*journal=*/false);
  expect_identical(ws, alloc);
}

TEST_F(WorkspaceIdentity, MitigatedWeightCampaignIsByteIdenticalAcrossPaths) {
  // Weight faults + Ranger: exercises the hardened third pass, where
  // Protection clamps the workspace slots in place.
  test::TempDir ws_dir("wsid_wsm");
  test::TempDir alloc_dir("wsid_allocm");
  const auto ws = run_campaign(true, 1, ws_dir.str(), FaultTarget::kWeights,
                               MitigationKind::kRanger, /*journal=*/true);
  const auto alloc = run_campaign(false, 1, alloc_dir.str(),
                                  FaultTarget::kWeights, MitigationKind::kRanger,
                                  /*journal=*/true);
  expect_identical(ws, alloc);
}

// ---- object detection ---------------------------------------------------------

class ObjDetWorkspaceIdentity : public ::testing::Test {
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

  static ObjDetCampaignResult run_campaign(bool workspace, std::size_t jobs,
                                           const std::string& dir) {
    ObjDetCampaignConfig config;
    config.model_name = "yolo";
    config.output_dir = dir;
    config.jobs = jobs;
    config.workspace = workspace;
    TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), config);
    return harness.run();
  }

  static data::SyntheticShapesDetection* dataset_;
  static models::YoloLite* detector_;
};

data::SyntheticShapesDetection* ObjDetWorkspaceIdentity::dataset_ = nullptr;
models::YoloLite* ObjDetWorkspaceIdentity::detector_ = nullptr;

TEST_F(ObjDetWorkspaceIdentity, DetectionCampaignIsByteIdenticalAcrossPaths) {
  test::TempDir ws_dir("wsid_det_ws");
  test::TempDir alloc_dir("wsid_det_alloc");
  const auto ws = run_campaign(true, 1, ws_dir.str());
  const auto alloc = run_campaign(false, 1, alloc_dir.str());

  EXPECT_EQ(file_bytes(ws.orig_json), file_bytes(alloc.orig_json));
  EXPECT_EQ(file_bytes(ws.corr_json), file_bytes(alloc.corr_json));
  EXPECT_EQ(file_bytes(ws.trace_bin), file_bytes(alloc.trace_bin));
  EXPECT_EQ(ws.ivmod.total, alloc.ivmod.total);
  EXPECT_EQ(ws.ivmod.sde_images, alloc.ivmod.sde_images);
  EXPECT_EQ(ws.ivmod.due_images, alloc.ivmod.due_images);
  EXPECT_EQ(ws.orig_map.ap_50, alloc.orig_map.ap_50);
  EXPECT_EQ(ws.faulty_map.ap_50, alloc.faulty_map.ap_50);
}

TEST_F(ObjDetWorkspaceIdentity, ParallelDetectionCampaignMatchesSerial) {
  test::TempDir ws_dir("wsid_det_ws4");
  test::TempDir alloc_dir("wsid_det_alloc1");
  const auto ws = run_campaign(true, 4, ws_dir.str());
  const auto alloc = run_campaign(false, 1, alloc_dir.str());
  EXPECT_EQ(file_bytes(ws.corr_json), file_bytes(alloc.corr_json));
  EXPECT_EQ(ws.ivmod.sde_images, alloc.ivmod.sde_images);
  EXPECT_EQ(ws.ivmod.due_images, alloc.ivmod.due_images);
}

}  // namespace
}  // namespace alfi::core
