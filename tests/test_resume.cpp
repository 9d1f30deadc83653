// Crash-safe checkpoint/resume: kill-and-resume byte-identity for both
// harnesses and several job counts, torn-tail recovery, fingerprint
// mismatch refusal, checkpoint file roundtrip, and CampaignTask
// conformance.
#include "core/campaign.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/test_img_class.h"
#include "core/test_obj_det.h"
#include "data/synthetic.h"
#include "models/classification.h"
#include "models/yolo_lite.h"
#include "nn/layers.h"
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

/// Interrupt callback that flips to true after `n` polls — deterministic
/// stand-in for a SIGTERM arriving mid-campaign.
std::function<bool()> interrupt_after(int n) {
  auto counter = std::make_shared<std::atomic<int>>(n);
  return [counter] { return counter->fetch_sub(1) <= 0; };
}

void truncate_file(const std::string& path, std::size_t drop_bytes) {
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, drop_bytes);
  std::filesystem::resize_file(path, size - drop_bytes);
}

// ---- checkpoint file roundtrip ----------------------------------------------

TEST(CheckpointFile, SaveLoadRoundTrip) {
  test::TempDir dir("ckp_rt");
  CampaignCheckpoint cp;
  cp.fingerprint = 0xABCDEF0011223344ull;
  cp.task_kind = "imgclass";
  cp.unit_count = 24;
  cp.completed_units = 9;
  cp.rnd_seed = 4242;
  cp.journal_valid_bytes = 1234;
  cp.shards = {{0, 12, 9}, {12, 24, 12}};
  const std::string path = dir.file("checkpoint.bin");
  cp.save(path);

  const auto loaded = CampaignCheckpoint::load(path);
  EXPECT_EQ(loaded.fingerprint, cp.fingerprint);
  EXPECT_EQ(loaded.task_kind, cp.task_kind);
  EXPECT_EQ(loaded.unit_count, cp.unit_count);
  EXPECT_EQ(loaded.completed_units, cp.completed_units);
  EXPECT_EQ(loaded.rnd_seed, cp.rnd_seed);
  EXPECT_EQ(loaded.journal_valid_bytes, cp.journal_valid_bytes);
  ASSERT_EQ(loaded.shards.size(), 2u);
  EXPECT_EQ(loaded.shards[1].begin, 12u);
  EXPECT_EQ(loaded.shards[1].high_water, 12u);
}

TEST(CheckpointFile, RejectsGarbage) {
  test::TempDir dir("ckp_bad");
  const std::string path = dir.file("checkpoint.bin");
  std::ofstream(path, std::ios::binary) << "not a checkpoint";
  EXPECT_THROW(CampaignCheckpoint::load(path), ParseError);
  EXPECT_THROW(CampaignCheckpoint::load(dir.file("missing.bin")), IoError);
}

// ---- classification ---------------------------------------------------------

/// Untrained (deterministically initialized) AlexNet + synthetic
/// dataset: byte-identity of the outputs does not depend on accuracy.
class ResumeImgClass : public ::testing::Test {
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

  static Scenario scenario(std::uint64_t seed = 4242) {
    Scenario s;
    s.target = FaultTarget::kNeurons;
    s.value_type = ValueType::kBitFlip;
    s.rnd_bit_range_lo = 20;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.dataset_size = 12;
    s.num_runs = 2;
    s.max_faults_per_image = 2;
    s.batch_size = 8;
    s.rnd_seed = seed;
    return s;
  }

  static ImgClassCampaignConfig config(const std::string& out_dir) {
    ImgClassCampaignConfig c;
    c.model_name = "alexnet";
    c.output_dir = out_dir;
    c.checkpoint_every = 2;
    return c;
  }

  /// Uninterrupted reference run (no checkpointing).
  static ImgClassCampaignResult baseline(const std::string& dir) {
    auto c = config(dir);
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
    return harness.run();
  }

  static void expect_identical(const ImgClassCampaignResult& a,
                               const ImgClassCampaignResult& b) {
    EXPECT_EQ(file_bytes(a.results_csv), file_bytes(b.results_csv));
    EXPECT_EQ(file_bytes(a.fault_free_csv), file_bytes(b.fault_free_csv));
    EXPECT_EQ(file_bytes(a.fault_bin), file_bytes(b.fault_bin));
    EXPECT_EQ(file_bytes(a.trace_bin), file_bytes(b.trace_bin));
    EXPECT_EQ(file_bytes(a.scenario_yml), file_bytes(b.scenario_yml));
    EXPECT_EQ(a.kpis.total, b.kpis.total);
    EXPECT_EQ(a.kpis.sde, b.kpis.sde);
    EXPECT_EQ(a.kpis.due, b.kpis.due);
    EXPECT_EQ(a.kpis.orig_correct, b.kpis.orig_correct);
    EXPECT_EQ(a.kpis.faulty_correct, b.kpis.faulty_correct);
  }

  /// Interrupts a checkpointed campaign after ~`kill_after` units, then
  /// resumes (possibly with a different job count) and checks the final
  /// outputs byte-match an uninterrupted run.
  void kill_and_resume(std::size_t jobs_first, std::size_t jobs_second,
                       int kill_after) {
    test::TempDir ref_dir("imgclass_ref");
    test::TempDir out_dir("imgclass_out");
    test::TempDir ckp_dir("imgclass_ckp");
    const auto reference = baseline(ref_dir.str());

    auto first = config(out_dir.str());
    first.jobs = jobs_first;
    first.checkpoint_dir = ckp_dir.str();
    first.interrupt = interrupt_after(kill_after);
    std::size_t completed = 0;
    try {
      TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
      harness.run();
      FAIL() << "expected CampaignInterrupted";
    } catch (const CampaignInterrupted& e) {
      completed = e.completed_units();
      EXPECT_LT(e.completed_units(), e.total_units());
      EXPECT_EQ(e.total_units(), 24u);
      EXPECT_EQ(e.checkpoint_dir(), ckp_dir.str());
    }
    EXPECT_TRUE(std::filesystem::exists(
        CampaignExecutor::checkpoint_path(ckp_dir.str())));
    EXPECT_TRUE(
        std::filesystem::exists(CampaignExecutor::journal_path(ckp_dir.str())));
    const auto cp =
        CampaignCheckpoint::load(CampaignExecutor::checkpoint_path(ckp_dir.str()));
    EXPECT_EQ(cp.task_kind, "imgclass");
    EXPECT_EQ(cp.unit_count, 24u);
    EXPECT_EQ(cp.completed_units, completed);

    auto second = config(out_dir.str());
    second.jobs = jobs_second;
    second.checkpoint_dir = ckp_dir.str();
    second.resume = true;
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), second);
    const auto resumed = harness.run();
    expect_identical(reference, resumed);
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* ResumeImgClass::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> ResumeImgClass::model_;

TEST_F(ResumeImgClass, KillAndResumeSerial) { kill_and_resume(1, 1, 5); }

TEST_F(ResumeImgClass, KillAndResumeParallel) { kill_and_resume(4, 4, 6); }

TEST_F(ResumeImgClass, ResumeWithDifferentJobCount) {
  // Interrupted with 4 workers, finished serially — shard boundaries
  // change between the two processes; outputs must not.
  kill_and_resume(4, 1, 6);
  kill_and_resume(1, 4, 5);
}

TEST_F(ResumeImgClass, TornJournalTailIsRecoveredOnResume) {
  test::TempDir ref_dir("imgclass_torn_ref");
  test::TempDir out_dir("imgclass_torn_out");
  test::TempDir ckp_dir("imgclass_torn_ckp");
  const auto reference = baseline(ref_dir.str());

  auto first = config(out_dir.str());
  first.checkpoint_dir = ckp_dir.str();
  first.interrupt = interrupt_after(7);
  try {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted&) {
  }
  // Simulate a crash mid-append on top of the drain: rip the last few
  // bytes off the journal.  The torn unit is recomputed on resume.
  truncate_file(CampaignExecutor::journal_path(ckp_dir.str()), 5);

  auto second = config(out_dir.str());
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), second);
  expect_identical(reference, harness.run());
}

TEST_F(ResumeImgClass, ResumeRefusesDifferentCampaign) {
  test::TempDir out_dir("imgclass_fp_out");
  test::TempDir ckp_dir("imgclass_fp_ckp");
  auto first = config(out_dir.str());
  first.checkpoint_dir = ckp_dir.str();
  first.interrupt = interrupt_after(4);
  try {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted&) {
  }

  // Same checkpoint dir, different fault matrix (seed changed): the
  // journaled payloads would be silently wrong — must refuse.
  auto second = config(out_dir.str());
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(4243), second);
  EXPECT_THROW(harness.run(), ConfigError);
}

TEST_F(ResumeImgClass, ResumingCompletedCampaignReplaysEverything) {
  test::TempDir ref_dir("imgclass_done_ref");
  test::TempDir out_dir("imgclass_done_out");
  test::TempDir ckp_dir("imgclass_done_ckp");
  const auto reference = baseline(ref_dir.str());

  auto first = config(out_dir.str());
  first.checkpoint_dir = ckp_dir.str();
  {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
    expect_identical(reference, harness.run());
  }
  // Resume after completion: every unit replays from the journal, no
  // inference runs, outputs are rewritten identically.
  auto second = config(out_dir.str());
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), second);
  expect_identical(reference, harness.run());
}

TEST_F(ResumeImgClass, MitigatedCampaignSurvivesResume) {
  test::TempDir ref_dir("imgclass_mit_ref");
  test::TempDir out_dir("imgclass_mit_out");
  test::TempDir ckp_dir("imgclass_mit_ckp");
  auto ref_config = config(ref_dir.str());
  ref_config.mitigation = MitigationKind::kRanger;
  ImgClassCampaignResult reference;
  {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), ref_config);
    reference = harness.run();
  }

  auto first = config(out_dir.str());
  first.mitigation = MitigationKind::kRanger;
  first.jobs = 4;
  first.checkpoint_dir = ckp_dir.str();
  first.interrupt = interrupt_after(6);
  try {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted&) {
  }

  auto second = config(out_dir.str());
  second.mitigation = MitigationKind::kRanger;
  second.jobs = 2;
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), second);
  const auto resumed = harness.run();
  expect_identical(reference, resumed);
  EXPECT_EQ(reference.kpis.resil_sde, resumed.kpis.resil_sde);
}

TEST_F(ResumeImgClass, CheckpointingRejectsBatchedPolicies) {
  // per_batch units are addressed like per_image ones (one image under
  // its batch's fault group), so a checkpointed per_batch campaign
  // interrupts and resumes byte-identically to an uninterrupted run.
  Scenario s = scenario();
  s.inj_policy = InjectionPolicy::kPerBatch;
  test::TempDir ref_dir("imgclass_batch_ref");
  test::TempDir out_dir("imgclass_batch_out");
  test::TempDir ckp_dir("imgclass_batch_ckp");
  ImgClassCampaignResult reference;
  {
    TestErrorModelsImgClass harness(*model_, *dataset_, s, config(ref_dir.str()));
    reference = harness.run();
  }

  auto first = config(out_dir.str());
  first.jobs = 4;
  first.checkpoint_dir = ckp_dir.str();
  first.interrupt = interrupt_after(6);
  try {
    TestErrorModelsImgClass harness(*model_, *dataset_, s, first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted& e) {
    EXPECT_LT(e.completed_units(), e.total_units());
  }

  auto second = config(out_dir.str());
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, s, second);
  const auto resumed = harness.run();
  expect_identical(reference, resumed);
  EXPECT_EQ(resumed.kpis.total, 24u);
}

// ---- object detection -------------------------------------------------------

class ResumeObjDet : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesDetection(
        {.size = 12, .min_objects = 1, .max_objects = 2, .seed = 41});
    detector_ = new models::YoloLite(models::GridSpec{6, 48, 48}, 3, 3);
    Rng rng(23);
    nn::kaiming_init(detector_->network(), rng);
  }

  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static Scenario scenario(std::uint64_t seed = 55) {
    Scenario s;
    s.target = FaultTarget::kWeights;
    s.rnd_bit_range_lo = 26;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.dataset_size = 8;
    s.num_runs = 2;
    s.batch_size = 4;
    s.max_faults_per_image = 1;
    s.rnd_seed = seed;
    return s;
  }

  static ObjDetCampaignConfig config(const std::string& out_dir) {
    ObjDetCampaignConfig c;
    c.model_name = "yolo";
    c.output_dir = out_dir;
    c.checkpoint_every = 2;
    return c;
  }

  static void expect_identical(const ObjDetCampaignResult& a,
                               const ObjDetCampaignResult& b) {
    EXPECT_EQ(file_bytes(a.ground_truth_json), file_bytes(b.ground_truth_json));
    EXPECT_EQ(file_bytes(a.scenario_yml), file_bytes(b.scenario_yml));
    EXPECT_EQ(file_bytes(a.fault_bin), file_bytes(b.fault_bin));
    EXPECT_EQ(file_bytes(a.trace_bin), file_bytes(b.trace_bin));
    EXPECT_EQ(file_bytes(a.orig_json), file_bytes(b.orig_json));
    EXPECT_EQ(file_bytes(a.corr_json), file_bytes(b.corr_json));
    EXPECT_EQ(a.ivmod.total, b.ivmod.total);
    EXPECT_EQ(a.ivmod.sde_images, b.ivmod.sde_images);
    EXPECT_EQ(a.ivmod.due_images, b.ivmod.due_images);
  }

  void kill_and_resume(std::size_t jobs_first, std::size_t jobs_second,
                       int kill_after) {
    test::TempDir ref_dir("objdet_ref");
    test::TempDir out_dir("objdet_out");
    test::TempDir ckp_dir("objdet_ckp");
    ObjDetCampaignResult reference;
    {
      auto c = config(ref_dir.str());
      TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), c);
      reference = harness.run();
    }

    auto first = config(out_dir.str());
    first.jobs = jobs_first;
    first.checkpoint_dir = ckp_dir.str();
    first.interrupt = interrupt_after(kill_after);
    try {
      TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), first);
      harness.run();
      FAIL() << "expected CampaignInterrupted";
    } catch (const CampaignInterrupted& e) {
      EXPECT_LT(e.completed_units(), e.total_units());
      EXPECT_EQ(e.total_units(), 16u);  // 8 images * 2 epochs
    }

    auto second = config(out_dir.str());
    second.jobs = jobs_second;
    second.checkpoint_dir = ckp_dir.str();
    second.resume = true;
    TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), second);
    expect_identical(reference, harness.run());
  }

  static data::SyntheticShapesDetection* dataset_;
  static models::YoloLite* detector_;
};

data::SyntheticShapesDetection* ResumeObjDet::dataset_ = nullptr;
models::YoloLite* ResumeObjDet::detector_ = nullptr;

TEST_F(ResumeObjDet, KillAndResumeSerial) { kill_and_resume(1, 1, 4); }

TEST_F(ResumeObjDet, KillAndResumeParallel) { kill_and_resume(4, 4, 5); }

TEST_F(ResumeObjDet, ResumeWithDifferentJobCount) { kill_and_resume(4, 1, 5); }

TEST_F(ResumeObjDet, ResumeRefusesDifferentTaskKind) {
  // An objdet checkpoint directory must not satisfy an imgclass resume
  // (and vice versa) even before fingerprints are compared.
  test::TempDir out_dir("objdet_kind_out");
  test::TempDir ckp_dir("objdet_kind_ckp");
  auto first = config(out_dir.str());
  first.checkpoint_dir = ckp_dir.str();
  first.interrupt = interrupt_after(3);
  try {
    TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted&) {
  }

  data::SyntheticShapesClassification cls_data(
      {.size = 32, .num_classes = 10, .seed = 17});
  auto model = models::make_mini_alexnet();
  Rng rng(17);
  nn::kaiming_init(*model, rng);
  ImgClassCampaignConfig cls_config;
  cls_config.checkpoint_dir = ckp_dir.str();
  cls_config.resume = true;
  Scenario cls_scenario;
  cls_scenario.target = FaultTarget::kNeurons;
  cls_scenario.value_type = ValueType::kBitFlip;
  cls_scenario.inj_policy = InjectionPolicy::kPerImage;
  cls_scenario.dataset_size = 12;
  cls_scenario.num_runs = 2;
  cls_scenario.batch_size = 8;
  cls_scenario.rnd_seed = 4242;
  TestErrorModelsImgClass harness(*model, cls_data, cls_scenario, cls_config);
  EXPECT_THROW(harness.run(), ConfigError);
}

// ---- CampaignTask conformance -----------------------------------------------

TEST_F(ResumeImgClass, TaskContractImgClass) {
  auto c = config("");
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
  CampaignTask& task = harness;
  EXPECT_EQ(task.task_kind(), "imgclass");
  EXPECT_EQ(task.unit_count(), 24u);  // dataset_size * num_runs
  EXPECT_EQ(task.base_config().model_name, "alexnet");
  EXPECT_EQ(task.task_scenario().dataset_size, 12u);

  // Fingerprint: stable across instances, sensitive to the fault matrix
  // seed and to payload-affecting config (top_k).
  TestErrorModelsImgClass same(*model_, *dataset_, scenario(), c);
  EXPECT_EQ(task.fingerprint(), same.fingerprint());
  TestErrorModelsImgClass reseeded(*model_, *dataset_, scenario(4243), c);
  EXPECT_NE(task.fingerprint(), reseeded.fingerprint());
  auto topk_config = c;
  topk_config.top_k = 3;
  TestErrorModelsImgClass topk(*model_, *dataset_, scenario(), topk_config);
  EXPECT_NE(task.fingerprint(), topk.fingerprint());
}

TEST_F(ResumeObjDet, TaskContractObjDet) {
  auto c = config("");
  TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), c);
  CampaignTask& task = harness;
  EXPECT_EQ(task.task_kind(), "objdet");
  EXPECT_EQ(task.unit_count(), 16u);
  EXPECT_EQ(task.base_config().model_name, "yolo");

  TestErrorModelsObjDet same(*detector_, *dataset_, scenario(), c);
  EXPECT_EQ(task.fingerprint(), same.fingerprint());
  TestErrorModelsObjDet reseeded(*detector_, *dataset_, scenario(56), c);
  EXPECT_NE(task.fingerprint(), reseeded.fingerprint());
  auto conf_config = c;
  conf_config.conf_threshold = 0.6f;
  TestErrorModelsObjDet thresh(*detector_, *dataset_, scenario(), conf_config);
  EXPECT_NE(task.fingerprint(), thresh.fingerprint());
}

}  // namespace
}  // namespace alfi::core
