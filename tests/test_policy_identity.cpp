// Injection-policy identity: per_batch and per_epoch campaigns run as
// absolutely addressed units (one image under its batch's or epoch's
// fault group, core::address_unit), so they get everything per_image
// campaigns get — --jobs, --unit-batch, differential replay,
// checkpoint/resume and the fleet — with byte-identical outputs, and
// each image's DUE verdict comes from its own monitor, not from
// whichever images shared its batch.  Also pins the per_image rule
// that a hand-made fault for a slot > 0 is armed past the pass and
// counted as skipped, on the detection harness too.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/campaign.h"
#include "core/test_img_class.h"
#include "core/test_obj_det.h"
#include "data/synthetic.h"
#include "io/json.h"
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

/// Counter section of metrics.json minus the `campaign.diff.*` family,
/// which counts passes (packing and --no-diff change the pass count).
std::string comparable_counters(const std::string& metrics_path) {
  const io::Json counters = io::read_json_file(metrics_path).at("counters");
  io::Json filtered = io::Json::object();
  for (const auto& [key, value] : counters.as_object()) {
    if (key.starts_with("campaign.diff.")) continue;
    filtered.as_object()[key] = value;
  }
  return filtered.dump();
}

std::uint64_t counter_value(const util::MetricsRegistry& metrics,
                            const std::string& name) {
  for (const auto& [key, value] : metrics.counters()) {
    if (key == name) return value;
  }
  return 0;
}

// ---- image classification ------------------------------------------------

struct PolicyRun {
  ImgClassCampaignResult result;
  std::string counters_json;
  std::string journal_bytes;
};

class PolicyIdentity : public ::testing::Test {
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

  /// 10 images in batches of 4, 4 and 2 (a short final batch), 3
  /// epochs: 30 units, packed at stride 10 (same image, different
  /// epochs).  Exponent-bit neuron flips, so some units end DUE.
  static Scenario scenario(InjectionPolicy policy) {
    Scenario s;
    s.target = FaultTarget::kNeurons;
    s.value_type = ValueType::kBitFlip;
    s.rnd_bit_range_lo = 29;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = policy;
    s.dataset_size = 10;
    s.num_runs = 3;
    s.max_faults_per_image = 2;
    s.batch_size = 4;
    s.rnd_seed = 4243;
    return s;
  }

  static ImgClassCampaignConfig config(const std::string& dir) {
    ImgClassCampaignConfig c;
    c.model_name = "alexnet";
    c.output_dir = dir;
    c.metrics_path = dir + "/metrics.json";
    c.checkpoint_every = 4;
    return c;
  }

  static PolicyRun run(const Scenario& s, ImgClassCampaignConfig c) {
    TestErrorModelsImgClass harness(*model_, *dataset_, s, c);
    PolicyRun out;
    out.result = harness.run();
    out.counters_json = comparable_counters(c.metrics_path);
    if (!c.checkpoint_dir.empty()) {
      out.journal_bytes = file_bytes(CampaignExecutor::journal_path(c.checkpoint_dir));
    }
    return out;
  }

  static void expect_identical(const PolicyRun& a, const PolicyRun& b) {
    EXPECT_EQ(file_bytes(a.result.results_csv), file_bytes(b.result.results_csv));
    EXPECT_EQ(file_bytes(a.result.fault_free_csv),
              file_bytes(b.result.fault_free_csv));
    EXPECT_EQ(file_bytes(a.result.fault_bin), file_bytes(b.result.fault_bin));
    EXPECT_EQ(file_bytes(a.result.trace_bin), file_bytes(b.result.trace_bin));
    EXPECT_EQ(a.counters_json, b.counters_json);
    EXPECT_EQ(a.result.kpis.total, b.result.kpis.total);
    EXPECT_EQ(a.result.kpis.sde, b.result.kpis.sde);
    EXPECT_EQ(a.result.kpis.due, b.result.kpis.due);
  }

  /// jobs 1/4 x unit-batch 1/4 x diff on/off against the serial,
  /// unpacked, full-recompute run, all checkpointed; journals compared
  /// wherever one worker appends them (at --jobs 4 shards interleave
  /// their frames).
  static void expect_grid_identical(InjectionPolicy policy) {
    const Scenario s = scenario(policy);
    test::TempDir ref_dir("policy_ref");
    auto ref_config = config(ref_dir.str());
    ref_config.diff = false;
    ref_config.checkpoint_dir = ref_dir.str() + "/ckpt";
    const PolicyRun reference = run(s, ref_config);
    EXPECT_EQ(reference.result.kpis.total, 30u);
    EXPECT_GT(reference.result.kpis.due, 0u);  // the DUE path is exercised

    for (const std::size_t jobs : {1, 4}) {
      for (const std::size_t unit_batch : {1, 4}) {
        for (const bool diff : {true, false}) {
          SCOPED_TRACE(::testing::Message() << "jobs " << jobs << " unit_batch "
                                            << unit_batch << " diff " << diff);
          test::TempDir dir("policy_grid");
          auto c = config(dir.str());
          c.jobs = jobs;
          c.unit_batch = unit_batch;
          c.diff = diff;
          c.checkpoint_dir = dir.str() + "/ckpt";
          const PolicyRun other = run(s, c);
          expect_identical(reference, other);
          if (jobs == 1) {
            EXPECT_EQ(reference.journal_bytes, other.journal_bytes);
          }
        }
      }
    }
  }

  /// Interrupted at --jobs 4 with packing, resumed at --jobs 1: the
  /// outputs match an uninterrupted run.
  static void expect_resume_identical(InjectionPolicy policy) {
    const Scenario s = scenario(policy);
    test::TempDir ref_dir("policy_resume_ref");
    const PolicyRun reference = run(s, config(ref_dir.str()));

    test::TempDir out_dir("policy_resume_out");
    test::TempDir ckp_dir("policy_resume_ckp");
    auto first = config(out_dir.str());
    first.jobs = 4;
    first.unit_batch = 4;
    first.checkpoint_dir = ckp_dir.str();
    auto polls = std::make_shared<std::atomic<int>>(5);
    first.interrupt = [polls] { return polls->fetch_sub(1) <= 0; };
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
    const ImgClassCampaignResult resumed = harness.run();
    EXPECT_EQ(file_bytes(reference.result.results_csv),
              file_bytes(resumed.results_csv));
    EXPECT_EQ(file_bytes(reference.result.fault_free_csv),
              file_bytes(resumed.fault_free_csv));
    EXPECT_EQ(file_bytes(reference.result.trace_bin), file_bytes(resumed.trace_bin));
    EXPECT_EQ(reference.result.kpis.total, resumed.kpis.total);
    EXPECT_EQ(reference.result.kpis.due, resumed.kpis.due);
  }

  /// A 2-worker local fleet writes the journal, checkpoint and outputs
  /// of a checkpointed --jobs 1 run.
  static void expect_fleet_identical(InjectionPolicy policy) {
    const Scenario s = scenario(policy);
    test::TempDir ref_dir("policy_fleet_ref");
    auto ref_config = config(ref_dir.str());
    ref_config.checkpoint_dir = ref_dir.str() + "/ckpt";
    const PolicyRun reference = run(s, ref_config);

    test::TempDir dir("policy_fleet");
    auto c = config(dir.str());
    c.checkpoint_dir = dir.str() + "/ckpt";
    c.fleet.local_workers = 2;
    c.fleet.lease_units = 4;
    c.fleet.heartbeat_ms = 50.0;
    const PolicyRun fleet = run(s, c);
    EXPECT_EQ(file_bytes(reference.result.results_csv),
              file_bytes(fleet.result.results_csv));
    EXPECT_EQ(file_bytes(reference.result.fault_free_csv),
              file_bytes(fleet.result.fault_free_csv));
    EXPECT_EQ(file_bytes(reference.result.trace_bin),
              file_bytes(fleet.result.trace_bin));
    EXPECT_EQ(reference.journal_bytes, fleet.journal_bytes);
    EXPECT_EQ(file_bytes(CampaignExecutor::checkpoint_path(ref_config.checkpoint_dir)),
              file_bytes(CampaignExecutor::checkpoint_path(c.checkpoint_dir)));
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* PolicyIdentity::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> PolicyIdentity::model_;

TEST_F(PolicyIdentity, PerBatchGridMatchesSerialRun) {
  expect_grid_identical(InjectionPolicy::kPerBatch);
}

TEST_F(PolicyIdentity, PerEpochGridMatchesSerialRun) {
  expect_grid_identical(InjectionPolicy::kPerEpoch);
}

TEST_F(PolicyIdentity, PerBatchKillAndResumeMatchesUninterrupted) {
  expect_resume_identical(InjectionPolicy::kPerBatch);
}

TEST_F(PolicyIdentity, PerEpochKillAndResumeMatchesUninterrupted) {
  expect_resume_identical(InjectionPolicy::kPerEpoch);
}

TEST_F(PolicyIdentity, PerBatchLocalFleetMatchesSerialRun) {
  expect_fleet_identical(InjectionPolicy::kPerBatch);
}

TEST_F(PolicyIdentity, PerEpochLocalFleetMatchesSerialRun) {
  expect_fleet_identical(InjectionPolicy::kPerEpoch);
}

TEST_F(PolicyIdentity, PerEpochVerdictsDoNotDependOnBatchSize) {
  // One exponent flip per epoch corrupts the same neuron of every
  // image; whether it turns into Inf/NaN depends on the image's own
  // activation.  Each image's DUE verdict must come from its own
  // monitor: the fault matrix does not depend on batch_size under
  // per_epoch, so neither may any results or fault-free row.
  Scenario s = scenario(InjectionPolicy::kPerEpoch);
  s.backend = "ref";
  s.dataset_size = 16;
  s.num_runs = 8;
  s.max_faults_per_image = 1;
  s.rnd_bit_range_lo = 23;
  s.rnd_bit_range_hi = 30;
  const auto run_at = [&](std::size_t batch_size, const test::TempDir& dir) {
    Scenario at = s;
    at.batch_size = batch_size;
    return run(at, config(dir.str()));
  };
  test::TempDir batched_dir("policy_bs8");
  test::TempDir single_dir("policy_bs1");
  const PolicyRun batched = run_at(8, batched_dir);
  const PolicyRun single = run_at(1, single_dir);
  EXPECT_GT(single.result.kpis.due, 0u);
  EXPECT_LT(single.result.kpis.due, single.result.kpis.total);
  EXPECT_EQ(file_bytes(batched.result.fault_bin), file_bytes(single.result.fault_bin));
  EXPECT_EQ(file_bytes(batched.result.results_csv),
            file_bytes(single.result.results_csv));
  EXPECT_EQ(file_bytes(batched.result.fault_free_csv),
            file_bytes(single.result.fault_free_csv));
  EXPECT_EQ(batched.result.kpis.due, single.result.kpis.due);
}

// ---- object detection ----------------------------------------------------

TEST(PolicyIdentityObjDet, PerImageFaultForLaterSlotIsCountedAsSkipped) {
  // A hand-made per_image fault aimed at slot 1 cannot land on a
  // one-image unit.  It is armed past the pass, so the injector counts
  // it under injections.skipped_batch_slot instead of dropping it.
  const data::SyntheticShapesDetection dataset(
      {.size = 4, .min_objects = 1, .max_objects = 2, .seed = 41});
  models::YoloLite detector(models::GridSpec{6, 48, 48}, 3, 3);
  Rng rng(23);
  nn::kaiming_init(detector.network(), rng);

  Scenario s;
  s.target = FaultTarget::kNeurons;
  s.inj_policy = InjectionPolicy::kPerImage;
  s.dataset_size = 4;
  s.num_runs = 1;
  s.max_faults_per_image = 1;
  s.rnd_seed = 7;
  test::TempDir out_dir("policy_det_skip");
  ObjDetCampaignConfig config;
  config.output_dir = out_dir.str();
  TestErrorModelsObjDet harness(detector, dataset, s, config);

  Fault f;  // low mantissa bit of the first conv's first output
  f.target = FaultTarget::kNeurons;
  f.value_type = ValueType::kBitFlip;
  f.batch = 0;
  f.layer = 0;
  f.channel_out = 0;
  f.height = 0;
  f.width = 0;
  f.bit_pos = 0;
  Fault later_slot = f;
  later_slot.batch = 1;
  harness.wrapper().set_fault_matrix(FaultMatrix{{f, later_slot, f, f}});

  const ObjDetCampaignResult result = harness.run();
  EXPECT_EQ(result.ivmod.total, 4u);
  EXPECT_EQ(result.skipped_injections, 1u);
  EXPECT_EQ(counter_value(harness.metrics(), "injections.skipped_batch_slot"), 1u);
  EXPECT_EQ(counter_value(harness.metrics(), "injections.armed"), 4u);
  EXPECT_EQ(counter_value(harness.metrics(), "injections.applied"), 3u);
  const std::vector<InjectionRecord> records = load_injection_records(result.trace_bin);
  EXPECT_EQ(records.size(), 3u);
  for (const InjectionRecord& record : records) {
    EXPECT_NE(record.inference_index, 1u);  // unit 1's fault never landed
  }
}

}  // namespace
}  // namespace alfi::core
