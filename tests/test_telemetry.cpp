// Campaign-level telemetry tests: the determinism contract of
// metrics.json across --jobs, and the skipped-injection accounting for
// per-batch faults aimed past a short final batch.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/test_img_class.h"
#include "data/synthetic.h"
#include "io/json.h"
#include "models/classification.h"
#include "models/train.h"
#include "test_common.h"

namespace alfi::core {
namespace {

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Shared trained LeNet + dataset, mirroring test_harness.cpp.
class TelemetryCampaign : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesClassification(
        {.size = 32, .num_classes = 4, .seed = 29});
    owned_model_ = models::make_lenet({.num_classes = 4});
    model_ = owned_model_.get();
    models::TrainConfig config;
    config.epochs = 6;
    config.batch_size = 16;
    config.learning_rate = 0.02f;
    models::train_classifier(*model_, *dataset_, config);
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    owned_model_.reset();
  }

  static Scenario scenario() {
    Scenario s;
    s.target = FaultTarget::kWeights;
    s.value_type = ValueType::kBitFlip;
    s.rnd_bit_range_lo = 24;
    s.rnd_bit_range_hi = 30;
    s.dataset_size = 16;
    s.batch_size = 4;
    s.max_faults_per_image = 1;
    s.rnd_seed = 91;
    return s;
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> owned_model_;
  static nn::Module* model_;
};

data::SyntheticShapesClassification* TelemetryCampaign::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> TelemetryCampaign::owned_model_;
nn::Module* TelemetryCampaign::model_ = nullptr;

TEST_F(TelemetryCampaign, MetricsFileByteIdenticalAcrossJobsModuloTiming) {
  // Same scenario + seed at --jobs 1 and --jobs 4: the counters commute
  // across workers, so everything outside the single `timing` field
  // must be byte-identical.
  test::TempDir dir("telemetry");
  const std::string path1 = dir.str() + "/metrics_j1.json";
  const std::string path4 = dir.str() + "/metrics_j4.json";

  ImgClassCampaignConfig config1;
  config1.jobs = 1;
  config1.metrics_path = path1;
  TestErrorModelsImgClass first(*model_, *dataset_, scenario(), config1);
  first.run();

  ImgClassCampaignConfig config4;
  config4.jobs = 4;
  config4.metrics_path = path4;
  TestErrorModelsImgClass second(*model_, *dataset_, scenario(), config4);
  second.run();

  ASSERT_TRUE(std::filesystem::exists(path1));
  ASSERT_TRUE(std::filesystem::exists(path4));

  // Atomic write: the rename must leave no temp file behind.
  for (const auto& entry : std::filesystem::directory_iterator(dir.str())) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << "leftover temp file: " << entry.path();
  }

  io::Json doc1 = io::Json::parse(read_text(path1));
  io::Json doc4 = io::Json::parse(read_text(path4));

  EXPECT_EQ(doc1.at("schema").as_string(), "alfi-metrics-v1");
  EXPECT_EQ(doc1.at("task").as_string(), "imgclass");
  EXPECT_EQ(doc1.at("counters").at("units.total").as_int(), 16);
  EXPECT_EQ(doc1.at("counters").at("units.computed").as_int(), 16);
  EXPECT_EQ(doc1.at("counters").at("injections.armed").as_int(), 16);
  EXPECT_EQ(doc4.at("timing").at("jobs").as_int(), 4);

  // Null the documented wall-clock field; the rest is the contract.
  doc1["timing"] = io::Json();
  doc4["timing"] = io::Json();
  EXPECT_EQ(doc1.dump(2), doc4.dump(2));
}

TEST_F(TelemetryCampaign, RegistryReadableWithoutMetricsFile) {
  ImgClassCampaignConfig config;  // no metrics_path, no outputs
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), config);
  const auto result = harness.run();
  EXPECT_EQ(result.kpis.total, 16u);

  const auto counters = harness.metrics().counters();
  bool saw_units_total = false;
  for (const auto& [name, value] : counters) {
    if (name == "units.total") {
      saw_units_total = true;
      EXPECT_EQ(value, 16u);
    }
  }
  EXPECT_TRUE(saw_units_total);

  bool saw_unit_ms = false;
  for (const auto& [name, hist] : harness.metrics().histograms()) {
    if (name == "campaign.unit_ms") {
      saw_unit_ms = true;
      EXPECT_EQ(hist->count(), 16u);
      EXPECT_GE(hist->percentile(95.0), hist->percentile(50.0));
    }
  }
  EXPECT_TRUE(saw_unit_ms);
}

TEST_F(TelemetryCampaign, ShortFinalBatchRemapsSlotInsteadOfSkipping) {
  // per_batch with dataset_size 10 / batch_size 8: the final batch has
  // two images, so a neuron fault drawn for batch slot 7 cannot land
  // there as drawn.  It used to be silently dropped (counted as
  // skipped, but the unit was still scored as if injected); now the
  // armed copy is remapped onto the batch's occupancy (7 % 2 = slot 1)
  // so every drawn fault corrupts a scored image.
  const data::SyntheticShapesClassification short_dataset(
      {.size = 10, .num_classes = 4, .seed = 29});

  Scenario s;
  s.target = FaultTarget::kNeurons;
  s.inj_policy = InjectionPolicy::kPerBatch;
  s.dataset_size = 10;
  s.batch_size = 8;
  s.max_faults_per_image = 1;
  s.rnd_seed = 7;

  ImgClassCampaignConfig config;
  TestErrorModelsImgClass harness(*model_, short_dataset, s, config);

  // Two batches -> two fault groups, both aimed at the last slot of a
  // full batch.  Low mantissa bit on the first conv output: valid
  // everywhere, numerically harmless.
  Fault f;
  f.target = FaultTarget::kNeurons;
  f.value_type = ValueType::kBitFlip;
  f.batch = 7;
  f.layer = 0;
  f.channel_out = 0;
  f.height = 0;
  f.width = 0;
  f.bit_pos = 0;
  harness.wrapper().set_fault_matrix(FaultMatrix{{f, f}});

  const auto result = harness.run();
  EXPECT_EQ(result.kpis.total, 10u);
  // Batch 0 has 8 images (slot 7 exists, so the fault lands on image 7
  // as drawn); batch 1 scores 2, so its fault lands on slot 7 % 2 = 1,
  // image 9.  Nothing is skipped and each batch records one
  // application, in per-unit form: batch 0 under the unit's index.
  EXPECT_EQ(result.skipped_injections, 0u);
  for (const auto& [name, value] : harness.metrics().counters()) {
    if (name == "injections.skipped_batch_slot") {
      EXPECT_EQ(value, 0u);
    }
    if (name == "injections.applied") {
      EXPECT_EQ(value, 2u);
    }
  }
  const auto& records = harness.wrapper().records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].fault.batch, 0);
  EXPECT_EQ(records[0].inference_index, 7u);  // full batch: slot as drawn
  EXPECT_EQ(records[1].fault.batch, 0);
  EXPECT_EQ(records[1].inference_index, 9u);  // short batch: 7 % 2
}

}  // namespace
}  // namespace alfi::core
