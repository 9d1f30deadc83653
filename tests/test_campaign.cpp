// CampaignRunner: deterministic sharding and the parallel classification
// campaign's byte-identity guarantee (--jobs 1 vs --jobs N).
#include "core/campaign.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>

#include "core/test_img_class.h"
#include "data/synthetic.h"
#include "models/classification.h"
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

TEST(CampaignShards, PartitionCoversAllUnitsContiguously) {
  for (const std::size_t count : {1u, 7u, 12u, 100u}) {
    for (const std::size_t jobs : {1u, 2u, 3u, 4u, 16u, 200u}) {
      const auto shards = CampaignRunner::shard_columns(count, jobs);
      ASSERT_FALSE(shards.empty());
      EXPECT_LE(shards.size(), jobs);
      EXPECT_LE(shards.size(), count);
      EXPECT_EQ(shards.front().begin, 0u);
      EXPECT_EQ(shards.back().end, count);
      for (std::size_t i = 0; i < shards.size(); ++i) {
        EXPECT_EQ(shards[i].index, i);
        EXPECT_GT(shards[i].size(), 0u);
        if (i > 0) {
          EXPECT_EQ(shards[i].begin, shards[i - 1].end);
        }
      }
    }
  }
}

TEST(CampaignShards, EmptyCampaignYieldsNoShards) {
  EXPECT_TRUE(CampaignRunner::shard_columns(0, 4).empty());
}

TEST(CampaignShards, NearEqualSizes) {
  const auto shards = CampaignRunner::shard_columns(10, 4);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[0].size(), 3u);  // 10 = 3 + 3 + 2 + 2
  EXPECT_EQ(shards[1].size(), 3u);
  EXPECT_EQ(shards[2].size(), 2u);
  EXPECT_EQ(shards[3].size(), 2u);
}

TEST(CampaignShards, ShardRngDependsOnRangeNotJobCount) {
  // The partition is a pure function of (count, jobs): a shard carries
  // its merge index and range and nothing else — no per-shard RNG
  // stream, no seed — so equal geometry always shards identically.
  static_assert(sizeof(CampaignShard) == 3 * sizeof(std::size_t),
                "a shard is its index and [begin, end) only");
  for (const std::size_t count : {1u, 8u, 13u}) {
    for (const std::size_t jobs : {1u, 2u, 4u, 16u}) {
      const auto a = CampaignRunner::shard_columns(count, jobs);
      const auto b = CampaignRunner::shard_columns(count, jobs);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].begin, b[i].begin);
        EXPECT_EQ(a[i].end, b[i].end);
      }
    }
  }
}

TEST(CampaignRunnerTest, ExecutesEveryShardExactlyOnce) {
  const CampaignRunner runner(4);
  const auto shards = CampaignRunner::shard_columns(10, runner.jobs());
  std::vector<std::atomic<int>> hits(10);
  runner.run_shards(shards, [&hits](const CampaignShard& shard) {
    for (std::size_t t = shard.begin; t < shard.end; ++t) hits[t]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CampaignRunnerTest, WorkerExceptionReachesCaller) {
  const CampaignRunner runner(4);
  const auto shards = CampaignRunner::shard_columns(8, runner.jobs());
  ASSERT_GT(shards.size(), 1u);
  EXPECT_THROW(runner.run_shards(shards,
                                 [](const CampaignShard& shard) {
                                   if (shard.index == 1) {
                                     throw Error("worker boom");
                                   }
                                 }),
               Error);
}

TEST(CampaignRunnerTest, DefaultJobCountIsPositive) {
  EXPECT_GE(CampaignRunner::default_job_count(), 1u);
  EXPECT_EQ(CampaignRunner(0).jobs(), CampaignRunner::default_job_count());
  EXPECT_EQ(CampaignRunner(3).jobs(), 3u);
}

/// Shared AlexNet + dataset for the determinism tests.  Weights are
/// deterministically initialized (not trained) — byte-identity of the
/// campaign outputs does not depend on accuracy.
class ParallelCampaign : public ::testing::Test {
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

  ImgClassCampaignResult run_campaign(std::size_t jobs, const std::string& dir,
                                      FaultTarget target,
                                      std::optional<MitigationKind> mitigation) {
    ImgClassCampaignConfig config;
    config.model_name = "alexnet";
    config.output_dir = dir;
    config.mitigation = mitigation;
    config.jobs = jobs;
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(target), config);
    return harness.run();
  }

  void expect_identical_outputs(const ImgClassCampaignResult& a,
                                const ImgClassCampaignResult& b) {
    EXPECT_EQ(file_bytes(a.results_csv), file_bytes(b.results_csv));
    EXPECT_EQ(file_bytes(a.fault_free_csv), file_bytes(b.fault_free_csv));
    EXPECT_EQ(file_bytes(a.fault_bin), file_bytes(b.fault_bin));
    EXPECT_EQ(file_bytes(a.trace_bin), file_bytes(b.trace_bin));
    EXPECT_EQ(a.kpis.total, b.kpis.total);
    EXPECT_EQ(a.kpis.sde, b.kpis.sde);
    EXPECT_EQ(a.kpis.due, b.kpis.due);
    EXPECT_EQ(a.kpis.orig_correct, b.kpis.orig_correct);
    EXPECT_EQ(a.kpis.faulty_correct, b.kpis.faulty_correct);
    EXPECT_EQ(a.kpis.resil_sde, b.kpis.resil_sde);
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* ParallelCampaign::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> ParallelCampaign::model_;

TEST_F(ParallelCampaign, NeuronCampaignIsByteIdenticalAcrossJobCounts) {
  test::TempDir serial_dir("campaign_j1");
  test::TempDir parallel_dir("campaign_j4");
  const auto serial =
      run_campaign(1, serial_dir.str(), FaultTarget::kNeurons, std::nullopt);
  const auto parallel =
      run_campaign(4, parallel_dir.str(), FaultTarget::kNeurons, std::nullopt);
  EXPECT_EQ(serial.kpis.total, 24u);  // 12 images * 2 runs
  expect_identical_outputs(serial, parallel);
}

TEST_F(ParallelCampaign, UnevenShardsStayByteIdentical) {
  // 24 steps over 5 jobs: shard sizes 5,5,5,5,4 — exercises the
  // remainder distribution and merge order.
  test::TempDir serial_dir("campaign_j1u");
  test::TempDir parallel_dir("campaign_j5");
  const auto serial =
      run_campaign(1, serial_dir.str(), FaultTarget::kNeurons, std::nullopt);
  const auto parallel =
      run_campaign(5, parallel_dir.str(), FaultTarget::kNeurons, std::nullopt);
  expect_identical_outputs(serial, parallel);
}

TEST_F(ParallelCampaign, WeightCampaignWithMitigationIsByteIdentical) {
  // Weight faults mutate each worker's own replica; the hardened pass
  // uses per-worker Protection over shared calibration bounds.
  test::TempDir serial_dir("campaign_w1");
  test::TempDir parallel_dir("campaign_w4");
  const auto serial = run_campaign(1, serial_dir.str(), FaultTarget::kWeights,
                                   MitigationKind::kRanger);
  const auto parallel = run_campaign(4, parallel_dir.str(), FaultTarget::kWeights,
                                     MitigationKind::kRanger);
  expect_identical_outputs(serial, parallel);
}

TEST_F(ParallelCampaign, JobsZeroSelectsHardwareConcurrency) {
  test::TempDir dir("campaign_j0");
  const auto result =
      run_campaign(0, dir.str(), FaultTarget::kNeurons, std::nullopt);
  EXPECT_EQ(result.kpis.total, 24u);
}

}  // namespace
}  // namespace alfi::core
