// The classification runner's fault-free cache (DESIGN.md §11.1): a
// one-unit pack whose image and cut are cached skips its fault-free pass
// and starts its armed passes at a root child.  Every campaign that uses
// it must match the plain full recompute (`diff = false`, the CLI's
// --no-diff) byte for byte — results and fault-free CSVs, fault and
// trace bins, and every counter outside the `campaign.diff.*`
// bookkeeping — under every way of executing it: --jobs 1 and 4, a
// two-worker local fleet and an interrupted-then-resumed run.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "core/campaign.h"
#include "core/test_img_class.h"
#include "data/synthetic.h"
#include "io/json.h"
#include "models/classification.h"
#include "nn/layers.h"
#include "test_common.h"

namespace alfi::core {
namespace {

/// The cache budget of one process, split evenly across its runners.
constexpr double kProcessBudgetBytes = 4.0 * 1024 * 1024;

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Interrupt callback that flips to true after `n` polls.
std::function<bool()> interrupt_after(int n) {
  auto counter = std::make_shared<std::atomic<int>>(n);
  return [counter] { return counter->fetch_sub(1) <= 0; };
}

/// How one campaign is executed.
enum class Mode { kJobs1, kJobs4, kFleet, kKillResume };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kJobs1: return "jobs 1";
    case Mode::kJobs4: return "jobs 4";
    case Mode::kFleet: return "2-worker fleet";
    case Mode::kKillResume: return "kill + resume";
  }
  return "?";
}

/// The cache budget of each runner: a --jobs 4 process runs four.
double runner_budget(Mode mode) {
  return mode == Mode::kJobs4 ? kProcessBudgetBytes / 4 : kProcessBudgetBytes;
}

/// What one execution leaves behind: its artifacts, its counters
/// outside `campaign.diff.*` (and outside `fleet.*`, which count
/// leases), the cache hit count and the cache-size gauge.
struct CacheRun {
  ImgClassCampaignResult result;
  std::string counters;
  std::uint64_t golden_hits = 0;
  double cache_bytes = -1.0;
};

struct Campaign {
  nn::Module* model = nullptr;
  const data::ClassificationDataset* dataset = nullptr;
  Scenario scenario;
  std::optional<MitigationKind> mitigation;
  std::size_t unit_batch = 1;
};

CacheRun read_run(const ImgClassCampaignResult& result, const std::string& metrics_path) {
  CacheRun run;
  run.result = result;
  const io::Json metrics = io::read_json_file(metrics_path);
  io::Json kept = io::Json::object();
  for (const auto& [key, value] : metrics.at("counters").as_object()) {
    if (key == "campaign.diff.golden_hits") run.golden_hits = value.as_int();
    if (key.starts_with("campaign.diff.") || key.starts_with("fleet.")) continue;
    kept.as_object()[key] = value;
  }
  run.counters = kept.dump();
  const io::Json& gauges = metrics.at("timing").at("gauges");
  if (gauges.contains("campaign.golden_cache_bytes")) {
    run.cache_bytes = gauges.at("campaign.golden_cache_bytes").as_number();
  }
  return run;
}

/// Runs `campaign` in `mode` with diff on or off, in fresh directories.
CacheRun execute(const Campaign& campaign, Mode mode, bool diff, const std::string& tag) {
  test::TempDir dir(tag);
  ImgClassCampaignConfig config;
  config.model_name = "net";
  config.output_dir = dir.file("out");
  config.mitigation = campaign.mitigation;
  config.diff = diff;
  config.unit_batch = campaign.unit_batch;
  config.metrics_path = dir.file("metrics.json");
  // Ranger's bounds come from the first batch only, so later images'
  // fault-free activations leave them and some cuts must be refused.
  config.calibration_batches = 1;
  if (mode == Mode::kJobs4) config.jobs = 4;
  if (mode == Mode::kFleet) {
    config.checkpoint_dir = dir.file("ckpt");
    config.fleet.local_workers = 2;
    config.fleet.lease_units = 4;
    config.fleet.heartbeat_ms = 50.0;
  }
  if (mode == Mode::kKillResume) {
    config.checkpoint_dir = dir.file("ckpt");
    ImgClassCampaignConfig first = config;
    first.interrupt = interrupt_after(9);
    try {
      TestErrorModelsImgClass harness(*campaign.model, *campaign.dataset,
                                      campaign.scenario, first);
      harness.run();
      ADD_FAILURE() << "expected CampaignInterrupted";
    } catch (const CampaignInterrupted&) {
    }
    config.resume = true;
  }
  TestErrorModelsImgClass harness(*campaign.model, *campaign.dataset, campaign.scenario,
                                  config);
  const ImgClassCampaignResult result = harness.run();
  CacheRun run = read_run(result, config.metrics_path);
  // The artifacts are read before the directory goes away.
  run.result.results_csv = file_bytes(result.results_csv);
  run.result.fault_free_csv = file_bytes(result.fault_free_csv);
  run.result.fault_bin = file_bytes(result.fault_bin);
  run.result.trace_bin = file_bytes(result.trace_bin);
  return run;
}

void expect_identical(const CacheRun& cached, const CacheRun& full, Mode mode) {
  SCOPED_TRACE(mode_name(mode));
  EXPECT_EQ(cached.result.results_csv, full.result.results_csv);
  EXPECT_EQ(cached.result.fault_free_csv, full.result.fault_free_csv);
  EXPECT_EQ(cached.result.fault_bin, full.result.fault_bin);
  EXPECT_EQ(cached.result.trace_bin, full.result.trace_bin);
  EXPECT_EQ(cached.counters, full.counters);
  EXPECT_EQ(cached.result.kpis.sde, full.result.kpis.sde);
  EXPECT_EQ(cached.result.kpis.due, full.result.kpis.due);
  EXPECT_EQ(cached.result.kpis.resil_sde, full.result.kpis.resil_sde);
  EXPECT_EQ(full.golden_hits, 0u);
  EXPECT_LE(cached.cache_bytes, runner_budget(mode));
}

/// Every mode against its --no-diff twin.  Fleet workers ship no
/// counters, so the fleet cannot show its hits; every other mode must
/// have served some unit from the cache.
void check_every_mode(const Campaign& campaign, const std::string& tag) {
  for (const Mode mode : {Mode::kJobs1, Mode::kJobs4, Mode::kFleet, Mode::kKillResume}) {
    const CacheRun full = execute(campaign, mode, /*diff=*/false, tag + "_full");
    const CacheRun cached = execute(campaign, mode, /*diff=*/true, tag + "_cached");
    expect_identical(cached, full, mode);
    if (mode != Mode::kFleet) {
      EXPECT_GT(cached.golden_hits, 0u) << mode_name(mode);
      EXPECT_GT(cached.cache_bytes, 0.0) << mode_name(mode);
    }
  }
}

/// Six images over eight epochs: each --jobs 4 shard covers two epochs,
/// so even a shard sees its images again.
Scenario scenario(FaultTarget target, InjectionPolicy policy, std::size_t faults) {
  Scenario s;
  s.target = target;
  s.value_type = ValueType::kBitFlip;
  s.rnd_bit_range_lo = 23;
  s.rnd_bit_range_hi = 30;
  s.inj_policy = policy;
  s.dataset_size = 6;
  s.num_runs = 8;
  s.max_faults_per_image = faults;
  s.batch_size = 4;
  s.rnd_seed = 4242;
  return s;
}

std::shared_ptr<nn::Sequential> initialized(std::shared_ptr<nn::Sequential> net) {
  Rng rng(17);
  nn::kaiming_init(*net, rng);
  return net;
}

class FaultFreeCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    images_ = new data::SyntheticShapesClassification(
        {.size = 64, .num_classes = 10, .seed = 17});
  }
  static void TearDownTestSuite() {
    delete images_;
    images_ = nullptr;
  }
  static data::SyntheticShapesClassification* images_;
};

data::SyntheticShapesClassification* FaultFreeCacheTest::images_ = nullptr;

TEST_F(FaultFreeCacheTest, LenetWeightsWithRangerMatchFullRecompute) {
  // Weight faults pin packs to one unit: every unit may use the cache,
  // and Ranger's bounds decide which cuts are served.
  const auto net = initialized(models::make_lenet());
  Campaign campaign{net.get(), images_,
                    scenario(FaultTarget::kWeights, InjectionPolicy::kPerImage, 1),
                    MitigationKind::kRanger};
  check_every_mode(campaign, "ffc_lenet");
}

TEST_F(FaultFreeCacheTest, AlexNetNeuronsMatchFullRecompute) {
  // per_batch: a batch's faults land on some of its images only, so the
  // others arm nothing and start their armed passes at the last root
  // child — when Ranger would clamp no fault-free activation before it.
  const auto net = initialized(models::make_mini_alexnet());
  Campaign campaign{net.get(), images_,
                    scenario(FaultTarget::kNeurons, InjectionPolicy::kPerBatch, 2),
                    MitigationKind::kRanger};
  check_every_mode(campaign, "ffc_alexnet");
}

TEST_F(FaultFreeCacheTest, TransformerPerEpochMatchesFullRecompute) {
  // per_epoch: every image of an epoch shares its fault group, and the
  // transformer's root children are blocks of several leaves.
  const data::SyntheticSequenceClassification sequences({.size = 24, .seed = 17});
  const auto net = initialized(models::make_mini_transformer({}));
  Campaign campaign{net.get(), &sequences,
                    scenario(FaultTarget::kNeurons, InjectionPolicy::kPerEpoch, 1),
                    MitigationKind::kRanger};
  check_every_mode(campaign, "ffc_transformer");
}

TEST_F(FaultFreeCacheTest, NonFiniteFaultFreePassCachesNothing) {
  // One +Inf weight makes every fault-free pass set a monitor flag; a
  // hit would lose its NaN/Inf counts, so nothing is cached.
  const auto net = initialized(models::make_mini_alexnet());
  net->children()[0].second->weight_param()->value.flat(0) =
      std::numeric_limits<float>::infinity();
  Campaign campaign{net.get(), images_,
                    scenario(FaultTarget::kNeurons, InjectionPolicy::kPerImage, 1), {}};
  const CacheRun full = execute(campaign, Mode::kJobs1, false, "ffc_inf_full");
  const CacheRun cached = execute(campaign, Mode::kJobs1, true, "ffc_inf_cached");
  expect_identical(cached, full, Mode::kJobs1);
  EXPECT_EQ(cached.golden_hits, 0u);
  EXPECT_EQ(cached.cache_bytes, 0.0);
  EXPECT_NE(cached.counters.find("monitor.inf_total"), std::string::npos);
  EXPECT_GT(cached.result.kpis.due, 0u);
}

TEST_F(FaultFreeCacheTest, SingleRunCampaignLeavesTheGaugeAtZero) {
  // An image's last epoch inserts nothing, so one epoch caches nothing.
  const auto net = initialized(models::make_lenet());
  Scenario single = scenario(FaultTarget::kWeights, InjectionPolicy::kPerImage, 1);
  single.num_runs = 1;
  Campaign campaign{net.get(), images_, single, {}};
  const CacheRun full = execute(campaign, Mode::kJobs1, false, "ffc_single_full");
  const CacheRun cached = execute(campaign, Mode::kJobs1, true, "ffc_single_cached");
  expect_identical(cached, full, Mode::kJobs1);
  EXPECT_EQ(cached.golden_hits, 0u);
  EXPECT_EQ(cached.cache_bytes, 0.0);
}

TEST_F(FaultFreeCacheTest, ResNetStaysWithinTheBudget) {
  // MiniResNet's cut tensors run to hundreds of KB per image: 64 images
  // would need far more than the budget, which caps the cache — at
  // --jobs 4 each of the four runners keeps a quarter of it.
  const auto net = initialized(models::make_mini_resnet());
  Scenario s = scenario(FaultTarget::kNeurons, InjectionPolicy::kPerImage, 1);
  s.dataset_size = 64;
  s.num_runs = 3;
  Campaign campaign{net.get(), images_, s, {}};
  for (const Mode mode : {Mode::kJobs1, Mode::kJobs4}) {
    const CacheRun full = execute(campaign, mode, false, "ffc_resnet_full");
    const CacheRun cached = execute(campaign, mode, true, "ffc_resnet_cached");
    expect_identical(cached, full, mode);
    EXPECT_GT(cached.cache_bytes, runner_budget(mode) / 2) << mode_name(mode);
    if (mode == Mode::kJobs1) {
      EXPECT_GT(cached.golden_hits, 0u);
    }
  }
}

}  // namespace
}  // namespace alfi::core
