// Fault-cone replay (DESIGN.md §12) at campaign scale: armed passes
// recompute only what each row's faults reach of the fault-free pass,
// and must still match the plain full recompute (`diff = false`, the
// CLI's --no-diff) byte for byte — results and fault-free CSVs, fault
// and trace bins, journals, KPIs and every counter outside the
// `campaign.diff.*` bookkeeping — at --unit-batch 1, 4 and 16 under
// --jobs 1 and 4, and across an interrupt and resume.
//
// The neuron campaigns flip any of the 32 bits of two neurons per image,
// so some faults wash out (a low mantissa bit a ReLU or a max-pool
// drops), some spread and some end as NaN/Inf DUEs.  Ranger is
// calibrated on the first batch only, so its hooks also clamp rows no
// fault reached.  MiniResNet joins a main path and a skip whose cones
// differ (one may be clean while the other is dirty); MiniAlexNet runs
// max-pools, a flatten and linear layers behind its convs.  The weight
// campaign flips any bit of two LeNet weights per image: one-unit passes
// whose corrupted leaves compute in full while the leaves before them
// are served, and the fault-free cache serves later epochs.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "core/campaign.h"
#include "core/test_img_class.h"
#include "data/synthetic.h"
#include "io/json.h"
#include "models/classification.h"
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

/// Interrupt callback that flips to true after `n` polls.
std::function<bool()> interrupt_after(int n) {
  auto counter = std::make_shared<std::atomic<int>>(n);
  return [counter] { return counter->fetch_sub(1) <= 0; };
}

/// One execution of a campaign.
struct Execution {
  std::size_t unit_batch = 1;
  std::size_t jobs = 1;
  bool diff = true;
  bool interrupt_and_resume = false;
};

std::string describe(const Execution& e) {
  return "unit-batch " + std::to_string(e.unit_batch) + ", jobs " +
         std::to_string(e.jobs) + (e.diff ? "" : ", no diff") +
         (e.interrupt_and_resume ? ", interrupted + resumed" : "");
}

/// What one execution leaves behind: its artifacts and KPIs, its
/// counters outside `campaign.diff.*`, the rows the cone served, and its
/// journal (comparable at --jobs 1 only: shards interleave frames).
struct Outcome {
  ImgClassCampaignResult result;
  std::string results_csv, fault_free_csv, fault_bin, trace_bin, journal;
  std::string counters;
  std::int64_t rows_skipped = 0;
};

Outcome execute(nn::Module& model, const data::ClassificationDataset& dataset,
                const Scenario& scenario, const Execution& e) {
  test::TempDir dir("cone");
  ImgClassCampaignConfig config;
  config.model_name = "net";
  config.output_dir = dir.file("out");
  config.mitigation = MitigationKind::kRanger;
  config.calibration_batches = 1;
  config.diff = e.diff;
  config.unit_batch = e.unit_batch;
  config.jobs = e.jobs;
  config.metrics_path = dir.file("metrics.json");
  config.checkpoint_dir = dir.file("ckpt");
  if (e.interrupt_and_resume) {
    ImgClassCampaignConfig first = config;
    first.interrupt = interrupt_after(2);
    try {
      TestErrorModelsImgClass harness(model, dataset, scenario, first);
      harness.run();
      ADD_FAILURE() << "expected CampaignInterrupted";
    } catch (const CampaignInterrupted&) {
    }
    config.resume = true;
  }
  TestErrorModelsImgClass harness(model, dataset, scenario, config);
  Outcome out;
  out.result = harness.run();
  out.results_csv = file_bytes(out.result.results_csv);
  out.fault_free_csv = file_bytes(out.result.fault_free_csv);
  out.fault_bin = file_bytes(out.result.fault_bin);
  out.trace_bin = file_bytes(out.result.trace_bin);
  out.journal = file_bytes(CampaignExecutor::journal_path(config.checkpoint_dir));
  const io::Json counters = io::read_json_file(config.metrics_path).at("counters");
  io::Json kept = io::Json::object();
  for (const auto& [key, value] : counters.as_object()) {
    if (key == "campaign.diff.rows_skipped") out.rows_skipped = value.as_int();
    if (key.starts_with("campaign.diff.")) continue;
    kept.as_object()[key] = value;
  }
  out.counters = kept.dump();
  return out;
}

/// Four images over sixteen epochs, two faults per image on any bit: at
/// --jobs 1 the packs hold up to 16 rows of one image, at --jobs 4 each
/// 16-unit shard packs four epochs of its images.  `seed` picks a fault
/// matrix with both washed-out faults and DUEs.
Scenario all_bits_scenario(std::uint64_t seed) {
  Scenario s;
  s.target = FaultTarget::kNeurons;
  s.value_type = ValueType::kBitFlip;
  s.rnd_bit_range_lo = 0;
  s.rnd_bit_range_hi = 31;
  s.inj_policy = InjectionPolicy::kPerImage;
  s.dataset_size = 4;
  s.num_runs = 16;
  s.max_faults_per_image = 2;
  s.batch_size = 4;
  s.rnd_seed = seed;
  return s;
}

void expect_identical(const Outcome& run, const Outcome& reference) {
  EXPECT_EQ(run.results_csv, reference.results_csv);
  EXPECT_EQ(run.fault_free_csv, reference.fault_free_csv);
  EXPECT_EQ(run.fault_bin, reference.fault_bin);
  EXPECT_EQ(run.trace_bin, reference.trace_bin);
  EXPECT_EQ(run.journal, reference.journal);
  EXPECT_EQ(run.result.kpis.sde, reference.result.kpis.sde);
  EXPECT_EQ(run.result.kpis.due, reference.result.kpis.due);
  EXPECT_EQ(run.result.kpis.resil_sde, reference.result.kpis.resil_sde);
  EXPECT_EQ(run.result.kpis.faulty_correct, reference.result.kpis.faulty_correct);
}

/// Every execution of the grid (`unit_batches` × --jobs 1/4, and an
/// interrupt + resume at the first and last unit batch, --jobs 1) against
/// the serial --no-diff reference.  A resumed campaign counts only what
/// its second process computed, so its counters are compared with a
/// --no-diff run interrupted alike.
void check_grid(nn::Module& model, const data::ClassificationDataset& dataset,
                const Scenario& scenario,
                const std::vector<std::size_t>& unit_batches = {1, 4, 16}) {
  const Outcome reference = execute(model, dataset, scenario, {1, 1, false, false});
  // The campaign must exercise what the cone has to get right.
  EXPECT_GT(reference.result.kpis.due, 0u) << "no fault ended as a NaN/Inf DUE";
  EXPECT_LT(reference.result.kpis.sde + reference.result.kpis.due,
            reference.result.kpis.total)
      << "no fault washed out";

  std::vector<Execution> grid;
  for (const std::size_t unit_batch : unit_batches) {
    for (const std::size_t jobs : {1, 4}) grid.push_back({unit_batch, jobs, true, false});
  }
  grid.push_back({unit_batches.back(), 1, true, true});
  if (unit_batches.size() > 1) grid.push_back({unit_batches[1], 1, true, true});
  for (const Execution& e : grid) {
    SCOPED_TRACE(describe(e));
    const Outcome run = execute(model, dataset, scenario, e);
    Outcome artifacts = run;
    if (e.jobs > 1) artifacts.journal = reference.journal;  // shards interleave frames
    if (e.interrupt_and_resume) {
      const Outcome resumed_full =
          execute(model, dataset, scenario, {e.unit_batch, e.jobs, false, true});
      artifacts.journal = reference.journal;  // a resumed journal holds two processes
      expect_identical(run, resumed_full);
      EXPECT_EQ(run.counters, resumed_full.counters);
    } else {
      EXPECT_EQ(run.counters, reference.counters);
    }
    expect_identical(artifacts, reference);
    EXPECT_GT(run.rows_skipped, 0) << "the cone served no row";
  }
}

std::shared_ptr<nn::Sequential> initialized(std::shared_ptr<nn::Sequential> net) {
  Rng rng(17);
  nn::kaiming_init(*net, rng);
  return net;
}

TEST(ConeIdentity, MiniResNetSameImagePacksMatchFullRecompute) {
  const data::SyntheticShapesClassification images(
      {.size = 8, .num_classes = 10, .seed = 17});
  const auto net = initialized(models::make_mini_resnet());
  check_grid(*net, images, all_bits_scenario(2824));
}

TEST(ConeIdentity, MiniAlexNetSameImagePacksMatchFullRecompute) {
  const data::SyntheticShapesClassification images(
      {.size = 8, .num_classes = 10, .seed = 17});
  const auto net = initialized(models::make_mini_alexnet());
  check_grid(*net, images, all_bits_scenario(2810));
}

TEST(ConeIdentity, LeNetWeightFaultsMatchFullRecompute) {
  // Weight faults pin every pack to one unit, so --unit-batch 1 is the
  // whole grid.  fc1's weights are scaled by 16 so that some lie in
  // [1, 2), where a flip of bit 30 makes an Inf: freshly initialized
  // weights are too small for any flip to end as a DUE.
  const data::SyntheticShapesClassification images(
      {.size = 8, .num_classes = 10, .seed = 17});
  const auto net = initialized(models::make_lenet());
  for (float& v : net->children()[7].second->weight_param()->value.data()) v *= 16.0f;
  Scenario scenario = all_bits_scenario(2814);
  scenario.target = FaultTarget::kWeights;
  check_grid(*net, images, scenario, {1});
}

}  // namespace
}  // namespace alfi::core
