// Adaptive campaign steering (core/steering.h, DESIGN.md §16):
//   * Wilson interval properties — vacuous at n=0, exact endpoints at
//     p=0 / p=1, bounds always inside [0, 1], monotone narrowing;
//   * SteeringPolicy planning — full coverage when uncapped, hard
//     budget cap, early stopping of decided cells, replay determinism;
//   * budgeted partial campaigns — the completion-accounting regression
//     (finalize used to assume completed == total), KPI rates over
//     executed units only, checkpoint + resume mid-budget;
//   * plan determinism end to end — byte-identical
//     vulnerability_map.json and results CSV across --jobs 1, --jobs 4,
//     a 3-worker local fleet and --unit-batch 1/4 (steered rounds pack);
//   * ranking reproduction — a budgeted run at <= 50% of the
//     exhaustive units reproduces the exhaustive top-5 layer ranking on
//     the LeNet CNN and the MiniTransformer attention workload.
#include "core/steering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "core/campaign.h"
#include "core/test_img_class.h"
#include "data/synthetic.h"
#include "io/vulnerability_map.h"
#include "models/classification.h"
#include "nn/layers.h"
#include "test_common.h"
#include "util/wilson.h"

namespace alfi::core {
namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- Wilson interval properties ---------------------------------------------

TEST(Wilson, ZeroSamplesIsVacuous) {
  const auto interval = util::wilson_interval(0, 0, 1.96);
  EXPECT_DOUBLE_EQ(interval.lo, 0.0);
  EXPECT_DOUBLE_EQ(interval.hi, 1.0);
  EXPECT_DOUBLE_EQ(interval.half_width(), 0.5);
}

TEST(Wilson, ZeroSuccessesPinsLowerBound) {
  for (const std::size_t n : {1u, 5u, 50u, 5000u}) {
    const auto interval = util::wilson_interval(0, n, 1.96);
    EXPECT_DOUBLE_EQ(interval.lo, 0.0) << "n=" << n;
    EXPECT_GT(interval.hi, 0.0) << "n=" << n;
    EXPECT_LT(interval.hi, 1.0) << "n=" << n;
  }
}

TEST(Wilson, AllSuccessesPinsUpperBound) {
  for (const std::size_t n : {1u, 5u, 50u, 5000u}) {
    const auto interval = util::wilson_interval(n, n, 1.96);
    EXPECT_DOUBLE_EQ(interval.hi, 1.0) << "n=" << n;
    EXPECT_GT(interval.lo, 0.0) << "n=" << n;
    EXPECT_LT(interval.lo, 1.0) << "n=" << n;
  }
}

TEST(Wilson, BoundsStayInsideUnitInterval) {
  for (const double z : {0.5, 1.0, 1.96, 3.0}) {
    for (std::size_t n = 1; n <= 40; ++n) {
      for (std::size_t s = 0; s <= n; ++s) {
        const auto interval = util::wilson_interval(s, n, z);
        EXPECT_GE(interval.lo, 0.0) << s << "/" << n << " z=" << z;
        EXPECT_LE(interval.hi, 1.0) << s << "/" << n << " z=" << z;
        EXPECT_LE(interval.lo, interval.hi) << s << "/" << n << " z=" << z;
        // The point estimate always lies inside its own interval.
        const double p = static_cast<double>(s) / static_cast<double>(n);
        EXPECT_LE(interval.lo, p + 1e-12);
        EXPECT_GE(interval.hi, p - 1e-12);
      }
    }
  }
}

TEST(Wilson, HalfWidthNarrowsMonotonicallyWithSamples) {
  // Fixed p = 1/2 (widest case) at growing n: the half-width must
  // shrink strictly — the property the early-stopping rule rests on.
  double previous = 1.0;
  for (std::size_t n = 2; n <= 4096; n *= 2) {
    const auto interval = util::wilson_interval(n / 2, n, 1.96);
    EXPECT_LT(interval.half_width(), previous) << "n=" << n;
    previous = interval.half_width();
  }
  // p = 0 narrows the same way.
  previous = 1.0;
  for (std::size_t n = 2; n <= 4096; n *= 2) {
    const auto interval = util::wilson_interval(0, n, 1.96);
    EXPECT_LT(interval.half_width(), previous) << "n=" << n;
    previous = interval.half_width();
  }
}

// ---- SteeringPolicy planning ------------------------------------------------

/// 24 units over 4 cells: layer t%4, bit 28, one fault type.
std::vector<SteeringCellKey> synthetic_cells(std::size_t units = 24,
                                             std::size_t layers = 4) {
  std::vector<SteeringCellKey> cells(units);
  for (std::size_t t = 0; t < units; ++t) {
    cells[t].layer = static_cast<std::int64_t>(t % layers);
    cells[t].bit_pos = 28;
    cells[t].value_type = ValueType::kBitFlip;
    cells[t].role = "conv2d";
  }
  return cells;
}

TEST(SteeringPolicy, UncappedPlansEveryUnitExactlyOnce) {
  SteeringOptions options;
  options.round_units = 5;
  SteeringPolicy policy(synthetic_cells(), options);
  std::vector<char> planned(24, 0);
  for (auto round = policy.plan_round(); !round.empty();
       round = policy.plan_round()) {
    EXPECT_LE(round.size(), 5u);
    EXPECT_TRUE(std::is_sorted(round.begin(), round.end()));
    for (const std::size_t t : round) {
      EXPECT_FALSE(planned[t]) << "unit " << t << " planned twice";
      planned[t] = 1;
      policy.record(t, {});
    }
  }
  for (std::size_t t = 0; t < 24; ++t) EXPECT_TRUE(planned[t]) << "unit " << t;
  EXPECT_EQ(policy.planned_units(), 24u);
}

TEST(SteeringPolicy, BudgetIsAHardCap) {
  SteeringOptions options;
  options.budget = 10;
  options.round_units = 4;
  SteeringPolicy policy(synthetic_cells(), options);
  std::size_t executed = 0;
  for (auto round = policy.plan_round(); !round.empty();
       round = policy.plan_round()) {
    executed += round.size();
    for (const std::size_t t : round) policy.record(t, {});
  }
  EXPECT_EQ(executed, 10u);
  EXPECT_EQ(policy.planned_units(), 10u);
}

TEST(SteeringPolicy, RoundsSpreadAcrossCellsBeforeDeepening) {
  SteeringOptions options;
  options.round_units = 4;  // one unit per cell per round
  SteeringPolicy policy(synthetic_cells(), options);
  const auto round = policy.plan_round();
  ASSERT_EQ(round.size(), 4u);
  std::set<std::int64_t> layers;
  for (const std::size_t t : round) layers.insert(t % 4);
  EXPECT_EQ(layers.size(), 4u) << "first round must touch every cell";
}

TEST(SteeringPolicy, DecidedCellsStopConsumingBudget) {
  // Cell 0 is fed all-SDC outcomes: its interval collapses toward p=1
  // and the early-stopping rule must retire it while the undecided
  // cells keep sampling.
  SteeringOptions options;
  options.steer = true;
  options.min_cell_samples = 4;
  options.half_width = 0.25;  // loose: decided after a handful of samples
  options.round_units = 4;
  SteeringPolicy policy(synthetic_cells(48, 4), options);
  std::size_t cell0_samples = 0;
  for (auto round = policy.plan_round(); !round.empty();
       round = policy.plan_round()) {
    for (const std::size_t t : round) {
      SteeringUnitOutcome outcome;
      outcome.sdc = (t % 4) == 0;  // cell 0 always-SDC; others always-masked
      policy.record(t, outcome);
      cell0_samples += (t % 4) == 0 ? 1 : 0;
    }
  }
  // All cells converge fast under the loose threshold: none runs dry.
  EXPECT_LT(cell0_samples, 12u) << "decided cell kept consuming budget";
  EXPECT_LT(policy.planned_units(), 48u);
}

TEST(SteeringPolicy, SkippedOutcomesDoNotDecideCells) {
  SteeringOptions options;
  options.steer = true;
  options.min_cell_samples = 2;
  options.half_width = 0.49;
  options.round_units = 4;
  SteeringPolicy policy(synthetic_cells(16, 1), options);
  // Every outcome skipped: applied() stays 0, the interval stays
  // vacuous and the cell must be sampled to exhaustion.
  std::size_t executed = 0;
  for (auto round = policy.plan_round(); !round.empty();
       round = policy.plan_round()) {
    executed += round.size();
    for (const std::size_t t : round) {
      SteeringUnitOutcome outcome;
      outcome.skipped = true;
      policy.record(t, outcome);
    }
  }
  EXPECT_EQ(executed, 16u);
}

TEST(SteeringPolicy, ReplayedPlannerReproducesThePlanExactly) {
  // The resume contract: a second policy fed the identical outcome
  // stream must emit the identical round sequence.
  SteeringOptions options;
  options.budget = 30;
  options.steer = true;
  options.min_cell_samples = 3;
  options.half_width = 0.3;
  options.round_units = 7;
  const auto outcome_for = [](std::size_t t) {
    SteeringUnitOutcome outcome;
    outcome.sdc = t % 3 == 0;
    outcome.due = t % 5 == 0;
    outcome.skipped = t % 11 == 0;
    return outcome;
  };
  const auto run = [&] {
    SteeringPolicy policy(synthetic_cells(48, 6), options);
    std::vector<std::vector<std::size_t>> rounds;
    for (auto round = policy.plan_round(); !round.empty();
         round = policy.plan_round()) {
      for (const std::size_t t : round) policy.record(t, outcome_for(t));
      rounds.push_back(std::move(round));
    }
    return rounds;
  };
  EXPECT_EQ(run(), run());
}

// ---- budgeted campaigns (completion-accounting regression) ------------------

class SteeredImgClass : public ::testing::Test {
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
    s.rnd_bit_range_lo = 24;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.dataset_size = 12;
    s.num_runs = 2;
    s.max_faults_per_image = 1;
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

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* SteeredImgClass::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> SteeredImgClass::model_;

TEST_F(SteeredImgClass, BudgetedCampaignFinalizesOverExecutedUnitsOnly) {
  // The regression: finalization used to absorb all unit_count() slots,
  // assuming completed == total.  A budgeted campaign completes with 10
  // of 24 units executed — it must finalize cleanly and report KPI
  // rates over the 10 executed units, not 24.
  test::TempDir out_dir("steer_budget");
  auto c = config(out_dir.str());
  c.jobs = 1;
  c.steering.budget = 10;
  c.steering.map_path = out_dir.file("map.json");
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
  const auto result = harness.run();

  EXPECT_EQ(result.kpis.total, 10u);
  EXPECT_LE(result.kpis.sde + result.kpis.due, 10u);

  const auto map = io::read_vulnerability_map(c.steering.map_path);
  EXPECT_EQ(map.units_executed, 10u);
  EXPECT_EQ(map.exhaustive_units, 24u);
  EXPECT_EQ(map.budget_requested, 10u);
  EXPECT_NEAR(map.unit_fraction, 10.0 / 24.0, 1e-12);
  std::size_t sampled = 0;
  for (const auto& cell : map.cells) sampled += cell.sampled;
  EXPECT_EQ(sampled, 10u);

  // The results CSV carries exactly the executed units' rows.
  std::size_t rows = 0;
  std::istringstream csv(file_bytes(result.results_csv));
  for (std::string line; std::getline(csv, line);) ++rows;
  EXPECT_EQ(rows, 1u + 10u);  // header + one row per executed unit
}

TEST_F(SteeredImgClass, BudgetedCampaignCheckpointsAndResumes) {
  // Budgeted reference, uninterrupted.
  test::TempDir ref_dir("steer_res_ref");
  test::TempDir ref_ckp("steer_res_ref_ckp");
  ImgClassCampaignResult reference;
  {
    auto c = config(ref_dir.str());
    c.jobs = 1;
    c.checkpoint_dir = ref_ckp.str();
    c.steering.budget = 14;
    c.steering.map_path = ref_dir.str() + "/map.json";
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
    reference = harness.run();
  }

  // Same campaign, interrupted mid-budget, then resumed.
  test::TempDir out_dir("steer_res_out");
  test::TempDir ckp_dir("steer_res_ckp");
  auto first = config(out_dir.str());
  first.jobs = 1;
  first.checkpoint_dir = ckp_dir.str();
  first.steering.budget = 14;
  first.steering.map_path = out_dir.str() + "/map.json";
  auto polls = std::make_shared<int>(6);
  first.interrupt = [polls] { return --*polls <= 0; };
  std::size_t completed_at_interrupt = 0;
  try {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted& e) {
    completed_at_interrupt = e.completed_units();
    EXPECT_LT(completed_at_interrupt, 14u);
  }

  auto second = config(out_dir.str());
  second.jobs = 1;
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  second.steering.budget = 14;
  second.steering.map_path = out_dir.str() + "/map.json";
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), second);
  const auto resumed = harness.run();

  EXPECT_EQ(resumed.kpis.total, 14u);
  EXPECT_EQ(resumed.kpis.total, reference.kpis.total);
  EXPECT_EQ(resumed.kpis.sde, reference.kpis.sde);
  EXPECT_EQ(resumed.kpis.due, reference.kpis.due);
  EXPECT_EQ(file_bytes(resumed.results_csv), file_bytes(reference.results_csv));
  EXPECT_EQ(file_bytes(second.steering.map_path),
            file_bytes(std::string(ref_dir.str() + "/map.json")));
}

TEST_F(SteeredImgClass, SteeringRejectsBatchedPolicies) {
  // per_batch units steer like per_image ones (each unit's cell is its
  // batch group's first fault): the map, the executed units and their
  // outputs are identical at --jobs 1 and 4.
  Scenario s = scenario();
  s.inj_policy = InjectionPolicy::kPerBatch;
  const auto run_with = [&](std::size_t jobs, const test::TempDir& dir) {
    auto c = config(dir.str());
    c.jobs = jobs;
    c.steering.budget = 12;
    c.steering.steer = true;
    c.steering.min_cell_samples = 2;
    c.steering.half_width = 0.2;
    c.steering.map_path = dir.file("map.json");
    TestErrorModelsImgClass harness(*model_, *dataset_, s, c);
    return harness.run();
  };
  test::TempDir jobs1_dir("steer_batch_j1");
  test::TempDir jobs4_dir("steer_batch_j4");
  const auto serial = run_with(1, jobs1_dir);
  const auto parallel = run_with(4, jobs4_dir);
  EXPECT_EQ(file_bytes(jobs1_dir.file("map.json")),
            file_bytes(jobs4_dir.file("map.json")));
  EXPECT_EQ(file_bytes(serial.results_csv), file_bytes(parallel.results_csv));
  EXPECT_EQ(file_bytes(serial.trace_bin), file_bytes(parallel.trace_bin));
  EXPECT_EQ(serial.kpis.total, 12u);
  EXPECT_EQ(parallel.kpis.total, 12u);
}

TEST_F(SteeredImgClass, SteeredRoundsHonourUnitBatch) {
  // Steered rounds pack their units through the executor's pack
  // scheduler: a worker's share of a round is packed like an exhaustive
  // shard.  The executed units and their outputs do not depend on the
  // pack size or the job count, and packing shows in the pass counters:
  // each armed pass adds one to prefix_hits + prefix_misses, and a pack
  // of K units runs one pass instead of K.
  Scenario s = scenario();
  s.dataset_size = 24;
  s.num_runs = 1;  // unit stride 1: consecutive planned units pack
  const auto run_with = [&](std::size_t unit_batch, std::size_t jobs,
                            const test::TempDir& dir) {
    auto c = config(dir.str());
    c.jobs = jobs;
    c.unit_batch = unit_batch;
    c.steering.steer = true;
    c.steering.round_units = 8;
    c.steering.min_cell_samples = 2;
    c.steering.half_width = 0.2;
    c.steering.map_path = dir.file("map.json");
    TestErrorModelsImgClass harness(*model_, *dataset_, s, c);
    const auto result = harness.run();
    std::uint64_t passes = 0;
    for (const auto& [name, value] : harness.metrics().counters()) {
      if (name == "campaign.diff.prefix_hits" || name == "campaign.diff.prefix_misses") {
        passes += value;
      }
    }
    return std::make_pair(result, passes);
  };
  test::TempDir ref_dir("steer_pack_ref");
  const auto [ref, ref_passes] = run_with(1, 1, ref_dir);
  EXPECT_GT(ref.kpis.total, 0u);
  for (const std::size_t unit_batch : {1u, 4u}) {
    for (const std::size_t jobs : {1u, 4u}) {
      if (unit_batch == 1 && jobs == 1) continue;
      SCOPED_TRACE("unit_batch " + std::to_string(unit_batch) + " jobs " +
                   std::to_string(jobs));
      test::TempDir dir("steer_pack");
      const auto [run, passes] = run_with(unit_batch, jobs, dir);
      EXPECT_EQ(file_bytes(dir.file("map.json")), file_bytes(ref_dir.file("map.json")));
      EXPECT_EQ(file_bytes(run.results_csv), file_bytes(ref.results_csv));
      EXPECT_EQ(file_bytes(run.fault_free_csv), file_bytes(ref.fault_free_csv));
      EXPECT_EQ(file_bytes(run.trace_bin), file_bytes(ref.trace_bin));
      if (unit_batch == 4 && jobs == 1) {
        EXPECT_LT(passes, ref_passes);
      }
    }
  }
}

// ---- plan determinism across jobs and fleet ---------------------------------

TEST_F(SteeredImgClass, MapIsByteIdenticalAcrossJobsAndFleet) {
  const auto run_with = [&](ImgClassCampaignConfig c, const std::string& map_path) {
    c.steering.budget = 12;
    c.steering.steer = true;
    c.steering.min_cell_samples = 2;
    c.steering.half_width = 0.2;
    c.steering.map_path = map_path;
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
    return harness.run();
  };

  test::TempDir jobs1_dir("steer_j1");
  auto c1 = config(jobs1_dir.str());
  c1.jobs = 1;
  const auto serial = run_with(c1, jobs1_dir.file("map.json"));

  test::TempDir jobs4_dir("steer_j4");
  auto c4 = config(jobs4_dir.str());
  c4.jobs = 4;
  const auto parallel = run_with(c4, jobs4_dir.file("map.json"));

  test::TempDir fleet_dir("steer_fleet");
  test::TempDir fleet_ckp("steer_fleet_ckp");
  auto cf = config(fleet_dir.str());
  cf.checkpoint_dir = fleet_ckp.str();
  cf.fleet.local_workers = 3;
  cf.fleet.lease_units = 2;
  cf.fleet.heartbeat_ms = 50.0;
  const auto fleet = run_with(cf, fleet_dir.file("map.json"));

  const std::string map1 = file_bytes(jobs1_dir.file("map.json"));
  EXPECT_EQ(map1, file_bytes(jobs4_dir.file("map.json")));
  EXPECT_EQ(map1, file_bytes(fleet_dir.file("map.json")));

  EXPECT_EQ(file_bytes(serial.results_csv), file_bytes(parallel.results_csv));
  EXPECT_EQ(file_bytes(serial.results_csv), file_bytes(fleet.results_csv));
  EXPECT_EQ(file_bytes(serial.trace_bin), file_bytes(parallel.trace_bin));
  EXPECT_EQ(file_bytes(serial.trace_bin), file_bytes(fleet.trace_bin));
  EXPECT_EQ(serial.kpis.total, 12u);
  EXPECT_EQ(parallel.kpis.total, 12u);
  EXPECT_EQ(fleet.kpis.total, 12u);

  // Repeat run: byte-identical to itself too.
  test::TempDir again_dir("steer_again");
  auto ca = config(again_dir.str());
  ca.jobs = 1;
  run_with(ca, again_dir.file("map.json"));
  EXPECT_EQ(map1, file_bytes(again_dir.file("map.json")));
}

// ---- exhaustive top-5 layer ranking reproduction ----------------------------

std::vector<std::string> top_layers(const io::VulnerabilityMapFile& map,
                                    std::size_t k) {
  std::vector<std::string> keys;
  for (const auto& entry : map.layers) {
    if (keys.size() == k) break;
    keys.push_back(entry.key);
  }
  return keys;
}

/// Exhaustive (map only, no budget) and budgeted runs of one model;
/// the budgeted run must reproduce the exhaustive top-5 layer ranking
/// at no more than half the units.
template <typename Dataset>
void expect_budget_reproduces_ranking(nn::Module& model, const Dataset& dataset,
                                      const std::string& model_name,
                                      Scenario s, const std::string& tag) {
  test::TempDir full_dir("rank_full_" + tag);
  {
    ImgClassCampaignConfig c;
    c.model_name = model_name;
    c.output_dir = full_dir.str();
    c.jobs = 1;
    c.steering.map_path = full_dir.file("map.json");
    TestErrorModelsImgClass harness(model, dataset, s, c);
    harness.run();
  }
  const auto full = io::read_vulnerability_map(full_dir.file("map.json"));
  EXPECT_EQ(full.units_executed, full.exhaustive_units);

  test::TempDir half_dir("rank_half_" + tag);
  {
    ImgClassCampaignConfig c;
    c.model_name = model_name;
    c.output_dir = half_dir.str();
    c.jobs = 1;
    c.steering.budget = full.exhaustive_units / 2;
    c.steering.steer = true;
    c.steering.map_path = half_dir.file("map.json");
    TestErrorModelsImgClass harness(model, dataset, s, c);
    harness.run();
  }
  const auto half = io::read_vulnerability_map(half_dir.file("map.json"));
  EXPECT_LE(half.units_executed, full.exhaustive_units / 2);
  EXPECT_LE(half.unit_fraction, 0.5);

  EXPECT_EQ(top_layers(half, 5), top_layers(full, 5))
      << tag << ": budgeted ranking diverged at "
      << half.units_executed << "/" << full.exhaustive_units << " units";
}

TEST(SteeringRanking, BudgetedRunReproducesLenetTopLayers) {
  data::SyntheticShapesClassification dataset(
      {.size = 32, .num_classes = 10, .seed = 17});
  auto model = models::make_classifier("lenet", {});
  Rng rng(17);
  nn::kaiming_init(*model, rng);

  Scenario s;
  s.target = FaultTarget::kNeurons;
  s.value_type = ValueType::kBitFlip;
  s.rnd_bit_range_lo = 28;  // exponent bits: strong, layer-separable SDC
  s.rnd_bit_range_hi = 30;
  s.inj_policy = InjectionPolicy::kPerImage;
  s.dataset_size = 16;
  s.num_runs = 4;
  s.max_faults_per_image = 1;
  s.batch_size = 8;
  s.rnd_seed = 913;
  expect_budget_reproduces_ranking(*model, dataset, "lenet", s, "lenet");
}

TEST(SteeringRanking, BudgetedRunReproducesTransformerTopLayers) {
  data::SyntheticSequenceClassification dataset({.size = 24, .seed = 17});
  auto model = models::make_mini_transformer({});
  Rng rng(17);
  nn::kaiming_init(*model, rng);

  Scenario s;
  s.target = FaultTarget::kNeurons;
  s.value_type = ValueType::kBitFlip;
  s.rnd_bit_range_lo = 28;
  s.rnd_bit_range_hi = 30;
  s.inj_policy = InjectionPolicy::kPerImage;
  s.dataset_size = 16;
  s.num_runs = 4;
  s.max_faults_per_image = 1;
  s.batch_size = 8;
  s.rnd_seed = 913;
  expect_budget_reproduces_ranking(*model, dataset, "transformer", s,
                                   "transformer");
}

// ---- artifact round-trip ----------------------------------------------------

TEST(VulnerabilityMapIo, RoundTripsThroughJson) {
  io::VulnerabilityMapFile map;
  map.task_kind = "imgclass";
  map.model = "lenet";
  map.budget_requested = 32;
  map.units_executed = 30;
  map.exhaustive_units = 64;
  map.unit_fraction = 30.0 / 64.0;
  map.z = 1.96;
  map.half_width = 0.04;
  map.min_cell_samples = 8;
  map.steer = true;
  io::VulnerabilityCellEntry cell;
  cell.layer = 2;
  cell.bit_pos = 30;
  cell.fault_type = "bitflip";
  cell.role = "conv2d";
  cell.sampled = 9;
  cell.skipped = 1;
  cell.sdc = 5;
  cell.due = 2;
  cell.sdc_rate = 5.0 / 8.0;
  cell.due_rate = 2.0 / 8.0;
  cell.sdc_lo = 0.3;
  cell.sdc_hi = 0.86;
  cell.decided = true;
  map.cells.push_back(cell);
  io::VulnerabilityGroupEntry group;
  group.key = "2";
  group.sampled = 9;
  group.skipped = 1;
  group.sdc = 5;
  group.due = 2;
  group.sdc_rate = 5.0 / 8.0;
  group.due_rate = 2.0 / 8.0;
  group.sdc_lo = 0.3;
  group.sdc_hi = 0.86;
  map.layers.push_back(group);

  test::TempDir dir("vmap");
  io::write_vulnerability_map(dir.file("map.json"), map);
  const auto read = io::read_vulnerability_map(dir.file("map.json"));
  EXPECT_EQ(read.task_kind, "imgclass");
  EXPECT_EQ(read.budget_requested, 32u);
  EXPECT_EQ(read.units_executed, 30u);
  EXPECT_DOUBLE_EQ(read.unit_fraction, 30.0 / 64.0);
  EXPECT_TRUE(read.steer);
  ASSERT_EQ(read.cells.size(), 1u);
  EXPECT_EQ(read.cells[0].layer, 2);
  EXPECT_EQ(read.cells[0].bit_pos, 30);
  EXPECT_EQ(read.cells[0].fault_type, "bitflip");
  EXPECT_EQ(read.cells[0].sampled, 9u);
  EXPECT_EQ(read.cells[0].skipped, 1u);
  EXPECT_DOUBLE_EQ(read.cells[0].sdc_rate, 5.0 / 8.0);
  EXPECT_TRUE(read.cells[0].decided);
  ASSERT_EQ(read.layers.size(), 1u);
  EXPECT_EQ(read.layers[0].key, "2");

  // Determinism contract: writing the same map twice is byte-identical.
  io::write_vulnerability_map(dir.file("map2.json"), map);
  EXPECT_EQ(file_bytes(dir.file("map.json")), file_bytes(dir.file("map2.json")));
}

}  // namespace
}  // namespace alfi::core
