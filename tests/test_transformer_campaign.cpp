// MiniTransformer campaign coverage (ISSUE 9): the attention-injection
// workload must ride every piece of campaign plumbing the CNN workloads
// use, byte-identically across execution strategies —
//   * --jobs 1 vs 4, --unit-batch 1 vs 4, diff prefix on/off, arena
//     workspace on/off, and a local-fork fleet run, all compared on
//     results CSVs, fault/trace binaries, journals and counters
//     (mirroring test_batched_identity.cpp / test_fleet.cpp);
//   * every advertised attention target is reachable: Q/K/V/out
//     projection weights and outputs (seq_linear), the post-softmax
//     attention-probability tensor, the residual stream, layernorm
//     gains and the embedding table — with per-role applied-fault
//     counters accounting for every applied fault in metrics.json;
//   * Ranger runs on the GELU/softmax activation profile.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>

#include "core/campaign.h"
#include "core/test_img_class.h"
#include "data/synthetic.h"
#include "io/json.h"
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

/// Counter section of metrics.json minus the `campaign.diff.*` family
/// (pass-level bookkeeping that legitimately shrinks as passes fuse or
/// replay); everything else — including the per-role injection
/// counters — must match exactly across execution strategies.
std::string comparable_counters(const std::string& metrics_path) {
  const io::Json counters = io::read_json_file(metrics_path).at("counters");
  io::Json filtered = io::Json::object();
  for (const auto& [key, value] : counters.as_object()) {
    if (key.starts_with("campaign.diff.")) continue;
    filtered.as_object()[key] = value;
  }
  return filtered.dump();
}

std::uint64_t counter_from_metrics(const std::string& metrics_path,
                                   const std::string& name) {
  const io::Json counters = io::read_json_file(metrics_path).at("counters");
  if (!counters.contains(name)) return 0;
  return static_cast<std::uint64_t>(counters.at(name).as_number());
}

struct CampaignRun {
  ImgClassCampaignResult result;
  std::string counters_json;
  std::string journal_bytes;
  std::string metrics_path;
};

class TransformerCampaign : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticSequenceClassification({.size = 24, .seed = 17});
    model_ = models::make_mini_transformer({});
    Rng rng(17);
    nn::kaiming_init(*model_, rng);
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    model_.reset();
  }

  // Same 4 images x 6 epochs = 24 unit geometry as the CNN batched-
  // identity fixture: stride-4 same-image packs at unit-batch 4, short
  // packs at shard boundaries under --jobs 4.
  static Scenario scenario(FaultTarget target,
                           std::vector<nn::LayerKind> kinds = {},
                           std::size_t dataset_size = 4,
                           std::size_t num_runs = 6) {
    Scenario s;
    s.target = target;
    s.value_type = ValueType::kBitFlip;
    s.rnd_bit_range_lo = 20;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.layer_types = std::move(kinds);
    s.dataset_size = dataset_size;
    s.num_runs = num_runs;
    s.max_faults_per_image = 2;
    s.batch_size = 8;
    s.rnd_seed = 4242;
    return s;
  }

  CampaignRun run_campaign(const Scenario& s, std::size_t unit_batch, std::size_t jobs,
                   const std::string& dir,
                   std::optional<MitigationKind> mitigation, bool diff,
                   bool workspace, bool journal) {
    ImgClassCampaignConfig config;
    config.model_name = "transformer";
    config.output_dir = dir;
    config.mitigation = mitigation;
    config.jobs = jobs;
    config.unit_batch = unit_batch;
    config.workspace = workspace;
    config.diff = diff;
    config.metrics_path = dir + "/metrics.json";
    if (journal) {
      config.checkpoint_dir = dir + "/ckpt";
    }
    TestErrorModelsImgClass harness(*model_, *dataset_, s, config);
    CampaignRun run;
    run.result = harness.run();
    run.counters_json = comparable_counters(config.metrics_path);
    run.metrics_path = config.metrics_path;
    if (journal) {
      run.journal_bytes =
          file_bytes(CampaignExecutor::journal_path(config.checkpoint_dir));
    }
    return run;
  }

  void expect_identical(const CampaignRun& a, const CampaignRun& b) {
    EXPECT_EQ(file_bytes(a.result.results_csv), file_bytes(b.result.results_csv));
    EXPECT_EQ(file_bytes(a.result.fault_free_csv),
              file_bytes(b.result.fault_free_csv));
    EXPECT_EQ(file_bytes(a.result.fault_bin), file_bytes(b.result.fault_bin));
    EXPECT_EQ(file_bytes(a.result.trace_bin), file_bytes(b.result.trace_bin));
    EXPECT_EQ(a.counters_json, b.counters_json);
    EXPECT_EQ(a.journal_bytes, b.journal_bytes);
    EXPECT_EQ(a.result.kpis.total, b.result.kpis.total);
    EXPECT_EQ(a.result.kpis.sde, b.result.kpis.sde);
    EXPECT_EQ(a.result.kpis.due, b.result.kpis.due);
    EXPECT_EQ(a.result.kpis.orig_correct, b.result.kpis.orig_correct);
    EXPECT_EQ(a.result.kpis.faulty_correct, b.result.kpis.faulty_correct);
    EXPECT_EQ(a.result.skipped_injections, b.result.skipped_injections);
  }

  static data::SyntheticSequenceClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticSequenceClassification* TransformerCampaign::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> TransformerCampaign::model_;

// ---- byte-identity across execution strategies ------------------------------

TEST_F(TransformerCampaign, PackedMatchesUnitAtATime) {
  test::TempDir packed_dir("tf_on");
  test::TempDir serial_dir("tf_off");
  const Scenario s = scenario(FaultTarget::kNeurons);
  const CampaignRun packed = run_campaign(s, 4, 1, packed_dir.str(), std::nullopt,
                                  /*diff=*/true, /*workspace=*/true,
                                  /*journal=*/true);
  const CampaignRun serial = run_campaign(s, 1, 1, serial_dir.str(), std::nullopt,
                                  /*diff=*/true, /*workspace=*/true,
                                  /*journal=*/true);
  EXPECT_EQ(packed.result.kpis.total, 24u);  // 4 images * 6 runs
  expect_identical(packed, serial);
}

TEST_F(TransformerCampaign, ParallelPackedMatchesSerialUnitAtATime) {
  // Cross axes: unit-batch 4 at --jobs 4 against the --jobs 1
  // unit-at-a-time ground truth.
  test::TempDir packed_dir("tf_on4j");
  test::TempDir serial_dir("tf_off4j");
  const Scenario s = scenario(FaultTarget::kNeurons);
  const CampaignRun packed = run_campaign(s, 4, 4, packed_dir.str(), std::nullopt,
                                  /*diff=*/true, /*workspace=*/true,
                                  /*journal=*/false);
  const CampaignRun serial = run_campaign(s, 1, 1, serial_dir.str(), std::nullopt,
                                  /*diff=*/true, /*workspace=*/true,
                                  /*journal=*/false);
  expect_identical(packed, serial);
}

TEST_F(TransformerCampaign, NoDiffMatchesDiff) {
  // Replaying the fault-free prefix over the transformer's aux-slot
  // workspace must be invisible next to a full recompute.
  test::TempDir diff_dir("tf_diff");
  test::TempDir nodiff_dir("tf_nodiff");
  const Scenario s = scenario(FaultTarget::kNeurons);
  const CampaignRun with_diff = run_campaign(s, 1, 1, diff_dir.str(), std::nullopt,
                                     /*diff=*/true, /*workspace=*/true,
                                     /*journal=*/true);
  const CampaignRun no_diff = run_campaign(s, 1, 1, nodiff_dir.str(), std::nullopt,
                                   /*diff=*/false, /*workspace=*/true,
                                   /*journal=*/true);
  expect_identical(with_diff, no_diff);
}

TEST_F(TransformerCampaign, NoWorkspaceMatchesWorkspace) {
  // The allocating inference path and the arena workspace (including
  // the MHA/TransformerBlock aux slots) must agree byte-for-byte.
  test::TempDir ws_dir("tf_ws");
  test::TempDir alloc_dir("tf_alloc");
  const Scenario s = scenario(FaultTarget::kNeurons);
  const CampaignRun with_ws = run_campaign(s, 1, 1, ws_dir.str(), std::nullopt,
                                   /*diff=*/true, /*workspace=*/true,
                                   /*journal=*/true);
  const CampaignRun no_ws = run_campaign(s, 1, 1, alloc_dir.str(), std::nullopt,
                                 /*diff=*/false, /*workspace=*/false,
                                 /*journal=*/true);
  expect_identical(with_ws, no_ws);
}

TEST_F(TransformerCampaign, MitigatedPackedMatchesUnitAtATime) {
  // Ranger profiles GELU and attention-softmax ranges here — a
  // mitigated transformer campaign must stay strategy-invariant too.
  test::TempDir packed_dir("tf_onm");
  test::TempDir serial_dir("tf_offm");
  const Scenario s = scenario(FaultTarget::kNeurons);
  const CampaignRun packed = run_campaign(s, 4, 1, packed_dir.str(),
                                  MitigationKind::kRanger, /*diff=*/true,
                                  /*workspace=*/true, /*journal=*/true);
  const CampaignRun serial = run_campaign(s, 1, 1, serial_dir.str(),
                                  MitigationKind::kRanger, /*diff=*/true,
                                  /*workspace=*/true, /*journal=*/true);
  expect_identical(packed, serial);
}

TEST_F(TransformerCampaign, WeightCampaignPackedMatchesUnitAtATime) {
  test::TempDir packed_dir("tf_onw");
  test::TempDir serial_dir("tf_offw");
  const Scenario s = scenario(FaultTarget::kWeights);
  const CampaignRun packed = run_campaign(s, 4, 1, packed_dir.str(), std::nullopt,
                                  /*diff=*/true, /*workspace=*/true,
                                  /*journal=*/true);
  const CampaignRun serial = run_campaign(s, 1, 1, serial_dir.str(), std::nullopt,
                                  /*diff=*/true, /*workspace=*/true,
                                  /*journal=*/true);
  expect_identical(packed, serial);
}

TEST_F(TransformerCampaign, LocalFleetMatchesSerialByteForByte) {
  test::TempDir ref_dir("tf_fleet_ref");
  test::TempDir ref_ckp("tf_fleet_ref_ckp");
  test::TempDir out_dir("tf_fleet_out");
  test::TempDir ckp_dir("tf_fleet_ckp");
  const Scenario s =
      scenario(FaultTarget::kNeurons, {}, /*dataset_size=*/12, /*num_runs=*/2);

  ImgClassCampaignResult serial;
  {
    ImgClassCampaignConfig c;
    c.model_name = "transformer";
    c.output_dir = ref_dir.str();
    c.jobs = 1;
    c.checkpoint_dir = ref_ckp.str();
    TestErrorModelsImgClass harness(*model_, *dataset_, s, c);
    serial = harness.run();
  }

  ImgClassCampaignConfig c;
  c.model_name = "transformer";
  c.output_dir = out_dir.str();
  c.checkpoint_dir = ckp_dir.str();
  c.fleet.local_workers = 3;
  c.fleet.lease_units = 2;
  c.fleet.heartbeat_ms = 50.0;
  TestErrorModelsImgClass harness(*model_, *dataset_, s, c);
  const ImgClassCampaignResult fleet = harness.run();

  EXPECT_EQ(file_bytes(serial.results_csv), file_bytes(fleet.results_csv));
  EXPECT_EQ(file_bytes(serial.fault_free_csv), file_bytes(fleet.fault_free_csv));
  EXPECT_EQ(file_bytes(serial.fault_bin), file_bytes(fleet.fault_bin));
  EXPECT_EQ(file_bytes(serial.trace_bin), file_bytes(fleet.trace_bin));
  EXPECT_EQ(file_bytes(CampaignExecutor::journal_path(ref_ckp.str())),
            file_bytes(CampaignExecutor::journal_path(ckp_dir.str())));
  EXPECT_EQ(serial.kpis.total, fleet.kpis.total);
  EXPECT_EQ(serial.kpis.sde, fleet.kpis.sde);
  EXPECT_EQ(serial.kpis.due, fleet.kpis.due);
}

// ---- attention-target reachability (per-role counters) ----------------------

TEST_F(TransformerCampaign, NeuronFaultsReachAttentionProbabilities) {
  // layer_types: [attention] confines the campaign to the post-softmax
  // probability tensors; every applied fault must be accounted to the
  // attn_probs role.
  test::TempDir dir("tf_probs");
  const Scenario s =
      scenario(FaultTarget::kNeurons, {nn::LayerKind::kAttention});
  const CampaignRun run = run_campaign(s, 1, 1, dir.str(), std::nullopt, /*diff=*/true,
                               /*workspace=*/true, /*journal=*/false);
  const std::uint64_t applied =
      counter_from_metrics(run.metrics_path, "injections.applied");
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(counter_from_metrics(run.metrics_path,
                                 "injections.applied_role.attn_probs"),
            applied);
}

TEST_F(TransformerCampaign, NeuronFaultsReachResidualStream) {
  test::TempDir dir("tf_resid");
  const Scenario s = scenario(FaultTarget::kNeurons, {nn::LayerKind::kResidual});
  const CampaignRun run = run_campaign(s, 1, 1, dir.str(), std::nullopt, /*diff=*/true,
                               /*workspace=*/true, /*journal=*/false);
  const std::uint64_t applied =
      counter_from_metrics(run.metrics_path, "injections.applied");
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(counter_from_metrics(run.metrics_path,
                                 "injections.applied_role.residual_stream"),
            applied);
}

TEST_F(TransformerCampaign, WeightFaultsReachProjectionsAndMlp) {
  // layer_types: [seq_linear] covers Q/K/V/out projections and both MLP
  // matrices; the per-role counters must jointly account for every
  // applied weight fault.
  test::TempDir dir("tf_proj");
  const Scenario s =
      scenario(FaultTarget::kWeights, {nn::LayerKind::kSeqLinear});
  const CampaignRun run = run_campaign(s, 1, 1, dir.str(), std::nullopt, /*diff=*/true,
                               /*workspace=*/true, /*journal=*/false);
  const std::uint64_t applied =
      counter_from_metrics(run.metrics_path, "injections.weight_applied");
  EXPECT_GT(applied, 0u);
  std::uint64_t by_role = 0;
  for (const char* role : {"q_proj", "k_proj", "v_proj", "out_proj", "mlp_fc1",
                           "mlp_fc2"}) {
    by_role += counter_from_metrics(
        run.metrics_path, std::string("injections.weight_applied_role.") + role);
  }
  EXPECT_EQ(by_role, applied);
}

TEST_F(TransformerCampaign, WeightFaultsReachEmbeddingAndLayerNormGains) {
  test::TempDir dir("tf_embed");
  const Scenario s = scenario(
      FaultTarget::kWeights, {nn::LayerKind::kEmbedding, nn::LayerKind::kLayerNorm});
  const CampaignRun run = run_campaign(s, 1, 1, dir.str(), std::nullopt, /*diff=*/true,
                               /*workspace=*/true, /*journal=*/false);
  const std::uint64_t applied =
      counter_from_metrics(run.metrics_path, "injections.weight_applied");
  EXPECT_GT(applied, 0u);
  const std::uint64_t by_role =
      counter_from_metrics(run.metrics_path,
                           "injections.weight_applied_role.embedding") +
      counter_from_metrics(run.metrics_path,
                           "injections.weight_applied_role.layernorm_gain");
  EXPECT_EQ(by_role, applied);
}

}  // namespace
}  // namespace alfi::core
