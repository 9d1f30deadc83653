// Backend campaign identity (DESIGN.md §13).
//
// The "ref" backend IS the pre-backend scalar kernel set, so selecting
// it — explicitly or by default — must leave every campaign artifact
// byte-identical to a baseline run: results CSVs, fault/trace binaries,
// journals, KPI counters and the scenario YAML (which omits the
// `inference` section for default configurations precisely so campaign
// fingerprints, checkpoints and journals survive unchanged).  Covered
// axes: --jobs 1/4 x --unit-batch 1/4, both harnesses.
//
// Every other backend is bit-exact with ref, so a campaign's artifacts
// do not depend on the backend either: the *MatchesRefByteForByte grids
// run ref and avx2 over --jobs 1/4 x --unit-batch 1/4 x diff on/off on
// imgclass (weight faults with Ranger, packed neuron faults) and objdet,
// and compare the results and fault-free CSVs (objdet: the detection
// JSONs), the fault and trace binaries, the journal's unit frames and
// every counter.  Only the backend's own name differs: it is part of the
// scenario YAML (so of the fingerprint in the journal header) and of
// metrics.json's `inference` section.  The grids skip when avx2 is not
// registered in this build or on this CPU.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/test_img_class.h"
#include "core/test_obj_det.h"
#include "data/synthetic.h"
#include "io/journal.h"
#include "io/json.h"
#include "models/classification.h"
#include "models/train.h"
#include "models/yolo_lite.h"
#include "tensor/backend.h"
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

io::Json inference_section(const std::string& metrics_path) {
  return io::read_json_file(metrics_path).at("inference");
}

/// What a backend must not change in a campaign, its own name left out:
/// output file bytes, the journal's unit frames in file order and the
/// metrics counters.
struct BackendFreeArtifacts {
  std::vector<std::string> outputs;
  std::vector<std::pair<std::size_t, std::string>> journal_units;
  std::string counters;
};

BackendFreeArtifacts backend_free_artifacts(std::vector<std::string> output_paths,
                                            const std::string& checkpoint_dir,
                                            const std::string& metrics_path) {
  BackendFreeArtifacts artifacts;
  for (const std::string& path : output_paths) {
    artifacts.outputs.push_back(file_bytes(path));
  }
  artifacts.journal_units =
      io::scan_journal(CampaignExecutor::journal_path(checkpoint_dir)).units;
  artifacts.counters = io::read_json_file(metrics_path).at("counters").dump();
  return artifacts;
}

/// Runs `run(backend, jobs, unit_batch, diff, dir)` for ref and avx2 over
/// jobs 1/4 x unit-batch 1/4 x diff on/off and expects equal artifacts.
template <typename RunFn>
void expect_avx2_matches_ref(const std::string& name, RunFn run) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t unit_batch : {std::size_t{1}, std::size_t{4}}) {
      for (const bool diff : {true, false}) {
        const std::string tag = name + "_" + std::to_string(jobs) + "_" +
                                std::to_string(unit_batch) + (diff ? "_diff" : "_full");
        SCOPED_TRACE(tag);
        test::TempDir ref_dir("bkid_" + tag + "_ref");
        test::TempDir avx_dir("bkid_" + tag + "_avx2");
        BackendFreeArtifacts want = run("ref", jobs, unit_batch, diff, ref_dir.str());
        BackendFreeArtifacts got = run("avx2", jobs, unit_batch, diff, avx_dir.str());
        ASSERT_EQ(want.outputs.size(), got.outputs.size());
        for (std::size_t i = 0; i < want.outputs.size(); ++i) {
          EXPECT_TRUE(want.outputs[i] == got.outputs[i]) << "output file " << i;
        }
        // Several workers append frames in completion order, so only a
        // one-worker journal is byte-stable; with more, compare by unit.
        if (jobs > 1) {
          std::sort(want.journal_units.begin(), want.journal_units.end());
          std::sort(got.journal_units.begin(), got.journal_units.end());
        }
        EXPECT_FALSE(want.journal_units.empty());
        ASSERT_EQ(want.journal_units.size(), got.journal_units.size());
        for (std::size_t i = 0; i < want.journal_units.size(); ++i) {
          EXPECT_TRUE(want.journal_units[i] == got.journal_units[i])
              << "journal frame " << i << " (unit " << want.journal_units[i].first << ")";
        }
        EXPECT_EQ(want.counters, got.counters);
      }
    }
  }
}

class BackendIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesClassification(
        {.size = 16, .num_classes = 10, .seed = 23});
    model_ = models::make_mini_alexnet();
    Rng rng(23);
    nn::kaiming_init(*model_, rng);
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    model_.reset();
  }

  static Scenario scenario(const std::string& backend,
                           FaultTarget target = FaultTarget::kNeurons) {
    Scenario s;
    s.target = target;
    s.value_type = ValueType::kBitFlip;
    s.rnd_bit_range_lo = 20;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.dataset_size = 6;
    s.num_runs = 4;
    s.max_faults_per_image = 2;
    s.batch_size = 8;
    s.rnd_seed = 777;
    s.backend = backend;
    return s;
  }

  struct Run {
    ImgClassCampaignResult result;
    std::string journal_bytes;
    std::string scenario_yaml;
    std::string metrics_path;
  };

  Run run_campaign(const std::string& backend, std::size_t jobs,
                   std::size_t unit_batch, const std::string& dir) {
    ImgClassCampaignConfig config;
    config.model_name = "alexnet";
    config.output_dir = dir;
    config.jobs = jobs;
    config.unit_batch = unit_batch;
    config.workspace = true;
    config.diff = true;
    config.metrics_path = dir + "/metrics.json";
    config.checkpoint_dir = dir + "/ckpt";
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(backend),
                                    config);
    Run run;
    run.result = harness.run();
    run.journal_bytes =
        file_bytes(CampaignExecutor::journal_path(config.checkpoint_dir));
    run.scenario_yaml = file_bytes(run.result.scenario_yml);
    run.metrics_path = config.metrics_path;
    return run;
  }

  /// One campaign of the ref-vs-avx2 grid, checkpointed so it journals.
  BackendFreeArtifacts grid_run(const std::string& backend, FaultTarget target,
                                std::optional<MitigationKind> mitigation,
                                std::size_t jobs, std::size_t unit_batch, bool diff,
                                const std::string& dir) {
    ImgClassCampaignConfig config;
    config.model_name = "alexnet";
    config.output_dir = dir;
    config.mitigation = mitigation;
    config.jobs = jobs;
    config.unit_batch = unit_batch;
    config.diff = diff;
    config.metrics_path = dir + "/metrics.json";
    config.checkpoint_dir = dir + "/ckpt";
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(backend, target),
                                    config);
    const ImgClassCampaignResult result = harness.run();
    EXPECT_EQ(inference_section(config.metrics_path).at("backend").as_string(), backend);
    return backend_free_artifacts({result.results_csv, result.fault_free_csv,
                                   result.fault_bin, result.trace_bin},
                                  config.checkpoint_dir, config.metrics_path);
  }

  /// `same_jobs`: journal frames interleave by shard worker, so the
  /// journal is byte-stable only between runs with equal --jobs (the
  /// batched-identity suite holds the same line).  Every result
  /// artifact must match regardless.
  void expect_identical(const Run& a, const Run& b, bool same_jobs) {
    EXPECT_EQ(file_bytes(a.result.results_csv), file_bytes(b.result.results_csv));
    EXPECT_EQ(file_bytes(a.result.fault_free_csv),
              file_bytes(b.result.fault_free_csv));
    EXPECT_EQ(file_bytes(a.result.fault_bin), file_bytes(b.result.fault_bin));
    EXPECT_EQ(file_bytes(a.result.trace_bin), file_bytes(b.result.trace_bin));
    if (same_jobs) {
      EXPECT_EQ(a.journal_bytes, b.journal_bytes);
    }
    EXPECT_EQ(a.scenario_yaml, b.scenario_yaml);
    EXPECT_EQ(a.result.kpis.total, b.result.kpis.total);
    EXPECT_EQ(a.result.kpis.sde, b.result.kpis.sde);
    EXPECT_EQ(a.result.kpis.due, b.result.kpis.due);
    EXPECT_EQ(a.result.kpis.orig_correct, b.result.kpis.orig_correct);
    EXPECT_EQ(a.result.kpis.faulty_correct, b.result.kpis.faulty_correct);
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* BackendIdentity::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> BackendIdentity::model_;

TEST_F(BackendIdentity, ExplicitRefMatchesDefaultAcrossJobsAndPacking) {
  // Baseline: unset backend (pre-PR scenarios never name one).
  test::TempDir base_dir("bkid_base");
  const Run base = run_campaign("", 1, 1, base_dir.str());

  // Explicit "ref" across the jobs x unit-batch grid must be
  // byte-identical to the unset-serial baseline.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t unit_batch : {std::size_t{1}, std::size_t{4}}) {
      test::TempDir dir("bkid_ref_" + std::to_string(jobs) + "_" +
                        std::to_string(unit_batch));
      const Run run = run_campaign("ref", jobs, unit_batch, dir.str());
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " unit_batch=" + std::to_string(unit_batch));
      expect_identical(base, run, /*same_jobs=*/jobs == 1);

      const io::Json inference = inference_section(run.metrics_path);
      EXPECT_EQ(inference.at("backend").as_string(), "ref");
      EXPECT_EQ(inference.at("numeric_type").as_string(), "fp32");
    }
  }

  // Fingerprint preservation: the default scenario YAML artifact must
  // not have grown an `inference` section (it feeds campaign
  // fingerprints, so its serialization is frozen for defaults).
  EXPECT_EQ(base.scenario_yaml.find("inference"), std::string::npos);
  const io::Json inference = inference_section(base.metrics_path);
  EXPECT_EQ(inference.at("backend").as_string(), "ref");
}

TEST_F(BackendIdentity, AutoResolutionIsRecordedInMetricsAndScenario) {
  // "auto" resolves at prepare() — metrics.json records what actually
  // ran, while the scenario artifact keeps the requested name (it must
  // reproduce the same resolution on replay, not pin this host's).
  test::TempDir dir("bkid_auto");
  const Run run = run_campaign("auto", 1, 1, dir.str());
  const io::Json inference = inference_section(run.metrics_path);
  const std::string resolved = inference.at("backend").as_string();
  if (tensor::find_backend("avx2") != nullptr) {
    EXPECT_EQ(resolved, "avx2");
  } else {
    EXPECT_EQ(resolved, "ref");
  }
  EXPECT_NE(run.scenario_yaml.find("inference"), std::string::npos);
  EXPECT_NE(run.scenario_yaml.find("auto"), std::string::npos);
  EXPECT_EQ(run.result.kpis.total, 24u);
}

TEST_F(BackendIdentity, AcceleratedCampaignCompletesAndAgreesOnVerdictCounts) {
  if (tensor::find_backend("avx2") == nullptr) {
    GTEST_SKIP() << "no avx2 backend registered in this build/host";
  }
  // Structural agreement only: same unit count and the resolved name
  // recorded.  Avx2MatchesRefByteForByteAcrossGrid holds avx2 to byte
  // identity.
  test::TempDir ref_dir("bkid_vs_ref");
  test::TempDir avx_dir("bkid_vs_avx");
  const Run ref_run = run_campaign("ref", 1, 1, ref_dir.str());
  const Run avx_run = run_campaign("avx2", 1, 1, avx_dir.str());
  EXPECT_EQ(avx_run.result.kpis.total, ref_run.result.kpis.total);
  EXPECT_EQ(inference_section(avx_run.metrics_path).at("backend").as_string(),
            "avx2");
}

TEST_F(BackendIdentity, Avx2MatchesRefByteForByteAcrossGrid) {
  if (tensor::find_backend("avx2") == nullptr) {
    GTEST_SKIP() << "no avx2 backend registered in this build/host";
  }
  // Weight faults with Ranger: the weight mutate/restore path and the
  // bounds profiled on the campaign's backend.
  expect_avx2_matches_ref("weights_ranger", [&](const std::string& backend,
                                                std::size_t jobs, std::size_t unit_batch,
                                                bool diff, const std::string& dir) {
    return grid_run(backend, FaultTarget::kWeights, MitigationKind::kRanger, jobs,
                    unit_batch, diff, dir);
  });
  // Neuron faults: num_runs 4 packs the same image under four epochs'
  // fault groups at unit-batch 4.
  expect_avx2_matches_ref("neurons_packed", [&](const std::string& backend,
                                                std::size_t jobs, std::size_t unit_batch,
                                                bool diff, const std::string& dir) {
    return grid_run(backend, FaultTarget::kNeurons, std::nullopt, jobs, unit_batch,
                    diff, dir);
  });
}

// ---- object detection ----------------------------------------------------

class ObjDetBackendIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesDetection(
        {.size = 12, .min_objects = 1, .max_objects = 2, .seed = 47});
    detector_ = new models::YoloLite(models::GridSpec{6, 48, 48}, 3, 3);
    models::TrainConfig config;
    config.epochs = 6;  // determinism test: accuracy is irrelevant
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

  struct DetRun {
    ObjDetCampaignResult result;
    std::string metrics_path;
  };

  static DetRun run_campaign(const std::string& backend, std::size_t jobs,
                             std::size_t unit_batch, const std::string& dir,
                             bool diff = true, bool checkpoint = false) {
    Scenario s;
    s.target = FaultTarget::kNeurons;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.rnd_bit_range_lo = 24;
    s.rnd_bit_range_hi = 30;
    s.dataset_size = 8;
    s.batch_size = 4;
    s.max_faults_per_image = 1;
    s.rnd_seed = 99;
    s.backend = backend;

    ObjDetCampaignConfig config;
    config.model_name = "yolo";
    config.output_dir = dir;
    config.jobs = jobs;
    config.unit_batch = unit_batch;
    config.workspace = true;
    config.diff = diff;
    config.metrics_path = dir + "/metrics.json";
    if (checkpoint) {
      config.checkpoint_dir = dir + "/ckpt";
    }
    TestErrorModelsObjDet harness(*detector_, *dataset_, s, config);
    DetRun run;
    run.result = harness.run();
    run.metrics_path = config.metrics_path;
    return run;
  }

  static void expect_identical(const DetRun& a, const DetRun& b) {
    EXPECT_EQ(file_bytes(a.result.orig_json), file_bytes(b.result.orig_json));
    EXPECT_EQ(file_bytes(a.result.corr_json), file_bytes(b.result.corr_json));
    EXPECT_EQ(file_bytes(a.result.fault_bin), file_bytes(b.result.fault_bin));
    EXPECT_EQ(file_bytes(a.result.trace_bin), file_bytes(b.result.trace_bin));
    EXPECT_EQ(file_bytes(a.result.scenario_yml),
              file_bytes(b.result.scenario_yml));
    EXPECT_EQ(a.result.ivmod.total, b.result.ivmod.total);
    EXPECT_EQ(a.result.ivmod.sde_images, b.result.ivmod.sde_images);
    EXPECT_EQ(a.result.ivmod.due_images, b.result.ivmod.due_images);
    EXPECT_EQ(a.result.orig_map.ap_50, b.result.orig_map.ap_50);
    EXPECT_EQ(a.result.faulty_map.ap_50, b.result.faulty_map.ap_50);
  }

  static data::SyntheticShapesDetection* dataset_;
  static models::YoloLite* detector_;
};

data::SyntheticShapesDetection* ObjDetBackendIdentity::dataset_ = nullptr;
models::YoloLite* ObjDetBackendIdentity::detector_ = nullptr;

TEST_F(ObjDetBackendIdentity, ExplicitRefMatchesDefaultAcrossJobsAndPacking) {
  test::TempDir base_dir("bkid_det_base");
  const DetRun base = run_campaign("", 1, 1, base_dir.str());
  EXPECT_EQ(file_bytes(base.result.scenario_yml).find("inference"),
            std::string::npos);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t unit_batch : {std::size_t{1}, std::size_t{4}}) {
      test::TempDir dir("bkid_det_ref_" + std::to_string(jobs) + "_" +
                        std::to_string(unit_batch));
      const DetRun run = run_campaign("ref", jobs, unit_batch, dir.str());
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " unit_batch=" + std::to_string(unit_batch));
      expect_identical(base, run);
      const io::Json inference = inference_section(run.metrics_path);
      EXPECT_EQ(inference.at("backend").as_string(), "ref");
      EXPECT_EQ(inference.at("numeric_type").as_string(), "fp32");
    }
  }
}

TEST_F(ObjDetBackendIdentity, Avx2MatchesRefByteForByteAcrossGrid) {
  if (tensor::find_backend("avx2") == nullptr) {
    GTEST_SKIP() << "no avx2 backend registered in this build/host";
  }
  expect_avx2_matches_ref("objdet", [&](const std::string& backend, std::size_t jobs,
                                        std::size_t unit_batch, bool diff,
                                        const std::string& dir) {
    const DetRun run = run_campaign(backend, jobs, unit_batch, dir, diff,
                                    /*checkpoint=*/true);
    EXPECT_EQ(inference_section(run.metrics_path).at("backend").as_string(), backend);
    return backend_free_artifacts({run.result.orig_json, run.result.corr_json,
                                   run.result.fault_bin, run.result.trace_bin},
                                  dir + "/ckpt", run.metrics_path);
  });
}

}  // namespace
}  // namespace alfi::core
