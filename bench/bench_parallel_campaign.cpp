// Parallel campaign throughput — CampaignRunner speedup over the serial
// executor.
//
// The paper's motivation is validation *efficiency*: fault-injection
// campaigns are embarrassingly parallel across fault-matrix columns, so
// the wall-clock cost of a campaign should drop near-linearly with
// worker count while the outputs stay byte-identical (DESIGN.md,
// "Parallel execution model").  BM_CampaignJobs runs the same AlexNet
// classification campaign at --jobs 1/2/4 and reports the measured
// speedup vs the serial run as the "speedup" counter.  On a single-core
// host the speedup stays ~1x (threads time-slice one CPU); the merge
// overhead visible there is the price of determinism.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>

#include "bench_common.h"
#include "io/json.h"
#include "io/vulnerability_map.h"
#include "tensor/backend.h"

using namespace alfi;

namespace {

struct Env {
  Env() : dataset({.size = 64, .num_classes = 10, .seed = 99}),
          model(models::make_mini_alexnet({})) {
    Rng rng(1);
    nn::kaiming_init(*model, rng);
  }
  data::SyntheticShapesClassification dataset;
  std::shared_ptr<nn::Sequential> model;
};

Env& env() {
  static Env e;
  return e;
}

core::Scenario campaign_scenario() {
  core::Scenario s;
  s.target = core::FaultTarget::kNeurons;
  s.inj_policy = core::InjectionPolicy::kPerImage;
  s.dataset_size = 64;
  s.num_runs = 1;
  s.max_faults_per_image = 2;
  s.batch_size = 8;
  s.rnd_seed = 77;
  return s;
}

/// One campaign run: wall time plus the per-unit latency percentiles
/// from the harness's campaign.unit_ms histogram — the perf baseline
/// future optimization PRs compare against.
struct CampaignRun {
  double seconds = 0.0;
  double unit_mean_ms = 0.0;
  double unit_p50_ms = 0.0;
  double unit_p95_ms = 0.0;
  double unit_p99_ms = 0.0;
  double arena_high_water_bytes = 0.0;  // 0 on the allocating path

  /// Whole-campaign rate: includes the fixed setup cost (fault-matrix
  /// generation, model profiling, result merge) that every path pays.
  double units_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(campaign_scenario().dataset_size) /
                               seconds
                         : 0.0;
  }

  /// Steady-state unit rate from the campaign.unit_ms histogram — the
  /// number that scales with campaign size, and the one the
  /// zero-allocation refactor targets.
  double unit_throughput_per_sec() const {
    return unit_mean_ms > 0.0 ? 1000.0 / unit_mean_ms : 0.0;
  }
};

CampaignRun run_campaign_once(std::size_t jobs,
                              const std::string& checkpoint_dir = "",
                              bool workspace = true, bool diff = true,
                              const core::Scenario* scenario = nullptr,
                              std::size_t unit_batch = 1,
                              std::size_t fleet_workers = 0,
                              const core::SteeringOptions* steering = nullptr) {
  core::ImgClassCampaignConfig config;
  config.model_name = "alexnet";
  config.jobs = jobs;  // output_dir stays empty: KPIs only, no file IO
  config.checkpoint_dir = checkpoint_dir;
  config.workspace = workspace;
  config.diff = diff;
  config.unit_batch = unit_batch;
  config.fleet.local_workers = fleet_workers;  // fork-based fleet run
  if (steering != nullptr) config.steering = *steering;
  core::TestErrorModelsImgClass harness(*env().model, env().dataset,
                                        scenario ? *scenario
                                                 : campaign_scenario(),
                                        config);
  Stopwatch watch;
  const auto result = harness.run();
  benchmark::DoNotOptimize(result.kpis.total);
  CampaignRun run;
  run.seconds = watch.elapsed_seconds();
  for (const auto& [name, histogram] : harness.metrics().histograms()) {
    if (name != "campaign.unit_ms") continue;
    run.unit_mean_ms = histogram->mean();
    run.unit_p50_ms = histogram->percentile(50.0);
    run.unit_p95_ms = histogram->percentile(95.0);
    run.unit_p99_ms = histogram->percentile(99.0);
  }
  for (const auto& [name, value] : harness.metrics().gauges()) {
    if (name == "campaign.arena_high_water_bytes") run.arena_high_water_bytes = value;
  }
  return run;
}

/// The differential-inference showcase workload: the same campaign with
/// every fault restricted to the back half of the injectable layers
/// (conv3 + both linears on mini-alexnet).  Prefix reuse replays all
/// leaves before the earliest armed layer, so mid/late-network faults —
/// the common case in size-weighted selection, since late layers hold
/// most parameters — skip the expensive early convolutions entirely.
core::Scenario mid_network_scenario() {
  core::Scenario s = campaign_scenario();
  s.layer_range = {{2, 4}};
  // Reshaped to 8 images x 16 epochs: multi-epoch geometry gives the
  // executor stride-packs (the same image under many epochs' fault
  // groups), which is what both the differential runs and the
  // --unit-batch runs below exercise.
  s.dataset_size = 8;
  s.num_runs = 16;
  return s;
}

/// Serial wall-clock baseline, measured once and reused by every job
/// count so the reported speedups share a denominator.
double serial_baseline() {
  static const double seconds = run_campaign_once(1).seconds;
  return seconds;
}

void BM_CampaignJobs(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  CampaignRun last;
  for (auto _ : state) {
    last = run_campaign_once(jobs);
  }
  state.counters["speedup"] = serial_baseline() / last.seconds;
  state.counters["jobs"] = static_cast<double>(jobs);
  state.counters["unit_p50_ms"] = last.unit_p50_ms;
  state.counters["unit_p95_ms"] = last.unit_p95_ms;
  state.counters["unit_p99_ms"] = last.unit_p99_ms;
}
BENCHMARK(BM_CampaignJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("jobs")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Crash-safety overhead: the same campaign journaled to a checkpoint
/// directory.  "overhead" reports the slowdown vs the journal-free
/// serial baseline — one journal frame per unit plus an fsync every
/// CampaignProgress::kSyncEvery frames, after the header and at close.
void BM_CampaignCheckpointOverhead(benchmark::State& state) {
  const std::string dir = "bench_ckpt_" + std::to_string(::getpid());
  CampaignRun last;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);  // fresh journal each iteration
    state.ResumeTiming();
    last = run_campaign_once(1, dir);
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.counters["overhead"] = last.seconds / serial_baseline();
  state.counters["unit_p50_ms"] = last.unit_p50_ms;
  state.counters["unit_p95_ms"] = last.unit_p95_ms;
}
BENCHMARK(BM_CampaignCheckpointOverhead)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Batched unit execution (--unit-batch K, DESIGN.md §12): the executor
/// strides packs by dataset_size, so K units share ONE fault-free pass
/// (computed batch-1, broadcast-replayed into the packed corrupted /
/// hardened passes) — the dominant per-unit cost, the full fault-free
/// forward, amortizes K ways.  "batched_speedup" reports amortized
/// per-unit throughput vs the unit-at-a-time run of the same campaign.
void BM_CampaignUnitBatch(benchmark::State& state) {
  const auto unit_batch = static_cast<std::size_t>(state.range(0));
  static const core::Scenario mid = mid_network_scenario();
  CampaignRun last;
  for (auto _ : state) {
    last = run_campaign_once(1, "", true, true, &mid, unit_batch);
  }
  // Shared unit-at-a-time baseline.
  static const double serial_unit_ms =
      run_campaign_once(1, "", true, true, &mid).unit_mean_ms;
  state.counters["batched_speedup"] =
      last.unit_mean_ms > 0.0 ? serial_unit_ms / last.unit_mean_ms : 0.0;
  state.counters["unit_batch"] = static_cast<double>(unit_batch);
  state.counters["unit_p50_ms"] = last.unit_p50_ms;
  state.counters["unit_p95_ms"] = last.unit_p95_ms;
}
BENCHMARK(BM_CampaignUnitBatch)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->ArgName("unit_batch")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Kernel-level SIMD microbenchmark: the same GEMM + conv2d workload on
/// the scalar "ref" backend and the most accelerated registered backend
/// (avx2 when the build and host support it).  These two kernels carry
/// nearly all inference FLOPs, so their ratio is the backend seam's
/// headline number.  Returns {speedup, backend name}; speedup is 1.0
/// when only "ref" is registered.
struct SimdBench {
  double speedup = 1.0;
  std::string backend = "ref";
  double ref_ms = 0.0;
  double simd_ms = 0.0;
};

SimdBench measure_simd_speedup() {
  Rng rng(4711);
  // GEMM shaped like the im2col matmul of a mid-network conv layer.
  Tensor a = Tensor::uniform(Shape{96, 288}, rng, -1.0f, 1.0f);
  Tensor b = Tensor::uniform(Shape{288, 256}, rng, -1.0f, 1.0f);
  Tensor gemm_out(Shape{96, 256});
  // conv2d on a mini-alexnet-like mid layer.
  Tensor input = Tensor::uniform(Shape{4, 16, 16, 16}, rng, -1.0f, 1.0f);
  Tensor weight = Tensor::uniform(Shape{32, 16, 3, 3}, rng, -0.5f, 0.5f);
  Tensor bias = Tensor::uniform(Shape{32}, rng, -0.1f, 0.1f);
  const ops::Conv2dSpec spec{1, 1};
  Tensor conv_out(Shape{4, 32, 16, 16});
  std::vector<float> scratch(
      ops::conv2d_scratch_floats(input.shape(), weight.shape(), spec));

  const auto time_backend = [&](const tensor::Backend& backend) {
    constexpr int kIters = 20;
    double best = std::numeric_limits<double>::infinity();
    for (int repeat = 0; repeat < 3; ++repeat) {
      Stopwatch watch;
      for (int i = 0; i < kIters; ++i) {
        backend.matmul(gemm_out, a, b);
        backend.conv2d_forward(conv_out, input, weight, bias, spec, scratch);
      }
      benchmark::DoNotOptimize(gemm_out.raw());
      benchmark::DoNotOptimize(conv_out.raw());
      best = std::min(best, watch.elapsed_seconds() * 1000.0 / kIters);
    }
    return best;
  };

  SimdBench result;
  result.ref_ms = time_backend(tensor::ref_backend());
  const auto& backends = tensor::registered_backends();
  const tensor::Backend* fastest = backends.back();
  if (fastest == &tensor::ref_backend()) {
    result.simd_ms = result.ref_ms;
    return result;  // scalar-only build/host: speedup 1.0 by definition
  }
  result.backend = fastest->name();
  result.simd_ms = time_backend(*fastest);
  result.speedup = result.simd_ms > 0.0 ? result.ref_ms / result.simd_ms : 0.0;
  return result;
}

// ---- MiniTransformer workload ---------------------------------------------
// The attention-injection workload from ISSUE 9: same campaign plumbing,
// sequence-classification dataset, and layer-kind-restricted scenarios
// that pin faults to one attention site family at a time.

struct TransformerEnv {
  TransformerEnv()
      : dataset({.size = 64, .seed = 99}),
        model(models::make_mini_transformer({})) {
    Rng rng(1);
    nn::kaiming_init(*model, rng);
  }
  data::SyntheticSequenceClassification dataset;
  std::shared_ptr<nn::Sequential> model;
};

TransformerEnv& transformer_env() {
  static TransformerEnv e;
  return e;
}

core::Scenario transformer_scenario(std::vector<nn::LayerKind> kinds = {}) {
  core::Scenario s;
  s.target = core::FaultTarget::kNeurons;
  s.value_type = core::ValueType::kBitFlip;
  s.rnd_bit_range_lo = 20;
  s.rnd_bit_range_hi = 30;
  s.inj_policy = core::InjectionPolicy::kPerImage;
  s.layer_types = std::move(kinds);
  s.dataset_size = 64;
  s.num_runs = 1;
  s.max_faults_per_image = 2;
  s.batch_size = 8;
  s.rnd_seed = 77;
  return s;
}

struct TransformerRun {
  CampaignRun run;
  core::ClassificationKpis kpis;
};

TransformerRun run_transformer_once(const core::Scenario& scenario) {
  core::ImgClassCampaignConfig config;
  config.model_name = "transformer";
  config.jobs = 1;  // output_dir stays empty: KPIs only, no file IO
  core::TestErrorModelsImgClass harness(*transformer_env().model,
                                        transformer_env().dataset, scenario,
                                        config);
  Stopwatch watch;
  const auto result = harness.run();
  TransformerRun out;
  out.run.seconds = watch.elapsed_seconds();
  out.kpis = result.kpis;
  for (const auto& [name, histogram] : harness.metrics().histograms()) {
    if (name != "campaign.unit_ms") continue;
    out.run.unit_mean_ms = histogram->mean();
    out.run.unit_p50_ms = histogram->percentile(50.0);
    out.run.unit_p95_ms = histogram->percentile(95.0);
    out.run.unit_p99_ms = histogram->percentile(99.0);
  }
  return out;
}

io::Json run_to_json(const CampaignRun& run) {
  io::Json entry = io::Json::object();
  entry["seconds"] = io::Json(run.seconds);
  entry["units_per_sec"] = io::Json(run.units_per_sec());
  entry["unit_throughput_per_sec"] = io::Json(run.unit_throughput_per_sec());
  entry["unit_mean_ms"] = io::Json(run.unit_mean_ms);
  entry["unit_p50_ms"] = io::Json(run.unit_p50_ms);
  entry["unit_p95_ms"] = io::Json(run.unit_p95_ms);
  entry["unit_p99_ms"] = io::Json(run.unit_p99_ms);
  entry["arena_high_water_bytes"] = io::Json(run.arena_high_water_bytes);
  return entry;
}

/// Best-of-N wrapper: reruns one configuration and keeps the run with
/// the lowest mean unit latency.  Minimum-of-repeats is the standard
/// way to strip scheduler noise from a latency benchmark — the fastest
/// observation is the one closest to the code's true cost.
template <typename RunFn>
CampaignRun best_of(std::size_t repeats, RunFn&& run_fn) {
  CampaignRun best = run_fn();
  for (std::size_t i = 1; i < repeats; ++i) {
    const CampaignRun run = run_fn();
    if (run.unit_mean_ms < best.unit_mean_ms) best = run;
  }
  return best;
}

/// Machine-readable summary consumed by perf-tracking scripts: serial
/// workspace vs serial allocating (the headline zero-allocation
/// speedup) plus the parallel workspace run.  Written after the
/// google-benchmark tables so both forms come from one binary.
///
/// workspace_speedup is the ratio of single-thread *unit* throughput
/// (from the campaign.unit_ms histogram): the per-unit inference cost
/// is what the arena path optimizes, while the fixed campaign setup
/// (fault-matrix generation, profiling, merge) is identical on both
/// paths and amortizes away as campaigns grow.
void write_bench_json(const std::string& path) {
  std::printf("\n==== BENCH_campaign.json (workspace vs allocating) ====\n");
  run_campaign_once(1);  // warmup: populates the dataset render cache
  // workspace_serial runs with diff disabled so workspace_speedup keeps
  // measuring the arena effect alone; the diff effect is reported
  // separately below on the workload where it matters.
  const CampaignRun ws_serial =
      best_of(3, [] { return run_campaign_once(1, "", true, /*diff=*/false); });
  const CampaignRun alloc_serial =
      best_of(3, [] { return run_campaign_once(1, "", /*workspace=*/false); });
  const CampaignRun ws_jobs4 = run_campaign_once(4);

  // Differential inference on mid/late-network faults: diff-on vs
  // diff-off over the identical fault set, both serial on the workspace
  // path, so the ratio isolates the prefix-reuse saving.
  const core::Scenario mid = mid_network_scenario();
  const CampaignRun diff_on = best_of(3, [&mid] {
    return run_campaign_once(1, "", true, /*diff=*/true, &mid);
  });
  const CampaignRun diff_off = best_of(3, [&mid] {
    return run_campaign_once(1, "", true, /*diff=*/false, &mid);
  });

  // Batched unit execution on the same mid/late-network workload:
  // --unit-batch 16 against the unit-at-a-time diff run, both serial,
  // so batched_speedup isolates the pack effect on top of prefix reuse.
  // With 16 epochs the packs are same-image (stride = dataset_size) and
  // each pack computes the fault-free pass once for all 16 units.
  const CampaignRun batched = best_of(3, [&mid] {
    return run_campaign_once(1, "", true, /*diff=*/true, &mid,
                             /*unit_batch=*/16);
  });

  // Distributed fleet (--fleet-workers 4): the coordinator leases unit
  // ranges to four forked workers and merges their shipped frames.
  // Both sides of the ratio run checkpointed so fleet_speedup isolates
  // the fan-out effect, not the journal cost.  On a single-core host
  // the four workers time-slice one CPU and the speedup sits near (or
  // below) 1x — the frame shipping overhead is the price of the
  // multi-process path; host_cores is recorded alongside so readers
  // can tell scaling headroom from host limits.
  const std::string fleet_dir =
      "bench_fleet_" + std::to_string(::getpid());
  std::filesystem::remove_all(fleet_dir);
  const CampaignRun serial_ckpt = run_campaign_once(1, fleet_dir);
  std::filesystem::remove_all(fleet_dir);
  const CampaignRun fleet = run_campaign_once(1, fleet_dir, true, true,
                                              nullptr, /*unit_batch=*/1,
                                              /*fleet_workers=*/4);
  std::filesystem::remove_all(fleet_dir);
  const double fleet_speedup =
      fleet.seconds > 0.0 ? serial_ckpt.seconds / fleet.seconds : 0.0;

  // Budgeted steering (--budget + --steer, DESIGN.md §16): the same
  // campaign run exhaustively with a vulnerability map attached, then
  // steered at half the unit budget.  steering_unit_fraction records
  // how much of the exhaustive campaign the budgeted run executed, and
  // steering_top5_match whether the budgeted map reproduced the
  // exhaustive top-5 layer ranking — the accuracy-per-unit trade the
  // steering loop is buying.
  const std::string full_map_path =
      "bench_steer_full_" + std::to_string(::getpid()) + ".json";
  const std::string budget_map_path =
      "bench_steer_budget_" + std::to_string(::getpid()) + ".json";
  // High-exponent bit flips with one fault per unit: the workload where
  // per-layer SDC rates separate cleanly enough for a ranking to mean
  // something (the low-bit default scenario is mostly masked noise).
  core::Scenario steer_scenario = campaign_scenario();
  steer_scenario.value_type = core::ValueType::kBitFlip;
  steer_scenario.rnd_bit_range_lo = 28;
  steer_scenario.rnd_bit_range_hi = 30;
  steer_scenario.max_faults_per_image = 1;
  // 16 images x 8 epochs: every layer/bit cell gets multiple draws, so
  // the exhaustive ranking is stable enough to be a reference.
  steer_scenario.dataset_size = 16;
  steer_scenario.num_runs = 8;
  steer_scenario.rnd_seed = 913;
  core::SteeringOptions exhaustive_opts;
  exhaustive_opts.map_path = full_map_path;  // map-only: uncapped, unsteered
  const CampaignRun steer_exhaustive = run_campaign_once(
      1, "", true, true, &steer_scenario, 1, 0, &exhaustive_opts);
  core::SteeringOptions budget_opts;
  budget_opts.steer = true;
  budget_opts.map_path = budget_map_path;
  budget_opts.budget =
      steer_scenario.dataset_size * steer_scenario.num_runs / 2;
  const CampaignRun steer_budgeted = run_campaign_once(
      1, "", true, true, &steer_scenario, 1, 0, &budget_opts);
  const io::VulnerabilityMapFile full_map =
      io::read_vulnerability_map(full_map_path);
  const io::VulnerabilityMapFile budget_map =
      io::read_vulnerability_map(budget_map_path);
  if (!std::getenv("ALFI_KEEP_STEER_MAPS")) std::filesystem::remove(full_map_path);
  if (!std::getenv("ALFI_KEEP_STEER_MAPS")) std::filesystem::remove(budget_map_path);
  const auto top5 = [](const io::VulnerabilityMapFile& map) {
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < map.layers.size() && i < 5; ++i) {
      keys.push_back(map.layers[i].key);
    }
    return keys;
  };
  const bool top5_match = top5(full_map) == top5(budget_map);

  // SIMD backend microbench (GEMM + conv2d, ref vs best registered).
  const SimdBench simd = measure_simd_speedup();

  // MiniTransformer unit throughput (unrestricted neuron campaign) and
  // the attention-site SDC table: the same campaign confined by
  // layer_types to one site family at a time, so the SDC/DUE rates
  // compare the vulnerability of Q/K/V/MLP projections, the attention-
  // probability tensor, and the residual stream under an identical
  // fault model (GoldenTransformer-style site taxonomy).
  std::printf("\n==== MiniTransformer attention-site campaign ====\n");
  const core::Scenario tf_all = transformer_scenario();
  const TransformerRun tf_serial = [&tf_all] {
    TransformerRun best = run_transformer_once(tf_all);
    for (int i = 1; i < 3; ++i) {
      const TransformerRun next = run_transformer_once(tf_all);
      if (next.run.unit_mean_ms < best.run.unit_mean_ms) best = next;
    }
    return best;
  }();

  struct Site {
    const char* name;
    std::vector<nn::LayerKind> kinds;
  };
  const std::vector<Site> sites = {
      {"qkv_mlp_proj", {nn::LayerKind::kSeqLinear}},
      {"attn_probs", {nn::LayerKind::kAttention}},
      {"residual_stream", {nn::LayerKind::kResidual}},
  };
  io::Json sdc_table = io::Json::array();
  for (const Site& site : sites) {
    const TransformerRun r = run_transformer_once(transformer_scenario(site.kinds));
    io::Json entry = io::Json::object();
    entry["site"] = io::Json(std::string(site.name));
    entry["total"] = io::Json(static_cast<double>(r.kpis.total));
    entry["sde"] = io::Json(static_cast<double>(r.kpis.sde));
    entry["due"] = io::Json(static_cast<double>(r.kpis.due));
    entry["sde_rate"] = io::Json(r.kpis.sde_rate());
    entry["due_rate"] = io::Json(r.kpis.due_rate());
    sdc_table.push_back(entry);
    std::printf("site %-16s sde %5.1f%%  due %5.1f%%  (%zu/%zu units)\n",
                site.name, 100.0 * r.kpis.sde_rate(), 100.0 * r.kpis.due_rate(),
                r.kpis.sde, r.kpis.total);
  }
  std::printf("transformer serial: %7.2f units/s (mean %.3f ms, p50 %.3f ms)\n",
              tf_serial.run.unit_throughput_per_sec(), tf_serial.run.unit_mean_ms,
              tf_serial.run.unit_p50_ms);

  const core::Scenario scenario = campaign_scenario();
  io::Json root = io::Json::object();
  root["schema"] = io::Json(std::string("alfi.bench.campaign.v6"));
  root["host_cores"] =
      io::Json(static_cast<double>(core::CampaignRunner::default_job_count()));
  io::Json workload = io::Json::object();
  workload["model"] = io::Json(std::string("mini-alexnet"));
  workload["units"] =
      io::Json(static_cast<double>(scenario.dataset_size * scenario.num_runs));
  workload["faults_per_unit"] =
      io::Json(static_cast<double>(scenario.max_faults_per_image));
  root["workload"] = workload;
  root["workspace_serial"] = run_to_json(ws_serial);
  root["allocating_serial"] = run_to_json(alloc_serial);
  root["workspace_jobs4"] = run_to_json(ws_jobs4);
  const double speedup =
      ws_serial.unit_mean_ms > 0.0
          ? alloc_serial.unit_mean_ms / ws_serial.unit_mean_ms
          : 0.0;
  root["workspace_speedup"] = io::Json(speedup);

  io::Json diff_workload = io::Json::object();
  diff_workload["model"] = io::Json(std::string("mini-alexnet"));
  diff_workload["policy"] = io::Json(std::string("per_image"));
  diff_workload["target"] = io::Json(std::string("neurons"));
  diff_workload["layer_range"] = io::Json(std::string("2-4"));
  diff_workload["units"] =
      io::Json(static_cast<double>(mid.dataset_size * mid.num_runs));
  root["diff_workload"] = diff_workload;
  root["diff_on_serial"] = run_to_json(diff_on);
  root["diff_off_serial"] = run_to_json(diff_off);
  const double diff_speedup = diff_on.unit_mean_ms > 0.0
                                  ? diff_off.unit_mean_ms / diff_on.unit_mean_ms
                                  : 0.0;
  root["diff_speedup"] = io::Json(diff_speedup);
  root["batched_serial"] = run_to_json(batched);
  root["batched_unit_batch"] = io::Json(16.0);
  const double batched_speedup =
      batched.unit_mean_ms > 0.0 ? diff_on.unit_mean_ms / batched.unit_mean_ms
                                 : 0.0;
  root["batched_speedup"] = io::Json(batched_speedup);
  root["checkpointed_serial"] = run_to_json(serial_ckpt);
  root["fleet_run"] = run_to_json(fleet);
  root["fleet_workers"] = io::Json(4.0);
  root["fleet_speedup"] = io::Json(fleet_speedup);
  io::Json tf_workload = io::Json::object();
  tf_workload["model"] = io::Json(std::string("mini-transformer"));
  tf_workload["dataset"] = io::Json(std::string("synth-seq"));
  tf_workload["units"] =
      io::Json(static_cast<double>(tf_all.dataset_size * tf_all.num_runs));
  tf_workload["faults_per_unit"] =
      io::Json(static_cast<double>(tf_all.max_faults_per_image));
  root["transformer_workload"] = tf_workload;
  root["transformer_serial"] = run_to_json(tf_serial.run);
  root["transformer_sdc_table"] = sdc_table;
  root["steering_exhaustive"] = run_to_json(steer_exhaustive);
  root["steering_budgeted"] = run_to_json(steer_budgeted);
  root["steering_budget"] = io::Json(static_cast<double>(budget_opts.budget));
  root["steering_units_executed"] =
      io::Json(static_cast<double>(budget_map.units_executed));
  root["steering_unit_fraction"] = io::Json(budget_map.unit_fraction);
  root["steering_top5_match"] = io::Json(top5_match);
  root["steering_speedup"] =
      io::Json(steer_budgeted.seconds > 0.0
                   ? steer_exhaustive.seconds / steer_budgeted.seconds
                   : 0.0);
  root["simd_backend"] = io::Json(simd.backend);
  root["simd_gemm_conv_ref_ms"] = io::Json(simd.ref_ms);
  root["simd_gemm_conv_ms"] = io::Json(simd.simd_ms);
  root["simd_speedup"] = io::Json(simd.speedup);
  io::write_json_file(path, root);

  std::printf(
      "workspace  serial: %7.2f units/s (mean %.3f ms, p50 %.3f ms, arena %.0f B)\n",
      ws_serial.unit_throughput_per_sec(), ws_serial.unit_mean_ms,
      ws_serial.unit_p50_ms, ws_serial.arena_high_water_bytes);
  std::printf("allocating serial: %7.2f units/s (mean %.3f ms, p50 %.3f ms)\n",
              alloc_serial.unit_throughput_per_sec(), alloc_serial.unit_mean_ms,
              alloc_serial.unit_p50_ms);
  std::printf("workspace speedup: %.2fx (single-thread unit throughput)\n",
              speedup);
  std::printf(
      "diff on  (layers 2-4): %7.2f units/s (mean %.3f ms, p50 %.3f ms)\n",
      diff_on.unit_throughput_per_sec(), diff_on.unit_mean_ms,
      diff_on.unit_p50_ms);
  std::printf(
      "diff off (layers 2-4): %7.2f units/s (mean %.3f ms, p50 %.3f ms)\n",
      diff_off.unit_throughput_per_sec(), diff_off.unit_mean_ms,
      diff_off.unit_p50_ms);
  std::printf("diff speedup: %.2fx (single-thread unit throughput)\n",
              diff_speedup);
  std::printf(
      "batched (unit-batch 16): %7.2f units/s (amortized mean %.3f ms)\n",
      batched.unit_throughput_per_sec(), batched.unit_mean_ms);
  std::printf(
      "simd (%s vs ref, GEMM+conv2d): %.3f ms vs %.3f ms -> %.2fx speedup\n",
      simd.backend.c_str(), simd.simd_ms, simd.ref_ms, simd.speedup);
  std::printf(
      "fleet (4 local workers): %.2fs vs %.2fs checkpointed serial -> %.2fx "
      "speedup (%zu host cores)\n",
      fleet.seconds, serial_ckpt.seconds, fleet_speedup,
      core::CampaignRunner::default_job_count());
  std::printf(
      "steering (budget %zu): %zu/%zu units (%.0f%% of exhaustive), top-5 "
      "layer ranking %s, %.2fx wall-clock\n",
      budget_opts.budget, budget_map.units_executed, full_map.exhaustive_units,
      100.0 * budget_map.unit_fraction, top5_match ? "reproduced" : "DIVERGED",
      steer_budgeted.seconds > 0.0
          ? steer_exhaustive.seconds / steer_budgeted.seconds
          : 0.0);
  std::printf("batched speedup: %.2fx (vs unit-at-a-time diff run) -> %s\n",
              batched_speedup, path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("==== parallel campaign scaling (CampaignRunner) ====\n");
  std::printf("# hardware concurrency: %zu\n",
              core::CampaignRunner::default_job_count());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  write_bench_json("BENCH_campaign.json");
  return 0;
}
