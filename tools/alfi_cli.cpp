// alfi — command-line front end for the fault-injection framework.
//
// Subcommands:
//   run-imgclass   train (cached) a classifier and run a FI campaign
//   run-objdet     train (cached) a detector and run a FI campaign
//   inspect-faults print a persisted fault matrix (Table I view or JSON)
//   analyze        aggregate a results CSV / injection trace (§V.F.1)
//   show-scenario  parse, validate and echo a scenario YAML
//
// `alfi --help` (or --help / -h after any subcommand) prints the usage;
// a --flag the subcommand does not read is refused before it runs.
//
// Examples:
//   alfi run-imgclass --model vgg --dataset-size 96 --output out/ --mitigation ranger
//   alfi run-objdet --family yolo --output out/
//   alfi inspect-faults out/vgg_faults.bin
//   alfi analyze out/vgg_results.csv --trace out/vgg_trace.bin
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/alficore.h"
#include "data/synthetic.h"
#include "models/classification.h"
#include "models/train.h"
#include "tensor/backend.h"
#include "util/drain.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "vis/ascii_plot.h"

using namespace alfi;

namespace {

/// Minimal --flag value parser; flags without '--' are positionals.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  /// True for --help or -h anywhere on the command line.
  bool wants_help() const {
    return flags.contains("help") ||
           std::find(positional.begin(), positional.end(), "-h") != positional.end();
  }

  /// Refuses a flag outside `known`: a misspelt flag would otherwise run
  /// the campaign with that option's default.
  void require_known(const std::string& command,
                     std::span<const std::string_view> known) const {
    for (const auto& [key, value] : flags) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        throw ConfigError("unknown option --" + key + " for " + command +
                          " (see alfi --help)");
      }
    }
  }

  static Args parse(int argc, char** argv, int first) {
    Args args;
    for (int i = first; i < argc; ++i) {
      const std::string token = argv[i];
      if (starts_with(token, "--")) {
        const std::string key = token.substr(2);
        if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
          args.flags[key] = argv[++i];
        } else {
          args.flags[key] = "true";
        }
      } else {
        args.positional.push_back(token);
      }
    }
    return args;
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = flags.find(key);
    return it == flags.end() ? std::nullopt : std::optional(it->second);
  }
};

/// --jobs N: campaign worker threads; default = hardware concurrency.
std::size_t parse_jobs(const Args& args) {
  const auto value = args.get("jobs");
  if (!value) return core::CampaignRunner::default_job_count();
  const auto parsed = parse_int(*value);
  if (!parsed || *parsed < 1) {
    throw ConfigError("--jobs must be a positive integer, got: " + *value);
  }
  return static_cast<std::size_t>(*parsed);
}

/// --checkpoint <dir> / --resume <dir>: shared crash-safety flags of both
/// run commands.  --resume implies the checkpoint directory, so
/// `alfi run-... --resume out/ckpt` both continues the interrupted
/// campaign and keeps journaling it.
void apply_checkpoint_flags(core::CampaignConfigBase& config, const Args& args) {
  if (const auto dir = args.get("checkpoint")) config.checkpoint_dir = *dir;
  if (const auto dir = args.get("resume")) {
    config.checkpoint_dir = *dir;
    config.resume = true;
  }
  if (!config.checkpoint_dir.empty()) install_drain_handlers();
}

/// --metrics <path> / --progress: shared telemetry flags of both run
/// commands.  --metrics writes the campaign's metrics.json (schema in
/// DESIGN.md §9); --progress draws a live stderr line while units run.
void apply_telemetry_flags(core::CampaignConfigBase& config, const Args& args) {
  if (const auto path = args.get("metrics")) config.metrics_path = *path;
  if (args.get("progress")) config.progress = true;
}

/// --no-workspace: fall back to the allocating forward() path instead
/// of arena-backed workspace inference (same outputs, for A/B timing).
/// --no-diff: full recompute of every campaign pass instead of
/// differential inference (fault-cone replay of the fault-free pass),
/// and no fault-free cache (DESIGN.md §11, §11.1 and §12; same outputs,
/// for A/B verification).
/// --unit-batch K: pack up to K campaign units into one batched forward
/// pass, arming each unit's faults on its own batch slot (DESIGN.md
/// §12; same outputs, clamped to what the workload supports).
void apply_workspace_flag(core::CampaignConfigBase& config, const Args& args) {
  if (args.get("no-workspace")) config.workspace = false;
  if (args.get("no-diff")) config.diff = false;
  if (const auto v = args.get("unit-batch")) {
    const auto parsed = parse_int(*v);
    if (!parsed || *parsed < 1) {
      throw ConfigError("--unit-batch must be a positive integer, got: " + *v);
    }
    config.unit_batch = static_cast<std::size_t>(*parsed);
  }
}

/// Distributed fleet role flags (DESIGN.md §14), shared by both run
/// commands:
///   --fleet-workers N        coordinate + fork N local worker processes
///   --fleet-coordinator [P]  coordinate remote workers (listen on port P,
///                            default ephemeral; combinable with
///                            --fleet-workers)
///   --fleet-worker H:P       join the coordinator at host H, port P
///   --lease-units K          units per lease grant (default 8)
/// Coordinator modes require --checkpoint (the shipped frames are merged
/// through the journal).
void apply_fleet_flags(core::CampaignConfigBase& config, const Args& args) {
  if (const auto v = args.get("fleet-workers")) {
    const auto parsed = parse_int(*v);
    if (!parsed || *parsed < 1) {
      throw ConfigError("--fleet-workers must be a positive integer, got: " + *v);
    }
    config.fleet.local_workers = static_cast<std::size_t>(*parsed);
  }
  if (const auto v = args.get("fleet-coordinator")) {
    config.fleet.coordinator = true;
    if (*v != "true") {  // a bare flag parses as "true": ephemeral port
      const auto parsed = parse_int(*v);
      if (!parsed || *parsed < 1 || *parsed > 65535) {
        throw ConfigError("--fleet-coordinator port must be 1..65535, got: " + *v);
      }
      config.fleet.listen_port = static_cast<std::uint16_t>(*parsed);
    }
  }
  if (const auto v = args.get("fleet-worker")) {
    config.fleet.connect = *v;
    core::parse_host_port(*v);  // fail fast on a malformed spec
  }
  if (const auto v = args.get("lease-units")) {
    const auto parsed = parse_int(*v);
    if (!parsed || *parsed < 1) {
      throw ConfigError("--lease-units must be a positive integer, got: " + *v);
    }
    config.fleet.lease_units = static_cast<std::size_t>(*parsed);
  }
  if (config.fleet.worker_mode() && config.fleet.coordinator_mode()) {
    throw ConfigError(
        "--fleet-worker cannot be combined with --fleet-workers / "
        "--fleet-coordinator");
  }
  // A worker drains to its lease boundary on SIGINT/SIGTERM even
  // without checkpoint flags.
  if (config.fleet.enabled()) install_drain_handlers();
}

/// Adaptive steering flags (DESIGN.md §16), shared by both run commands:
///   --budget N            cap the campaign at N executed units, spent
///                         where the vulnerability map is least certain
///   --steer               stop sampling cells whose Wilson interval is
///                         already narrow (early stopping; usable with
///                         or without --budget)
///   --vuln-map <path>     write the per-(layer, bit, fault-type)
///                         vulnerability map JSON (works on exhaustive
///                         runs too)
///   --steer-half-width W  decision threshold on the interval half-width
///   --steer-z Z           normal quantile of the interval (default 1.96)
///   --steer-min-samples K minimum applied samples before a cell can be
///                         declared decided
///   --steer-round N       units planned per steering round (default
///                         units/8)
void apply_steering_flags(core::CampaignConfigBase& config, const Args& args) {
  if (const auto v = args.get("budget")) {
    const auto parsed = parse_int(*v);
    if (!parsed || *parsed < 1) {
      throw ConfigError("--budget must be a positive integer, got: " + *v);
    }
    config.steering.budget = static_cast<std::size_t>(*parsed);
  }
  if (args.get("steer")) config.steering.steer = true;
  if (const auto path = args.get("vuln-map")) config.steering.map_path = *path;
  if (const auto v = args.get("steer-half-width")) {
    const auto parsed = parse_double(*v);
    if (!parsed || *parsed <= 0.0 || *parsed >= 1.0) {
      throw ConfigError("--steer-half-width must be in (0, 1), got: " + *v);
    }
    config.steering.half_width = *parsed;
  }
  if (const auto v = args.get("steer-z")) {
    const auto parsed = parse_double(*v);
    if (!parsed || *parsed <= 0.0) {
      throw ConfigError("--steer-z must be positive, got: " + *v);
    }
    config.steering.z = *parsed;
  }
  if (const auto v = args.get("steer-min-samples")) {
    const auto parsed = parse_int(*v);
    if (!parsed || *parsed < 1) {
      throw ConfigError("--steer-min-samples must be a positive integer, got: " +
                        *v);
    }
    config.steering.min_cell_samples = static_cast<std::size_t>(*parsed);
  }
  if (const auto v = args.get("steer-round")) {
    const auto parsed = parse_int(*v);
    if (!parsed || *parsed < 1) {
      throw ConfigError("--steer-round must be a positive integer, got: " + *v);
    }
    config.steering.round_units = static_cast<std::size_t>(*parsed);
  }
}

std::optional<core::MitigationKind> parse_mitigation(const Args& args) {
  const auto value = args.get("mitigation");
  if (!value) return std::nullopt;
  if (*value == "ranger") return core::MitigationKind::kRanger;
  if (*value == "clipper") return core::MitigationKind::kClipper;
  throw ConfigError("unknown mitigation: " + *value + " (ranger|clipper)");
}

constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();

/// `text` as an integer in [lo, hi]; ConfigError naming `flag` otherwise.
std::uint64_t parse_count(const std::string& text, const std::string& flag,
                          std::uint64_t lo, std::uint64_t hi) {
  const auto parsed = parse_int(text);
  if (!parsed || *parsed < 0 || static_cast<std::uint64_t>(*parsed) < lo ||
      static_cast<std::uint64_t>(*parsed) > hi) {
    const std::string range = hi == kNoLimit ? "an integer >= " + std::to_string(lo)
                                             : "an integer in [" + std::to_string(lo) +
                                                   ", " + std::to_string(hi) + "]";
    throw ConfigError(flag + " must be " + range + ", got: " + text);
  }
  return static_cast<std::uint64_t>(*parsed);
}

core::Scenario load_scenario(const Args& args) {
  core::Scenario scenario;
  if (const auto path = args.get("scenario")) {
    scenario = core::Scenario::from_yaml_file(*path);
  }
  if (const auto v = args.get("dataset-size")) {
    scenario.dataset_size = parse_count(*v, "--dataset-size", 1, kNoLimit);
  }
  if (const auto v = args.get("faults-per-image")) {
    scenario.max_faults_per_image = parse_count(*v, "--faults-per-image", 1, kNoLimit);
  }
  if (const auto v = args.get("seed")) {
    scenario.rnd_seed = parse_count(*v, "--seed", 0, core::Scenario::kMaxSeed);
  }
  if (const auto v = args.get("target")) {
    scenario.target = core::fault_target_from_string(*v);
  }
  if (const auto v = args.get("backend")) scenario.backend = *v;
  if (const auto v = args.get("numeric-type")) {
    if (!nn::numeric_type_from_string(*v, scenario.numeric_type)) {
      throw ConfigError("unknown numeric type: " + *v +
                        " (fp32|bf16|fp16|fp16_stored|int8)");
    }
  }
  scenario.validate();
  // The CLI computes on the best available backend unless told
  // otherwise: every backend gives bit-identical results (DESIGN.md
  // §13).  Installed before training and the accuracy pass so both run
  // on it too; an unavailable explicit choice fails here, before either.
  if (scenario.backend.empty()) scenario.backend = "auto";
  tensor::set_active_backend(tensor::resolve_backend(scenario.backend));
  return scenario;
}

int cmd_run_imgclass(const Args& args) {
  const std::string arch = args.get("model", "lenet");
  core::Scenario scenario = load_scenario(args);

  // --model transformer swaps in the sequence-classification workload:
  // token-id "images" of shape [1,1,T] through the same harness.
  std::unique_ptr<data::ClassificationDataset> dataset_holder;
  if (arch == "transformer") {
    data::SequenceConfig seq_config;
    seq_config.size = std::max<std::size_t>(scenario.dataset_size, 128);
    seq_config.seed = 99;
    dataset_holder =
        std::make_unique<data::SyntheticSequenceClassification>(seq_config);
  } else {
    data::ClassificationConfig data_config;
    data_config.size = std::max<std::size_t>(scenario.dataset_size, 128);
    data_config.seed = 99;
    dataset_holder =
        std::make_unique<data::SyntheticShapesClassification>(data_config);
  }
  const data::ClassificationDataset& dataset = *dataset_holder;

  // Checkpoint flags first: the drain handlers must already be in place
  // while the (potentially long) model training below runs, so a
  // SIGTERM at any point after argument parsing drains gracefully.
  core::ImgClassCampaignConfig config;
  config.model_name = arch;
  config.output_dir = args.get("output", "alfi_out");
  config.mitigation = parse_mitigation(args);
  config.fault_file = args.get("fault-file", "");
  config.jobs = parse_jobs(args);
  apply_checkpoint_flags(config, args);
  apply_telemetry_flags(config, args);
  apply_workspace_flag(config, args);
  apply_fleet_flags(config, args);
  apply_steering_flags(config, args);

  std::shared_ptr<nn::Sequential> model;
  models::TrainConfig train_config;
  if (arch == "transformer") {
    model = models::make_mini_transformer({});
    train_config.epochs = 40;
    train_config.batch_size = 32;
    train_config.learning_rate = 0.05f;
  } else {
    model = models::make_classifier(arch, {});
    train_config.epochs = 30;
    train_config.batch_size = 32;
    train_config.learning_rate = 0.02f;
  }
  std::filesystem::create_directories("alfi_cache");
  models::train_classifier_cached(*model, dataset, train_config,
                                  "alfi_cache/cli_" + arch + ".params");
  std::printf("model %s ready, fault-free accuracy %.3f\n", arch.c_str(),
              static_cast<double>(models::evaluate_classifier(*model, dataset)));

  core::TestErrorModelsImgClass harness(*model, dataset, scenario, config);
  const auto result = harness.run();
  if (config.fleet.worker_mode()) {
    // The worker only streamed unit frames; KPIs and outputs belong to
    // the coordinator's summary.
    return 0;
  }
  std::printf("campaign done: %zu images | SDE %.3f | DUE %.3f", result.kpis.total,
              result.kpis.sde_rate(), result.kpis.due_rate());
  if (result.kpis.has_resil) {
    std::printf(" | hardened SDE %.3f", result.kpis.resil_sde_rate());
  }
  if (result.skipped_injections > 0) {
    std::printf(" | skipped injections %zu", result.skipped_injections);
  }
  std::printf("\noutputs under %s/\n", config.output_dir.c_str());
  if (!config.metrics_path.empty()) {
    std::printf("metrics written to %s\n", config.metrics_path.c_str());
  }
  return 0;
}

int cmd_run_objdet(const Args& args) {
  const std::string family = args.get("family", "yolo");
  core::Scenario scenario = load_scenario(args);

  data::DetectionConfig data_config;
  data_config.size = std::max<std::size_t>(scenario.dataset_size, 48);
  data_config.seed = 41;
  const data::SyntheticShapesDetection dataset(data_config);
  scenario.dataset_size = std::min(scenario.dataset_size, dataset.size());

  // As in run-imgclass: drain handlers in place before the training run.
  core::ObjDetCampaignConfig config;
  config.model_name = family;
  config.output_dir = args.get("output", "alfi_out");
  config.mitigation = parse_mitigation(args);
  config.fault_file = args.get("fault-file", "");
  config.jobs = parse_jobs(args);
  apply_checkpoint_flags(config, args);
  apply_telemetry_flags(config, args);
  apply_workspace_flag(config, args);
  apply_fleet_flags(config, args);
  apply_steering_flags(config, args);

  auto detector = models::make_detector(family, models::GridSpec{6, 48, 48}, 3, 3);
  models::TrainConfig train_config;
  train_config.epochs = 50;
  train_config.batch_size = 16;
  train_config.learning_rate = 0.01f;
  std::filesystem::create_directories("alfi_cache");
  models::train_detector_cached(*detector, dataset, train_config,
                                "alfi_cache/cli_" + family + ".params");
  std::printf("detector %s ready, recall@0.5IoU %.3f\n", family.c_str(),
              static_cast<double>(
                  models::evaluate_detector_recall(*detector, dataset, 0.4f)));

  core::TestErrorModelsObjDet harness(*detector, dataset, scenario, config);
  const auto result = harness.run();
  if (config.fleet.worker_mode()) {
    // The worker only streamed unit frames; KPIs and outputs belong to
    // the coordinator's summary.
    return 0;
  }
  std::printf(
      "campaign done: %zu images | IVMOD_SDE %.3f | IVMOD_DUE %.3f | mAP50 "
      "%.3f -> %.3f\n",
      result.ivmod.total, result.ivmod.sde_rate(), result.ivmod.due_rate(),
      result.orig_map.ap_50, result.faulty_map.ap_50);
  if (result.skipped_injections > 0) {
    std::printf("skipped injections: %zu\n", result.skipped_injections);
  }
  std::printf("outputs under %s/\n", config.output_dir.c_str());
  if (!config.metrics_path.empty()) {
    std::printf("metrics written to %s\n", config.metrics_path.c_str());
  }
  return 0;
}

int cmd_inspect_faults(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: alfi inspect-faults <faults.bin> [--json] [--limit N]\n");
    return 2;
  }
  const core::FaultMatrix matrix = core::FaultMatrix::load(args.positional[0]);
  if (args.get("json")) {
    std::printf("%s\n", matrix.to_json().dump(2).c_str());
    return 0;
  }
  const std::size_t limit = parse_count(args.get("limit", "16"), "--limit", 0, kNoLimit);
  const auto rows = matrix.table_rows();
  const char* names[7] = {"Batch/Layer", "Layer/OutCh", "Channel/InCh", "Depth",
                          "Height",      "Width",       "Value"};
  std::vector<std::string> header{"row"};
  for (std::size_t c = 0; c < std::min(limit, matrix.size()); ++c) {
    header.push_back("f" + std::to_string(c));
  }
  std::vector<std::vector<std::string>> out_rows;
  for (std::size_t r = 0; r < 7; ++r) {
    std::vector<std::string> row{names[r]};
    for (std::size_t c = 0; c < std::min(limit, matrix.size()); ++c) {
      row.push_back(std::to_string(rows[r][c]));
    }
    out_rows.push_back(std::move(row));
  }
  std::printf("%zu faults in %s (showing %zu):\n%s", matrix.size(),
              args.positional[0].c_str(), std::min(limit, matrix.size()),
              vis::table(header, out_rows).c_str());
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: alfi analyze <results.csv> [--trace trace.bin]\n");
    return 2;
  }
  const core::CampaignAnalysis analysis =
      core::analyze_results_csv(args.positional[0]);
  std::printf("%s", core::format_analysis(analysis).c_str());
  if (const auto trace = args.get("trace")) {
    std::printf("\n%s", core::format_trace_stats(
                            core::analyze_trace_file(*trace)).c_str());
  }
  return 0;
}

/// Compares two results CSVs image-by-image (e.g. unprotected vs.
/// hardened runs of the same fault file).
int cmd_diff(const Args& args) {
  if (args.positional.size() != 2) {
    std::fprintf(stderr, "usage: alfi diff <a_results.csv> <b_results.csv>\n");
    return 2;
  }
  const io::CsvTable a = io::read_csv_file(args.positional[0]);
  const io::CsvTable b = io::read_csv_file(args.positional[1]);
  if (a.rows.size() != b.rows.size()) {
    std::fprintf(stderr, "alfi: row counts differ (%zu vs %zu)\n", a.rows.size(),
                 b.rows.size());
    return 1;
  }
  const std::size_t a_id = a.column("image_id"), b_id = b.column("image_id");
  const std::size_t a_sde = a.column("sde"), b_sde = b.column("sde");
  const std::size_t a_due = a.column("due"), b_due = b.column("due");
  const std::size_t a_top = a.column("corr_top1_class");
  const std::size_t b_top = b.column("corr_top1_class");

  std::size_t verdict_changes = 0, top1_changes = 0;
  std::size_t fixed = 0, introduced = 0;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i][a_id] != b.rows[i][b_id]) {
      std::fprintf(stderr, "alfi: image order differs at row %zu\n", i);
      return 1;
    }
    const bool a_bad = a.rows[i][a_sde] == "1" || a.rows[i][a_due] == "1";
    const bool b_bad = b.rows[i][b_sde] == "1" || b.rows[i][b_due] == "1";
    if (a_bad != b_bad) {
      ++verdict_changes;
      if (a_bad && !b_bad) ++fixed;
      if (!a_bad && b_bad) ++introduced;
    }
    if (a.rows[i][a_top] != b.rows[i][b_top]) ++top1_changes;
  }
  std::printf("%zu images compared\n", a.rows.size());
  std::printf("  corruption verdict changed: %zu (%zu fixed in B, %zu introduced)\n",
              verdict_changes, fixed, introduced);
  std::printf("  faulty top-1 changed: %zu\n", top1_changes);
  return 0;
}

/// Dumps a model's injectable-target inventory as JSON: one entry per
/// injectable leaf with its layer kind, semantic roles, shapes and unit
/// counts — the scenario author's view of what `target` / `layer_types`
/// can address.  Weights are deterministically initialized (seed 1) so
/// the probe forward is reproducible; only geometry is reported.
int cmd_list_targets(const Args& args) {
  const std::string arch = args.get("model", "lenet");
  std::shared_ptr<nn::Sequential> model;
  Shape probe_shape;
  if (arch == "transformer") {
    const models::TransformerConfig transformer_config;
    model = models::make_mini_transformer(transformer_config);
    probe_shape = Shape{1, 1, 1, transformer_config.seq_len};
  } else {
    model = models::make_classifier(arch, {});
    probe_shape = Shape{1, 3, 32, 32};
  }
  Rng rng(1);
  nn::kaiming_init(*model, rng);
  model->set_training(false);
  const Tensor probe(probe_shape);
  const core::ModelProfile profile(*model, probe);

  io::Json targets = io::Json::array();
  for (const core::LayerInfo& layer : profile.layers()) {
    io::Json entry = io::Json::object();
    entry["index"] = io::Json(layer.index);
    entry["path"] = io::Json(layer.path);
    entry["kind"] = io::Json(nn::layer_kind_name(layer.kind));
    entry["weight_role"] = io::Json(layer.weight_role);
    entry["output_role"] = io::Json(layer.output_role);
    io::Json weight_shape = io::Json::array();
    for (const std::size_t d : layer.weight_shape.dims()) {
      weight_shape.push_back(io::Json(d));
    }
    entry["weight_shape"] = std::move(weight_shape);
    io::Json output_shape = io::Json::array();
    for (const std::size_t d : layer.output_shape.dims()) {
      output_shape.push_back(io::Json(d));
    }
    entry["output_shape"] = std::move(output_shape);
    entry["weight_count"] = io::Json(layer.weight_count);
    entry["neuron_count"] = io::Json(layer.neuron_count);
    targets.push_back(std::move(entry));
  }
  io::Json root = io::Json::object();
  root["model"] = io::Json(arch);
  root["total_weight_count"] = io::Json(profile.total_weight_count());
  root["total_neuron_count"] = io::Json(profile.total_neuron_count());
  root["targets"] = std::move(targets);
  std::printf("%s\n", root.dump(2).c_str());
  return 0;
}

int cmd_show_scenario(const Args& args) {
  const std::string path =
      args.positional.empty() ? "scenarios/default.yml" : args.positional[0];
  const core::Scenario scenario = core::Scenario::from_yaml_file(path);
  std::printf("%s", io::dump_yaml(scenario.to_yaml()).c_str());
  std::printf("# total pre-generated faults n = a*b*c = %zu\n",
              scenario.total_faults());
  return 0;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: alfi <command> [options]   (alfi --help: this text)\n"
               "commands:\n"
               "  run-imgclass   --model <lenet|alexnet|vgg|resnet|transformer>\n"
               "                 [--scenario f.yml]\n"
               "                 [--dataset-size N] [--faults-per-image N] [--seed N]\n"
               "                 [--target neurons|weights] [--mitigation ranger|clipper]\n"
               "                 [--fault-file f.bin] [--output dir] [--jobs N]\n"
               "                 [--checkpoint dir] [--resume dir]\n"
               "                 [--metrics out.json] [--progress] [--no-workspace]\n"
               "                 [--no-diff] [--unit-batch K] [--backend ref|avx2|auto]\n"
               "                 [--numeric-type fp32|bf16|fp16|fp16_stored|int8]\n"
               "                 [--fleet-workers N] [--fleet-coordinator [port]]\n"
               "                 [--fleet-worker host:port] [--lease-units K]\n"
               "                 [--budget N] [--steer] [--vuln-map map.json]\n"
               "                 [--steer-half-width W] [--steer-z Z]\n"
               "                 [--steer-min-samples K] [--steer-round N]\n"
               "                 (--jobs: campaign worker threads, default = all\n"
               "                  cores; output is identical for every job count.\n"
               "                  --unit-batch: pack up to K campaign units into\n"
               "                  one forward pass (default 1); outputs are\n"
               "                  identical for every K.\n"
               "                  --checkpoint: journal completed units so an\n"
               "                  interrupted campaign resumes with --resume;\n"
               "                  SIGINT/SIGTERM drain gracefully, exit code 75.\n"
               "                  --metrics: write campaign telemetry as JSON\n"
               "                  (DESIGN.md §9); --progress: live stderr line;\n"
               "                  --no-workspace: allocating inference path\n"
               "                  instead of arena-backed buffers, same outputs;\n"
               "                  --no-diff: full recompute instead of\n"
               "                  recomputing only what the faults reach of the\n"
               "                  fault-free pass or reusing an image's cached\n"
               "                  fault-free pass, same outputs;\n"
               "                  --backend: kernel backend, a pure speed choice\n"
               "                  (every backend gives bit-identical results) —\n"
               "                  auto (default unless the scenario names one)\n"
               "                  picks the best available, ref is the scalar\n"
               "                  oracle, avx2 requires CPU support; training,\n"
               "                  the accuracy pass and the campaign all run on\n"
               "                  it, and metrics.json records what actually ran\n"
               "                  under inference.backend.\n"
               "                  --numeric-type: weight representation — bf16/\n"
               "                  fp16 emulate by rounding fp32 weights;\n"
               "                  fp16_stored/int8 store true reduced-width\n"
               "                  codes that weight faults corrupt directly.\n"
               "                  --fleet-workers: coordinate N forked local\n"
               "                  worker processes (requires --checkpoint);\n"
               "                  --fleet-coordinator: also/only accept remote\n"
               "                  workers; --fleet-worker: join a coordinator —\n"
               "                  run the SAME campaign command elsewhere with\n"
               "                  this flag; a mismatched scenario, fault matrix\n"
               "                  or seed is refused.  Fleet outputs are\n"
               "                  byte-identical to --jobs 1; see DESIGN.md §14.\n"
               "                  --budget: cap executed units, spent where the\n"
               "                  vulnerability map is least certain; --steer:\n"
               "                  stop sampling statistically decided cells;\n"
               "                  --vuln-map: write the per-(layer, bit, fault-\n"
               "                  type) map JSON (also on exhaustive runs).  The\n"
               "                  plan is deterministic for every --jobs count\n"
               "                  and fleet layout; see DESIGN.md §16)\n"
               "  run-objdet     --family <yolo|retina|frcnn> [same options]\n"
               "  list-targets   --model <lenet|alexnet|vgg|resnet|transformer>\n"
               "                 (dump the injectable-target inventory as JSON:\n"
               "                  per layer its kind, weight/output roles, shapes\n"
               "                  and unit counts)\n"
               "  inspect-faults <faults.bin> [--json] [--limit N]\n"
               "  analyze        <results.csv> [--trace trace.bin]\n"
               "  diff           <a_results.csv> <b_results.csv>\n"
               "  show-scenario  [scenario.yml]\n");
}

// Every option the campaign commands read (load_scenario and the
// apply_*_flags helpers).
constexpr std::string_view kCampaignFlags[] = {
    // scenario (load_scenario)
    "scenario", "dataset-size", "faults-per-image", "seed", "target", "backend",
    "numeric-type",
    // harness configuration
    "mitigation", "fault-file", "output", "jobs",
    // apply_checkpoint_flags, apply_telemetry_flags, apply_workspace_flag
    "checkpoint", "resume", "metrics", "progress",
    "no-workspace", "no-diff", "unit-batch",
    // apply_fleet_flags
    "fleet-workers", "fleet-coordinator", "fleet-worker", "lease-units",
    // apply_steering_flags
    "budget", "steer", "vuln-map", "steer-half-width", "steer-z",
    "steer-min-samples", "steer-round"};

std::vector<std::string_view> campaign_flags(std::string_view model_flag) {
  std::vector<std::string_view> flags(std::begin(kCampaignFlags), std::end(kCampaignFlags));
  flags.push_back(model_flag);
  return flags;
}

/// A subcommand and the options it reads; any other --flag is refused
/// before the command runs (so before any training or data rendering).
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"run-imgclass", cmd_run_imgclass, campaign_flags("model")},
      {"run-objdet", cmd_run_objdet, campaign_flags("family")},
      {"list-targets", cmd_list_targets, {"model"}},
      {"inspect-faults", cmd_inspect_faults, {"json", "limit"}},
      {"analyze", cmd_analyze, {"trace"}},
      {"diff", cmd_diff, {}},
      {"show-scenario", cmd_show_scenario, {}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string command = argv[1];
  const Args args = Args::parse(argc, argv, 2);
  if (command == "--help" || command == "-h" || args.wants_help()) {
    usage(stdout);
    return 0;
  }
  const auto& table = commands();
  const auto it = std::find_if(table.begin(), table.end(),
                               [&](const Command& c) { return c.name == command; });
  if (it == table.end()) {
    usage(stderr);
    return 2;
  }
  try {
    args.require_known(command, it->flags);
    return it->run(args);
  } catch (const core::CampaignInterrupted& e) {
    std::fprintf(stderr, "alfi: %s\n", e.what());
    std::fprintf(stderr,
                 "alfi: rerun with --resume %s to finish the campaign\n",
                 e.checkpoint_dir().c_str());
    return kDrainExitCode;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alfi: %s\n", e.what());
    return 1;
  }
}
