// alfi_trace — the campaign benchmark's traced, in-process, serial run.
//
// Builds the campaign the `alfi run-imgclass` / `alfi run-objdet` CLI
// builds (same dataset, cached model, scenario and config) and times the
// calls into each module from outside, through public APIs only:
//
//   data    dataset construction plus rendering every sample
//   models  cached model load, fault-free evaluation
//   core    harness construction, CampaignTask::prepare, run_unit_pack,
//           absorb_unit, finalize
//   nn      per-leaf time: a forward hook on every leaf records the time
//           since the previous leaf's hook (or since the unit started)
//   tensor  per-op time: a forwarding tensor::Backend decorator installed
//           with set_active_backend after prepare()
//
// The units first run untraced (unit latency, the trace-overhead base),
// then again with hooks and decorator installed; the two passes must
// produce byte-identical unit payloads.  Workloads whose harness does not
// expose units (batched injection policies run inside run()) are traced
// through run(): the decorator is installed by the first leaf hook, since
// run() calls prepare(), which resets the active backend.
//
// Usage:
//   alfi_trace run-imgclass --model resnet --scenario s.yml --output dir
//       --json trace.json [--backend auto] [--mitigation ranger]
//       [--unit-batch K] [--units N]
//   alfi_trace run-objdet --family yolo ... (same options)
//
// Run it in the directory holding the CLI's alfi_cache/: it refuses to
// train, so a missing cached model is an error.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/alficore.h"
#include "data/synthetic.h"
#include "models/classification.h"
#include "models/detection.h"
#include "models/train.h"
#include "nn/module.h"
#include "tensor/backend.h"
#include "util/logging.h"
#include "util/string_util.h"

using namespace alfi;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Runs `fn` and returns its wall time in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return ms_between(start, Clock::now());
}

// ---- per-op timing ------------------------------------------------------------

struct OpStats {
  double ms = 0.0;
  std::uint64_t calls = 0;
};

/// Forwards every kernel to the backend that was active when it was
/// built, timing each call by op name.  Every virtual of tensor::Backend
/// is overridden: an op left out would silently fall back to the base
/// class's scalar kernel instead of the wrapped backend's.
class TimingBackend final : public tensor::Backend {
 public:
  explicit TimingBackend(tensor::Backend& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  tensor::Backend& inner() const { return inner_; }

  /// Keyed by the op-name literal of the one call site that times it.
  const std::map<const char*, OpStats>& stats() const { return stats_; }
  double conv2d_flops() const { return conv2d_flops_; }

  void add(Tensor& d, const Tensor& a, const Tensor& b) const override {
    Timed t(*this, "add");
    inner_.add(d, a, b);
  }
  void sub(Tensor& d, const Tensor& a, const Tensor& b) const override {
    Timed t(*this, "sub");
    inner_.sub(d, a, b);
  }
  void mul(Tensor& d, const Tensor& a, const Tensor& b) const override {
    Timed t(*this, "mul");
    inner_.mul(d, a, b);
  }
  void scale(Tensor& d, const Tensor& a, float f) const override {
    Timed t(*this, "scale");
    inner_.scale(d, a, f);
  }
  void add_inplace(Tensor& a, const Tensor& b) const override {
    Timed t(*this, "add_inplace");
    inner_.add_inplace(a, b);
  }
  void axpy_inplace(Tensor& a, float f, const Tensor& b) const override {
    Timed t(*this, "axpy_inplace");
    inner_.axpy_inplace(a, f, b);
  }
  void matmul(Tensor& d, const Tensor& a, const Tensor& b) const override {
    Timed t(*this, "matmul");
    inner_.matmul(d, a, b);
  }
  void transpose2d(Tensor& d, const Tensor& a) const override {
    Timed t(*this, "transpose2d");
    inner_.transpose2d(d, a);
  }
  void linear_forward(Tensor& d, const Tensor& in, const Tensor& w,
                      const Tensor& b) const override {
    Timed t(*this, "linear_forward");
    inner_.linear_forward(d, in, w, b);
  }
  void conv2d_forward(Tensor& d, const Tensor& in, const Tensor& w, const Tensor& b,
                      const ops::Conv2dSpec& spec,
                      std::span<float> col) const override {
    count_conv_flops(d, w);
    Timed t(*this, "conv2d_forward");
    inner_.conv2d_forward(d, in, w, b, spec, col);
  }
  void conv2d_planned(Tensor& d, const Tensor& in, const Tensor& w, const Tensor& b,
                      const ops::Conv2dPlan& plan,
                      std::span<float> col) const override {
    count_conv_flops(d, w);
    Timed t(*this, "conv2d_planned");
    inner_.conv2d_planned(d, in, w, b, plan, col);
  }
  void conv3d_forward(Tensor& d, const Tensor& in, const Tensor& w, const Tensor& b,
                      const ops::Conv3dSpec& spec) const override {
    Timed t(*this, "conv3d_forward");
    inner_.conv3d_forward(d, in, w, b, spec);
  }
  void maxpool2d(Tensor& d, const Tensor& in, const ops::Pool2dSpec& spec,
                 std::size_t* argmax) const override {
    Timed t(*this, "maxpool2d");
    inner_.maxpool2d(d, in, spec, argmax);
  }
  void avgpool2d(Tensor& d, const Tensor& in,
                 const ops::Pool2dSpec& spec) const override {
    Timed t(*this, "avgpool2d");
    inner_.avgpool2d(d, in, spec);
  }
  void global_avgpool2d(Tensor& d, const Tensor& in) const override {
    Timed t(*this, "global_avgpool2d");
    inner_.global_avgpool2d(d, in);
  }
  void relu(Tensor& d, const Tensor& in) const override {
    Timed t(*this, "relu");
    inner_.relu(d, in);
  }
  void leaky_relu(Tensor& d, const Tensor& in, float slope) const override {
    Timed t(*this, "leaky_relu");
    inner_.leaky_relu(d, in, slope);
  }
  void sigmoid(Tensor& d, const Tensor& in) const override {
    Timed t(*this, "sigmoid");
    inner_.sigmoid(d, in);
  }
  void tanh_act(Tensor& d, const Tensor& in) const override {
    Timed t(*this, "tanh_act");
    inner_.tanh_act(d, in);
  }
  void clamp(Tensor& d, const Tensor& in, float lo, float hi) const override {
    Timed t(*this, "clamp");
    inner_.clamp(d, in, lo, hi);
  }
  void batchnorm2d_eval(Tensor& d, const Tensor& in, const Tensor& gamma,
                        const Tensor& beta, const Tensor& mean, const Tensor& var,
                        float eps) const override {
    Timed t(*this, "batchnorm2d_eval");
    inner_.batchnorm2d_eval(d, in, gamma, beta, mean, var, eps);
  }
  void softmax_rows(Tensor& d, const Tensor& logits) const override {
    Timed t(*this, "softmax_rows");
    inner_.softmax_rows(d, logits);
  }
  void log_softmax_rows(Tensor& d, const Tensor& logits) const override {
    Timed t(*this, "log_softmax_rows");
    inner_.log_softmax_rows(d, logits);
  }
  void gelu(Tensor& d, const Tensor& in) const override {
    Timed t(*this, "gelu");
    inner_.gelu(d, in);
  }
  void layernorm(Tensor& d, const Tensor& in, const Tensor& gamma, const Tensor& beta,
                 float eps) const override {
    Timed t(*this, "layernorm");
    inner_.layernorm(d, in, gamma, beta, eps);
  }
  void softmax_over_heads(Tensor& d, const Tensor& scores) const override {
    Timed t(*this, "softmax_over_heads");
    inner_.softmax_over_heads(d, scores);
  }
  void attention_scores(Tensor& d, const Tensor& q, const Tensor& k,
                        std::size_t heads, float scale) const override {
    Timed t(*this, "attention_scores");
    inner_.attention_scores(d, q, k, heads, scale);
  }
  void attention_context(Tensor& d, const Tensor& probs, const Tensor& v,
                         std::size_t heads) const override {
    Timed t(*this, "attention_context");
    inner_.attention_context(d, probs, v, heads);
  }

 private:
  /// Scoped timer: adds the enclosing kernel call's wall time to its op.
  class Timed {
   public:
    Timed(const TimingBackend& owner, const char* op)
        : stats_(owner.stats_[op]), start_(Clock::now()) {}
    ~Timed() {
      stats_.ms += ms_between(start_, Clock::now());
      ++stats_.calls;
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    OpStats& stats_;
    Clock::time_point start_;
  };

  /// Multiply-adds of a direct convolution, computed from the shapes:
  /// every output element reduces C_in * K_h * K_w products.
  void count_conv_flops(const Tensor& dst, const Tensor& weight) const {
    const double per_output =
        static_cast<double>(weight.numel()) / static_cast<double>(weight.dim(0));
    conv2d_flops_ += 2.0 * static_cast<double>(dst.numel()) * per_output;
  }

  tensor::Backend& inner_;
  // The serial traced run is single-threaded; the kernels are const.
  // Keying by address avoids building a string on every kernel call.
  mutable std::map<const char*, OpStats> stats_;
  mutable double conv2d_flops_ = 0.0;
};

// ---- per-leaf timing ------------------------------------------------------------

/// Forward hooks on every leaf of a model, plus one on its root to count
/// passes.  Each leaf hook charges the time since the previous hook (or
/// since start_unit()) to its leaf, so one pass's leaf times sum to the
/// pass's wall time.  Leaves the differential prefix replays without
/// running hooks charge nothing; their (near-zero) time lands on the next
/// computed leaf.
class LeafTimer {
 public:
  LeafTimer(nn::Module& root, TimingBackend& ops) : root_(root), ops_(ops) {
    root.for_each_module([this](const std::string& path, nn::Module& m) {
      if (!m.children().empty()) return;
      Leaf leaf;
      leaf.path = path.empty() ? "<root>" : path;
      leaf.module = &m;
      leaves_.push_back(std::move(leaf));
    });
  }
  LeafTimer(const LeafTimer&) = delete;
  LeafTimer& operator=(const LeafTimer&) = delete;
  ~LeafTimer() { uninstall(); }

  void install() {
    prev_ = Clock::now();
    for (std::size_t i = 0; i < leaves_.size(); ++i) {
      Leaf& leaf = leaves_[i];
      leaf.handle = leaf.module->register_forward_hook(
          [this, i](nn::Module&, const Tensor&, Tensor&) { on_leaf(i); });
    }
    root_handle_ = root_.register_forward_hook(
        [this](nn::Module&, const Tensor&, Tensor&) { ++passes_; });
  }

  void uninstall() {
    for (Leaf& leaf : leaves_) {
      if (leaf.handle) leaf.module->remove_forward_hook(*leaf.handle);
      leaf.handle.reset();
    }
    if (root_handle_) root_.remove_forward_hook(*root_handle_);
    root_handle_.reset();
  }

  void start_unit() { prev_ = Clock::now(); }

  struct Leaf {
    std::string path;
    nn::Module* module = nullptr;
    std::optional<nn::HookHandle> handle;
    double ms = 0.0;
    std::uint64_t runs = 0;
  };
  const std::vector<Leaf>& leaves() const { return leaves_; }
  std::uint64_t passes() const { return passes_; }

 private:
  void on_leaf(std::size_t i) {
    // run() resets the active backend in prepare(); reinstall the
    // decorator as soon as a pass is under way.
    if (&tensor::active_backend() != &ops_) tensor::set_active_backend(ops_);
    const auto now = Clock::now();
    leaves_[i].ms += ms_between(prev_, now);
    ++leaves_[i].runs;
    prev_ = now;
  }

  nn::Module& root_;
  TimingBackend& ops_;
  std::vector<Leaf> leaves_;
  std::optional<nn::HookHandle> root_handle_;
  Clock::time_point prev_;
  std::uint64_t passes_ = 0;
};

// ---- command line -----------------------------------------------------------------

struct Options {
  std::string command;
  std::string arch;
  std::string scenario_path;
  std::string output_dir;
  std::string json_path;
  std::string backend;
  std::string mitigation;
  std::size_t unit_batch = 1;
  std::size_t units = 0;  // 0 = every unit
};

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw ConfigError("usage: alfi_trace run-imgclass|run-objdet [options]");
  Options o;
  o.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw ConfigError("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--model" || flag == "--family") {
      o.arch = value;
    } else if (flag == "--scenario") {
      o.scenario_path = value;
    } else if (flag == "--output") {
      o.output_dir = value;
    } else if (flag == "--json") {
      o.json_path = value;
    } else if (flag == "--backend") {
      o.backend = value;
    } else if (flag == "--mitigation") {
      o.mitigation = value;
    } else if (flag == "--unit-batch" || flag == "--units") {
      const auto parsed = parse_int(value);
      if (!parsed || *parsed < 0) throw ConfigError(flag + " needs a count");
      (flag == "--units" ? o.units : o.unit_batch) = static_cast<std::size_t>(*parsed);
    } else {
      throw ConfigError("unknown flag " + flag);
    }
  }
  if (o.command != "run-imgclass" && o.command != "run-objdet") {
    throw ConfigError("unknown command " + o.command);
  }
  if (o.arch.empty() || o.scenario_path.empty() || o.output_dir.empty() ||
      o.json_path.empty()) {
    throw ConfigError("--model/--family, --scenario, --output and --json are required");
  }
  return o;
}

std::string require_cache(const std::string& arch) {
  const std::string path = "alfi_cache/cli_" + arch + ".params";
  if (!std::filesystem::exists(path)) {
    throw ConfigError("no cached model " + path + " (run the CLI once to train it)");
  }
  return path;
}

// ---- the traced campaign ----------------------------------------------------------

struct Trace {
  std::map<std::string, double> spans;
  double unit_p50_ms = 0.0;  // untraced unit latency
  double unit_p99_ms = 0.0;
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  bool payloads_identical = true;
  std::uint64_t diff_layers_skipped = 0;
  double arena_high_water_bytes = 0.0;
};

std::uint64_t counter_value(const util::MetricsRegistry& registry, const std::string& name) {
  for (const auto& [key, value] : registry.counters()) {
    if (key == name) return value;
  }
  return 0;
}

double gauge_value(const util::MetricsRegistry& registry, const std::string& name) {
  for (const auto& [key, value] : registry.gauges()) {
    if (key == name) return value;
  }
  return 0.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(rank + 0.5)];
}

/// Packs of the first `limit` units, formed as the campaign executor
/// forms them on a single shard: {t, t+stride, ...} up to `pack` units.
std::vector<std::vector<std::size_t>> make_packs(std::size_t limit, std::size_t pack,
                                                 std::size_t stride) {
  std::vector<bool> taken(limit, false);
  std::vector<std::vector<std::size_t>> packs;
  for (std::size_t t = 0; t < limit; ++t) {
    if (taken[t]) continue;
    std::vector<std::size_t> units;
    for (std::size_t u = t; units.size() < pack && u < limit && !taken[u]; u += stride) {
      units.push_back(u);
      taken[u] = true;
    }
    packs.push_back(std::move(units));
  }
  return packs;
}

/// Drives a unit-addressable task through its CampaignTask API.
template <typename Harness>
void trace_units(Harness& harness, const Options& options, LeafTimer& leaves,
                 TimingBackend& ops, Trace& trace) {
  trace.spans["core.prepare_ms"] = time_ms([&] { harness.prepare(); });
  ALFI_CHECK(&tensor::active_backend() == &ops.inner(),
             "prepare() installed a different backend than the scenario names");
  std::unique_ptr<core::CampaignUnitRunner> runner = harness.make_unit_runner(true);
  const std::size_t total = harness.unit_count();
  const std::size_t limit = options.units == 0 ? total : std::min(options.units, total);
  const std::size_t pack =
      std::max<std::size_t>(1, std::min(options.unit_batch, harness.max_unit_pack()));
  const auto packs =
      make_packs(limit, pack, std::max<std::size_t>(1, harness.unit_pack_stride()));
  ALFI_CHECK(!packs.empty(), "no units to trace");
  (void)runner->run_unit_pack(packs.front());  // plans the workspaces

  std::vector<double> unit_ms;
  std::map<std::size_t, std::string> untraced;
  for (const auto& units : packs) {
    std::vector<std::string> payloads;
    const double ms = time_ms([&] { payloads = runner->run_unit_pack(units); });
    trace.untraced_ms += ms;
    for (std::size_t i = 0; i < units.size(); ++i) {
      unit_ms.push_back(ms / static_cast<double>(units.size()));
      untraced[units[i]] = std::move(payloads[i]);
    }
  }
  trace.unit_p50_ms = percentile(unit_ms, 50.0);
  trace.unit_p99_ms = percentile(unit_ms, 99.0);

  const std::uint64_t skipped_before =
      counter_value(harness.metrics(), "campaign.diff.layers_skipped");
  tensor::set_active_backend(ops);
  leaves.install();
  std::map<std::size_t, std::string> traced;
  for (const auto& units : packs) {
    std::vector<std::string> payloads;
    leaves.start_unit();
    trace.traced_ms += time_ms([&] { payloads = runner->run_unit_pack(units); });
    for (std::size_t i = 0; i < units.size(); ++i) traced[units[i]] = std::move(payloads[i]);
  }
  leaves.uninstall();
  tensor::set_active_backend(ops.inner());
  trace.diff_layers_skipped =
      counter_value(harness.metrics(), "campaign.diff.layers_skipped") - skipped_before;
  trace.payloads_identical = traced == untraced;

  trace.spans["core.absorb_ms"] = time_ms([&] {
    for (const auto& [t, payload] : traced) harness.absorb_unit(t, payload);
  });
  trace.spans["core.finalize_ms"] = time_ms([&] { harness.finalize(); });
  trace.arena_high_water_bytes =
      gauge_value(harness.metrics(), "campaign.arena_high_water_bytes");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Batched injection policies run inside the harness's run(), which
/// calls prepare() and so resets the active backend: the leaf timer
/// reinstalls the decorator from its first hook.  Unit latency comes
/// from the harness's own per-window histogram of the untraced run.
void trace_run(core::TestErrorModelsImgClass& harness, const Options& options,
               LeafTimer& leaves, TimingBackend& ops, Trace& trace) {
  trace.spans["core.prepare_ms"] = time_ms([&] { harness.prepare(); });
  trace.untraced_ms = time_ms([&] { harness.run(); });
  for (const auto& [name, histogram] : harness.metrics().histograms()) {
    if (name != "campaign.unit_ms") continue;
    trace.unit_p50_ms = histogram->percentile(50.0);
    trace.unit_p99_ms = histogram->percentile(99.0);
  }
  const std::string results_csv = options.output_dir + "/" + options.arch + "_results.csv";
  const std::string untraced = read_file(results_csv);

  const std::uint64_t skipped_before =
      counter_value(harness.metrics(), "campaign.diff.layers_skipped");
  leaves.install();
  trace.traced_ms = time_ms([&] { harness.run(); });
  leaves.uninstall();
  tensor::set_active_backend(ops.inner());
  trace.diff_layers_skipped =
      counter_value(harness.metrics(), "campaign.diff.layers_skipped") - skipped_before;
  trace.payloads_identical = read_file(results_csv) == untraced;

  trace.spans["core.absorb_ms"] = 0.0;  // run() merges no unit payloads
  trace.spans["core.finalize_ms"] = time_ms([&] { harness.finalize(); });
  trace.arena_high_water_bytes =
      gauge_value(harness.metrics(), "campaign.arena_high_water_bytes");
}

io::Json to_json(const Trace& trace, const LeafTimer& leaves, TimingBackend& ops) {
  io::Json root = io::Json::object();
  io::Json spans = io::Json::object();
  for (const auto& [name, ms] : trace.spans) spans[name] = io::Json(ms);
  root["spans"] = std::move(spans);
  io::Json unit = io::Json::object();
  unit["p50"] = trace.unit_p50_ms;
  unit["p99"] = trace.unit_p99_ms;
  root["unit_ms"] = std::move(unit);
  root["untraced_ms"] = trace.untraced_ms;
  root["traced_ms"] = trace.traced_ms;
  root["payloads_identical"] = trace.payloads_identical;
  root["diff_layers_skipped"] = io::Json(static_cast<std::size_t>(trace.diff_layers_skipped));
  root["arena_high_water_bytes"] = trace.arena_high_water_bytes;

  io::Json leaf_list = io::Json::array();
  double leaf_sum = 0.0;
  std::uint64_t leaf_runs = 0;
  for (const auto& leaf : leaves.leaves()) {
    if (leaf.runs == 0) continue;  // never ran in a traced pass
    io::Json entry = io::Json::object();
    entry["path"] = leaf.path;
    entry["ms"] = leaf.ms;
    entry["runs"] = io::Json(static_cast<std::size_t>(leaf.runs));
    leaf_list.push_back(std::move(entry));
    leaf_sum += leaf.ms;
    leaf_runs += leaf.runs;
  }
  root["leaves"] = std::move(leaf_list);
  root["leaf_runs"] = io::Json(static_cast<std::size_t>(leaf_runs));
  root["passes"] = io::Json(static_cast<std::size_t>(leaves.passes()));
  root["leaf_coverage"] = trace.traced_ms > 0.0 ? leaf_sum / trace.traced_ms : 0.0;

  io::Json op_map = io::Json::object();
  for (const auto& [name, stats] : ops.stats()) {
    io::Json entry = io::Json::object();
    entry["ms"] = stats.ms;
    entry["calls"] = io::Json(static_cast<std::size_t>(stats.calls));
    op_map[name] = std::move(entry);
  }
  root["ops"] = std::move(op_map);
  root["conv2d_flops"] = ops.conv2d_flops();
  return root;
}

core::Scenario load_scenario(const Options& options) {
  core::Scenario scenario = core::Scenario::from_yaml_file(options.scenario_path);
  if (!options.backend.empty()) scenario.backend = options.backend;
  scenario.validate();
  return scenario;
}

template <typename Config>
void configure(Config& config, const Options& options) {
  config.model_name = options.arch;
  config.output_dir = options.output_dir;
  config.jobs = 1;
  config.unit_batch = std::max<std::size_t>(1, options.unit_batch);
  if (options.mitigation == "ranger") config.mitigation = core::MitigationKind::kRanger;
  if (options.mitigation == "clipper") config.mitigation = core::MitigationKind::kClipper;
}

io::Json trace_imgclass(const Options& options) {
  const core::Scenario scenario = load_scenario(options);
  Trace trace;
  // Dataset and model exactly as `alfi run-imgclass` builds them.
  std::unique_ptr<data::ClassificationDataset> dataset;
  trace.spans["data.render_ms"] = time_ms([&] {
    if (options.arch == "transformer") {
      data::SequenceConfig config;
      config.size = std::max<std::size_t>(scenario.dataset_size, 128);
      config.seed = 99;
      dataset = std::make_unique<data::SyntheticSequenceClassification>(config);
    } else {
      data::ClassificationConfig config;
      config.size = std::max<std::size_t>(scenario.dataset_size, 128);
      config.seed = 99;
      dataset = std::make_unique<data::SyntheticShapesClassification>(config);
    }
    for (std::size_t i = 0; i < dataset->size(); ++i) (void)dataset->get(i);
  });
  std::shared_ptr<nn::Sequential> model;
  trace.spans["models.load_ms"] = time_ms([&] {
    model = options.arch == "transformer" ? models::make_mini_transformer({})
                                          : models::make_classifier(options.arch, {});
    models::train_classifier_cached(*model, *dataset, {}, require_cache(options.arch));
  });
  trace.spans["models.eval_ms"] =
      time_ms([&] { (void)models::evaluate_classifier(*model, *dataset); });

  core::ImgClassCampaignConfig config;
  configure(config, options);
  std::optional<core::TestErrorModelsImgClass> harness;
  trace.spans["core.build_ms"] =
      time_ms([&] { harness.emplace(*model, *dataset, scenario, config); });

  TimingBackend ops(tensor::resolve_backend(scenario.backend));
  LeafTimer leaves(*model, ops);
  if (scenario.inj_policy == core::InjectionPolicy::kPerImage) {
    trace_units(*harness, options, leaves, ops, trace);
  } else {
    trace_run(*harness, options, leaves, ops, trace);
  }
  return to_json(trace, leaves, ops);
}

io::Json trace_objdet(const Options& options) {
  core::Scenario scenario = load_scenario(options);
  Trace trace;
  // Dataset and detector exactly as `alfi run-objdet` builds them.
  std::optional<data::SyntheticShapesDetection> dataset;
  trace.spans["data.render_ms"] = time_ms([&] {
    data::DetectionConfig config;
    config.size = std::max<std::size_t>(scenario.dataset_size, 48);
    config.seed = 41;
    dataset.emplace(config);
    for (std::size_t i = 0; i < dataset->size(); ++i) (void)dataset->get(i);
  });
  scenario.dataset_size = std::min(scenario.dataset_size, dataset->size());
  std::unique_ptr<models::Detector> detector;
  trace.spans["models.load_ms"] = time_ms([&] {
    detector = models::make_detector(options.arch, models::GridSpec{6, 48, 48}, 3, 3);
    models::train_detector_cached(*detector, *dataset, {}, require_cache(options.arch));
  });
  trace.spans["models.eval_ms"] = time_ms(
      [&] { (void)models::evaluate_detector_recall(*detector, *dataset, 0.4f); });

  core::ObjDetCampaignConfig config;
  configure(config, options);
  std::optional<core::TestErrorModelsObjDet> harness;
  trace.spans["core.build_ms"] =
      time_ms([&] { harness.emplace(*detector, *dataset, scenario, config); });

  TimingBackend ops(tensor::resolve_backend(scenario.backend));
  LeafTimer leaves(detector->network(), ops);
  trace_units(*harness, options, leaves, ops, trace);
  return to_json(trace, leaves, ops);
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  try {
    const Options options = parse_options(argc, argv);
    const io::Json result =
        options.command == "run-imgclass" ? trace_imgclass(options) : trace_objdet(options);
    std::ofstream out(options.json_path);
    out << result.dump(2) << "\n";
    if (!out) throw Error("cannot write " + options.json_path);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alfi_trace: %s\n", e.what());
    return 1;
  }
}
