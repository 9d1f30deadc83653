#include "core/scenario.h"

#include "tensor/backend.h"
#include "util/string_util.h"

namespace alfi::core {

const char* to_string(FaultTarget target) {
  switch (target) {
    case FaultTarget::kNeurons: return "neurons";
    case FaultTarget::kWeights: return "weights";
  }
  return "?";
}

const char* to_string(ValueType type) {
  switch (type) {
    case ValueType::kBitFlip: return "bitflip";
    case ValueType::kStuckAt0: return "stuck_at_0";
    case ValueType::kStuckAt1: return "stuck_at_1";
    case ValueType::kRandomValue: return "random_value";
  }
  return "?";
}

const char* to_string(InjectionPolicy policy) {
  switch (policy) {
    case InjectionPolicy::kPerImage: return "per_image";
    case InjectionPolicy::kPerBatch: return "per_batch";
    case InjectionPolicy::kPerEpoch: return "per_epoch";
  }
  return "?";
}

const char* to_string(FaultDuration duration) {
  switch (duration) {
    case FaultDuration::kTransient: return "transient";
    case FaultDuration::kPermanent: return "permanent";
  }
  return "?";
}

FaultTarget fault_target_from_string(const std::string& text) {
  const std::string t = to_lower(text);
  if (t == "neurons" || t == "neuron") return FaultTarget::kNeurons;
  if (t == "weights" || t == "weight") return FaultTarget::kWeights;
  throw ConfigError("unknown fault target: " + text);
}

ValueType value_type_from_string(const std::string& text) {
  const std::string t = to_lower(text);
  if (t == "bitflip" || t == "bit_flip") return ValueType::kBitFlip;
  if (t == "stuck_at_0" || t == "stuckat0") return ValueType::kStuckAt0;
  if (t == "stuck_at_1" || t == "stuckat1") return ValueType::kStuckAt1;
  if (t == "random_value" || t == "number") return ValueType::kRandomValue;
  throw ConfigError("unknown value type: " + text);
}

InjectionPolicy injection_policy_from_string(const std::string& text) {
  const std::string t = to_lower(text);
  if (t == "per_image") return InjectionPolicy::kPerImage;
  if (t == "per_batch") return InjectionPolicy::kPerBatch;
  if (t == "per_epoch") return InjectionPolicy::kPerEpoch;
  throw ConfigError("unknown injection policy: " + text);
}

FaultDuration fault_duration_from_string(const std::string& text) {
  const std::string t = to_lower(text);
  if (t == "transient") return FaultDuration::kTransient;
  if (t == "permanent") return FaultDuration::kPermanent;
  throw ConfigError("unknown fault duration: " + text);
}

namespace {

nn::LayerKind layer_kind_from_string(const std::string& text) {
  const std::string t = to_lower(text);
  if (t == "conv2d") return nn::LayerKind::kConv2d;
  if (t == "conv3d") return nn::LayerKind::kConv3d;
  if (t == "linear" || t == "fcc" || t == "fully_connected") {
    return nn::LayerKind::kLinear;
  }
  if (t == "seq_linear") return nn::LayerKind::kSeqLinear;
  if (t == "embedding") return nn::LayerKind::kEmbedding;
  if (t == "attention") return nn::LayerKind::kAttention;
  if (t == "residual") return nn::LayerKind::kResidual;
  if (t == "layernorm") return nn::LayerKind::kLayerNorm;
  throw ConfigError("unknown layer type: " + text);
}

/// A YAML count: a non-negative integer (Json::as_int rejects the rest).
std::size_t count_field(const io::Json& value, const std::string& name) {
  const long long v = value.as_int();
  if (v < 0) {
    throw ConfigError(name + " must be a non-negative integer, got " + std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

/// A bit index of rnd_bit_range: an integer in [0, 31].
int bit_field(const io::Json& value) {
  const long long v = value.as_int();
  if (v < 0 || v > 31) {
    throw ConfigError("rnd_bit_range entries must be in [0, 31], got " + std::to_string(v));
  }
  return static_cast<int>(v);
}

}  // namespace

std::vector<std::string> Scenario::validation_errors() const {
  std::vector<std::string> errors;
  if (rnd_bit_range_lo < 0 || rnd_bit_range_hi > 31 ||
      rnd_bit_range_lo > rnd_bit_range_hi) {
    errors.push_back("rnd_bit_range must satisfy 0 <= lo <= hi <= 31");
  }
  if (rnd_value_min > rnd_value_max) {
    errors.push_back("rnd_value_range must satisfy min <= max");
  }
  if (max_faults_per_image == 0) {
    errors.push_back("max_faults_per_image must be at least 1");
  }
  if (dataset_size == 0) errors.push_back("dataset_size must be positive");
  if (num_runs == 0) errors.push_back("num_runs must be positive");
  if (batch_size == 0) errors.push_back("batch_size must be positive");
  if (rnd_seed > kMaxSeed) errors.push_back("rnd_seed must be in [0, 2^53 - 1]");
  if (layer_range && layer_range->first > layer_range->second) {
    errors.push_back("layer_range must satisfy first <= last");
  }
  for (const nn::LayerKind kind : layer_types) {
    if (kind == nn::LayerKind::kOther) {
      errors.push_back(
          "layer_types may only list conv2d, conv3d, linear, seq_linear, "
          "embedding, attention, residual, layernorm");
      break;
    }
  }
  if (!tensor::is_known_backend_name(backend)) {
    errors.push_back("unknown backend '" + backend +
                     "' (expected ref, avx2 or auto)");
  }
  if (target == FaultTarget::kWeights && nn::is_stored_type(numeric_type) &&
      value_type != ValueType::kRandomValue &&
      rnd_bit_range_hi >= nn::storage_bits(numeric_type)) {
    errors.push_back(
        "rnd_bit_range exceeds the " +
        std::to_string(nn::storage_bits(numeric_type)) +
        "-bit stored representation of " + nn::to_string(numeric_type) +
        " weights (stored-type weight faults index stored-code bits)");
  }
  return errors;
}

void Scenario::validate() const {
  const std::vector<std::string> errors = validation_errors();
  if (errors.empty()) return;
  std::string message = "invalid scenario:";
  for (const std::string& error : errors) message += "\n  - " + error;
  throw ConfigError(message);
}

bool Scenario::allows_layer_kind(nn::LayerKind kind) const {
  if (kind == nn::LayerKind::kOther) return false;
  if (layer_types.empty()) return true;
  for (const nn::LayerKind allowed : layer_types) {
    if (allowed == kind) return true;
  }
  return false;
}

Scenario Scenario::from_yaml(const io::Json& tree) {
  Scenario s;
  if (tree.contains("fault_injection")) {
    const io::Json& fi = tree.at("fault_injection");
    if (fi.contains("target")) s.target = fault_target_from_string(fi.at("target").as_string());
    if (fi.contains("value_type")) {
      s.value_type = value_type_from_string(fi.at("value_type").as_string());
    }
    if (fi.contains("rnd_bit_range")) {
      const auto& range = fi.at("rnd_bit_range").as_array();
      if (range.size() != 2) throw ConfigError("rnd_bit_range needs two entries");
      s.rnd_bit_range_lo = bit_field(range[0]);
      s.rnd_bit_range_hi = bit_field(range[1]);
    }
    if (fi.contains("rnd_value_range")) {
      const auto& range = fi.at("rnd_value_range").as_array();
      if (range.size() != 2) throw ConfigError("rnd_value_range needs two entries");
      s.rnd_value_min = static_cast<float>(range[0].as_number());
      s.rnd_value_max = static_cast<float>(range[1].as_number());
    }
    if (fi.contains("duration")) {
      s.duration = fault_duration_from_string(fi.at("duration").as_string());
    }
    if (fi.contains("inj_policy")) {
      s.inj_policy = injection_policy_from_string(fi.at("inj_policy").as_string());
    }
    if (fi.contains("max_faults_per_image")) {
      s.max_faults_per_image =
          count_field(fi.at("max_faults_per_image"), "max_faults_per_image");
    }
    if (fi.contains("layer_types")) {
      s.layer_types.clear();
      for (const io::Json& entry : fi.at("layer_types").as_array()) {
        s.layer_types.push_back(layer_kind_from_string(entry.as_string()));
      }
    }
    if (fi.contains("layer_range")) {
      const auto& range = fi.at("layer_range").as_array();
      if (range.empty()) {
        s.layer_range.reset();
      } else {
        if (range.size() != 2) throw ConfigError("layer_range needs 0 or 2 entries");
        s.layer_range = {count_field(range[0], "layer_range"),
                         count_field(range[1], "layer_range")};
      }
    }
    if (fi.contains("weighted_layer_selection")) {
      s.weighted_layer_selection = fi.at("weighted_layer_selection").as_bool();
    }
  }
  if (tree.contains("inference")) {
    const io::Json& inf = tree.at("inference");
    if (inf.contains("backend")) s.backend = inf.at("backend").as_string();
    if (inf.contains("numeric_type")) {
      const std::string name = inf.at("numeric_type").as_string();
      if (!nn::numeric_type_from_string(name, s.numeric_type)) {
        throw ConfigError("unknown numeric type: " + name);
      }
    }
  }
  if (tree.contains("run")) {
    const io::Json& run = tree.at("run");
    if (run.contains("dataset_size")) {
      s.dataset_size = count_field(run.at("dataset_size"), "dataset_size");
    }
    if (run.contains("num_runs")) {
      s.num_runs = count_field(run.at("num_runs"), "num_runs");
    }
    if (run.contains("batch_size")) {
      s.batch_size = count_field(run.at("batch_size"), "batch_size");
    }
    if (run.contains("rnd_seed")) {
      s.rnd_seed = count_field(run.at("rnd_seed"), "rnd_seed");
    }
  }
  s.validate();
  return s;
}

Scenario Scenario::from_yaml_file(const std::string& path) {
  return from_yaml(io::read_yaml_file(path));
}

io::Json Scenario::to_yaml() const {
  io::Json tree = io::Json::object();
  io::Json fi = io::Json::object();
  fi["target"] = io::Json(to_string(target));
  fi["value_type"] = io::Json(to_string(value_type));
  io::Json bit_range = io::Json::array();
  bit_range.push_back(io::Json(rnd_bit_range_lo));
  bit_range.push_back(io::Json(rnd_bit_range_hi));
  fi["rnd_bit_range"] = bit_range;
  io::Json value_range = io::Json::array();
  value_range.push_back(io::Json(static_cast<double>(rnd_value_min)));
  value_range.push_back(io::Json(static_cast<double>(rnd_value_max)));
  fi["rnd_value_range"] = value_range;
  fi["duration"] = io::Json(to_string(duration));
  fi["inj_policy"] = io::Json(to_string(inj_policy));
  fi["max_faults_per_image"] = io::Json(max_faults_per_image);
  io::Json types = io::Json::array();
  for (const nn::LayerKind kind : layer_types) {
    types.push_back(io::Json(nn::layer_kind_name(kind)));
  }
  fi["layer_types"] = types;
  io::Json range = io::Json::array();
  if (layer_range) {
    range.push_back(io::Json(layer_range->first));
    range.push_back(io::Json(layer_range->second));
  }
  fi["layer_range"] = range;
  fi["weighted_layer_selection"] = io::Json(weighted_layer_selection);
  tree["fault_injection"] = fi;

  // The inference section is emitted only when it deviates from the
  // defaults (ref backend, fp32 weights).  Default scenarios therefore
  // serialize byte-identically to earlier framework versions, which
  // keeps campaign fingerprints — and with them journals and the
  // resumability of existing runs — unchanged.
  const bool default_backend = backend.empty() || backend == "ref";
  if (!default_backend || numeric_type != nn::NumericType::kFloat32) {
    io::Json inf = io::Json::object();
    inf["backend"] = io::Json(default_backend ? "ref" : backend);
    inf["numeric_type"] = io::Json(nn::to_string(numeric_type));
    tree["inference"] = inf;
  }

  io::Json run = io::Json::object();
  run["dataset_size"] = io::Json(dataset_size);
  run["num_runs"] = io::Json(num_runs);
  run["batch_size"] = io::Json(batch_size);
  run["rnd_seed"] = io::Json(rnd_seed);
  tree["run"] = run;
  return tree;
}

void Scenario::save_yaml_file(const std::string& path) const {
  io::write_yaml_file(path, to_yaml());
}

ScenarioBuilder ScenarioBuilder::from(const Scenario& scenario) {
  ScenarioBuilder builder;
  builder.s_ = scenario;
  return builder;
}

ScenarioBuilder& ScenarioBuilder::target(FaultTarget target) {
  s_.target = target;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::value_type(ValueType type) {
  s_.value_type = type;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::bit_range(int lo, int hi) {
  s_.rnd_bit_range_lo = lo;
  s_.rnd_bit_range_hi = hi;
  bit_range_set_ = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::value_range(float min, float max) {
  s_.rnd_value_min = min;
  s_.rnd_value_max = max;
  value_range_set_ = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::duration(FaultDuration duration) {
  s_.duration = duration;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::injection_policy(InjectionPolicy policy) {
  s_.inj_policy = policy;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::max_faults_per_image(std::size_t count) {
  s_.max_faults_per_image = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::layer_types(std::vector<nn::LayerKind> kinds) {
  s_.layer_types = std::move(kinds);
  layer_types_set_ = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::layer_range(std::size_t first,
                                              std::size_t last) {
  s_.layer_range = {first, last};
  return *this;
}

ScenarioBuilder& ScenarioBuilder::any_layer() {
  s_.layer_types.clear();
  s_.layer_range.reset();
  layer_types_set_ = false;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::weighted_layer_selection(bool enabled) {
  s_.weighted_layer_selection = enabled;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::backend(std::string name) {
  s_.backend = std::move(name);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::numeric_type(nn::NumericType type) {
  s_.numeric_type = type;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::dataset_size(std::size_t size) {
  s_.dataset_size = size;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::num_runs(std::size_t runs) {
  s_.num_runs = runs;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::batch_size(std::size_t size) {
  s_.batch_size = size;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t seed) {
  s_.rnd_seed = seed;
  return *this;
}

Scenario ScenarioBuilder::build() const {
  std::vector<std::string> errors = s_.validation_errors();
  if (bit_range_set_ && s_.value_type == ValueType::kRandomValue) {
    errors.push_back(
        "bit_range conflicts with value_type random_value (random-value "
        "faults ignore bit positions)");
  }
  if (value_range_set_ && s_.value_type != ValueType::kRandomValue) {
    errors.push_back(std::string("value_range conflicts with value_type ") +
                     to_string(s_.value_type) +
                     " (only random_value draws from it)");
  }
  if (s_.duration == FaultDuration::kPermanent &&
      s_.inj_policy == InjectionPolicy::kPerImage) {
    errors.push_back(
        "permanent faults conflict with the per_image policy (a fault that "
        "never heals cannot be re-drawn for every image; use per_epoch)");
  }
  if (layer_types_set_ && s_.layer_types.empty()) {
    errors.push_back(
        "layer_types was set to an empty list (no layer could receive "
        "faults; use any_layer() to lift the restriction)");
  }
  if (!errors.empty()) {
    std::string message = "invalid scenario:";
    for (const std::string& error : errors) message += "\n  - " + error;
    throw ConfigError(message);
  }
  return s_;
}

}  // namespace alfi::core
