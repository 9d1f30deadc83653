// Scenario: the campaign configuration read from scenarios/default.yml.
//
// Mirrors PyTorchALFI's scenario file (paper §IV.B, §V.C): the fault
// model (bit flips in a bit range, stuck-at, or random values), the
// injection target (neurons vs. weights), the injection policy
// (per_image / per_batch / per_epoch), transient vs. permanent faults,
// layer-type and layer-range restrictions, Eq.(1) size-weighted layer
// selection, and the run geometry (dataset_size a, num_runs b,
// max_faults_per_image c) from which the pre-generated fault count
// n = a*b*c follows.
//
// Scenarios are value types: campaigns may copy, mutate and re-apply
// them at run time (wrapper.get_scenario() / set_scenario(), §V.D).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/yaml.h"
#include "nn/module.h"
#include "nn/quantize.h"

namespace alfi::core {

enum class FaultTarget { kNeurons, kWeights };
enum class ValueType { kBitFlip, kStuckAt0, kStuckAt1, kRandomValue };
enum class InjectionPolicy { kPerImage, kPerBatch, kPerEpoch };
enum class FaultDuration { kTransient, kPermanent };

const char* to_string(FaultTarget target);
const char* to_string(ValueType type);
const char* to_string(InjectionPolicy policy);
const char* to_string(FaultDuration duration);

FaultTarget fault_target_from_string(const std::string& text);
ValueType value_type_from_string(const std::string& text);
InjectionPolicy injection_policy_from_string(const std::string& text);
FaultDuration fault_duration_from_string(const std::string& text);

struct Scenario {
  // -- fault model ---------------------------------------------------------
  FaultTarget target = FaultTarget::kNeurons;
  ValueType value_type = ValueType::kBitFlip;
  /// Inclusive fp32 bit range faults are drawn from (31 = sign,
  /// 30..23 = exponent, 22..0 = mantissa).
  int rnd_bit_range_lo = 0;
  int rnd_bit_range_hi = 31;
  /// Range for ValueType::kRandomValue.
  float rnd_value_min = -1.0f;
  float rnd_value_max = 1.0f;
  FaultDuration duration = FaultDuration::kTransient;
  InjectionPolicy inj_policy = InjectionPolicy::kPerImage;
  std::size_t max_faults_per_image = 1;

  // -- fault location restrictions ------------------------------------------
  /// Injectable layer kinds; empty = every kind the model advertises.
  std::vector<nn::LayerKind> layer_types;
  /// Inclusive [first, last] injectable-layer index range; nullopt = all.
  std::optional<std::pair<std::size_t, std::size_t>> layer_range;
  /// Eq.(1): weight layer choice by relative layer size.
  bool weighted_layer_selection = true;

  // -- inference configuration -------------------------------------------------
  /// Kernel backend the campaign computes with: "" or "ref" (the scalar
  /// reference oracle), "avx2", or "auto" (best available, falls back
  /// to ref).  Resolved against the registry by the harnesses at
  /// prepare time (tensor::resolve_backend); an unavailable explicit
  /// choice fails there, an unknown name already fails validation.
  std::string backend;
  /// Numeric representation of the model weights (DESIGN.md §13):
  /// emulated types round the fp32 values, stored types (fp16_stored,
  /// int8) additionally keep reduced-width codes that weight faults
  /// corrupt directly.  Activations always stay fp32.
  nn::NumericType numeric_type = nn::NumericType::kFloat32;

  // -- run geometry -----------------------------------------------------------
  std::size_t dataset_size = 100;  // a
  std::size_t num_runs = 1;        // b (epochs over the dataset)
  std::size_t batch_size = 8;
  std::uint64_t rnd_seed = 12345;

  /// The largest seed a scenario accepts, 2^53 - 1.  A scenario file
  /// holds numbers as doubles: every seed up to this one is exact there,
  /// so a recorded scenario replays the same campaign, while 2^53 is
  /// what the file's 2^53 + 1 reads back as, so it cannot be told apart.
  static constexpr std::uint64_t kMaxSeed = (std::uint64_t{1} << 53) - 1;

  /// n = dataset_size * num_runs * max_faults_per_image (paper §V.C).
  std::size_t total_faults() const {
    return dataset_size * num_runs * max_faults_per_image;
  }

  /// All field-level problems, empty when the scenario is valid.  Each
  /// entry is one human-readable complaint; validate() joins them.
  std::vector<std::string> validation_errors() const;

  /// Throws ConfigError listing every invalid field combination (not
  /// just the first one found).
  void validate() const;

  /// True if `kind` may receive faults under this scenario.
  bool allows_layer_kind(nn::LayerKind kind) const;

  // -- (de)serialization --------------------------------------------------------
  static Scenario from_yaml(const io::Json& tree);
  static Scenario from_yaml_file(const std::string& path);
  io::Json to_yaml() const;
  void save_yaml_file(const std::string& path) const;
};

/// Fluent scenario construction with deferred, aggregated validation.
///
/// Setting fields directly on a Scenario struct reports at most one
/// problem at a time (the first validate() throw) and cannot tell an
/// intentional default apart from a setting that the chosen fault model
/// ignores.  The builder records which knobs were touched and checks
/// everything at build():
///
///   Scenario s = ScenarioBuilder()
///                    .target(FaultTarget::kWeights)
///                    .bit_range(0, 7)
///                    .dataset_size(64)
///                    .build();   // throws ConfigError listing ALL problems
///
/// build() rejects, in one ConfigError that lists every offence:
///  - any field-level problem Scenario::validate() would flag,
///  - bit_range() combined with ValueType::kRandomValue (random-value
///    faults ignore bit positions),
///  - value_range() combined with a non-random value type,
///  - permanent faults combined with the per_image policy (a fault that
///    never heals cannot also be re-drawn for every image),
///  - layer_types() called with an empty list (would inject nowhere).
class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;

  /// Seeds the builder from an existing scenario (e.g. one loaded from
  /// YAML) so single knobs can be overridden fluently.
  static ScenarioBuilder from(const Scenario& scenario);

  ScenarioBuilder& target(FaultTarget target);
  ScenarioBuilder& value_type(ValueType type);
  /// Inclusive fp32 bit range for bit-flip faults.
  ScenarioBuilder& bit_range(int lo, int hi);
  /// Value range for ValueType::kRandomValue.
  ScenarioBuilder& value_range(float min, float max);
  ScenarioBuilder& duration(FaultDuration duration);
  ScenarioBuilder& injection_policy(InjectionPolicy policy);
  ScenarioBuilder& max_faults_per_image(std::size_t count);
  ScenarioBuilder& layer_types(std::vector<nn::LayerKind> kinds);
  /// Inclusive [first, last] injectable-layer index range.
  ScenarioBuilder& layer_range(std::size_t first, std::size_t last);
  /// Clears any layer-type / layer-range restriction.
  ScenarioBuilder& any_layer();
  ScenarioBuilder& weighted_layer_selection(bool enabled);
  /// Kernel backend name ("ref", "avx2", "auto"); unknown names are
  /// reported by build() alongside every other problem.
  ScenarioBuilder& backend(std::string name);
  /// Weight numeric representation (emulated or stored; DESIGN.md §13).
  ScenarioBuilder& numeric_type(nn::NumericType type);
  ScenarioBuilder& dataset_size(std::size_t size);
  ScenarioBuilder& num_runs(std::size_t runs);
  ScenarioBuilder& batch_size(std::size_t size);
  ScenarioBuilder& seed(std::uint64_t seed);

  /// Validates and returns the scenario.  Throws ConfigError whose
  /// message lists every problem, not just the first.
  Scenario build() const;

 private:
  Scenario s_;
  bool bit_range_set_ = false;
  bool value_range_set_ = false;
  bool layer_types_set_ = false;
};

}  // namespace alfi::core
