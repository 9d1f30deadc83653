#include "core/scenario.h"

#include <gtest/gtest.h>

#include "test_common.h"

namespace alfi::core {
namespace {

const char* kFullYaml = R"(
# PyTorchALFI-style scenario
fault_injection:
  target: weights
  value_type: bitflip
  rnd_bit_range: [23, 30]
  rnd_value_range: [-2.0, 2.0]
  duration: transient
  inj_policy: per_batch
  max_faults_per_image: 3
  layer_types: [conv2d, linear]
  layer_range: [1, 4]
  weighted_layer_selection: false
run:
  dataset_size: 50
  num_runs: 2
  batch_size: 10
  rnd_seed: 777
)";

TEST(Scenario, ParsesFullDocument) {
  const Scenario s = Scenario::from_yaml(io::parse_yaml(kFullYaml));
  EXPECT_EQ(s.target, FaultTarget::kWeights);
  EXPECT_EQ(s.value_type, ValueType::kBitFlip);
  EXPECT_EQ(s.rnd_bit_range_lo, 23);
  EXPECT_EQ(s.rnd_bit_range_hi, 30);
  EXPECT_FLOAT_EQ(s.rnd_value_min, -2.0f);
  EXPECT_EQ(s.duration, FaultDuration::kTransient);
  EXPECT_EQ(s.inj_policy, InjectionPolicy::kPerBatch);
  EXPECT_EQ(s.max_faults_per_image, 3u);
  ASSERT_EQ(s.layer_types.size(), 2u);
  EXPECT_EQ(s.layer_types[0], nn::LayerKind::kConv2d);
  ASSERT_TRUE(s.layer_range.has_value());
  EXPECT_EQ(s.layer_range->first, 1u);
  EXPECT_EQ(s.layer_range->second, 4u);
  EXPECT_FALSE(s.weighted_layer_selection);
  EXPECT_EQ(s.dataset_size, 50u);
  EXPECT_EQ(s.num_runs, 2u);
  EXPECT_EQ(s.batch_size, 10u);
  EXPECT_EQ(s.rnd_seed, 777u);
}

TEST(Scenario, TotalFaultsIsProduct) {
  Scenario s;
  s.dataset_size = 7;
  s.num_runs = 3;
  s.max_faults_per_image = 2;
  EXPECT_EQ(s.total_faults(), 42u);  // n = a * b * c (paper §V.C)
}

TEST(Scenario, DefaultsAreValid) {
  Scenario s;
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.target, FaultTarget::kNeurons);
  EXPECT_TRUE(s.weighted_layer_selection);
}

TEST(Scenario, PartialYamlKeepsDefaults) {
  const Scenario s = Scenario::from_yaml(
      io::parse_yaml("run:\n  dataset_size: 5\n"));
  EXPECT_EQ(s.dataset_size, 5u);
  EXPECT_EQ(s.num_runs, 1u);
  EXPECT_EQ(s.target, FaultTarget::kNeurons);
}

TEST(Scenario, YamlRoundTrip) {
  const Scenario original = Scenario::from_yaml(io::parse_yaml(kFullYaml));
  const Scenario reparsed = Scenario::from_yaml(original.to_yaml());
  EXPECT_EQ(reparsed.target, original.target);
  EXPECT_EQ(reparsed.rnd_bit_range_lo, original.rnd_bit_range_lo);
  EXPECT_EQ(reparsed.rnd_bit_range_hi, original.rnd_bit_range_hi);
  EXPECT_EQ(reparsed.inj_policy, original.inj_policy);
  EXPECT_EQ(reparsed.max_faults_per_image, original.max_faults_per_image);
  EXPECT_EQ(reparsed.layer_types, original.layer_types);
  EXPECT_EQ(reparsed.layer_range, original.layer_range);
  EXPECT_EQ(reparsed.weighted_layer_selection, original.weighted_layer_selection);
  EXPECT_EQ(reparsed.dataset_size, original.dataset_size);
  EXPECT_EQ(reparsed.rnd_seed, original.rnd_seed);
}

TEST(Scenario, FileRoundTrip) {
  test::TempDir dir("scenario");
  Scenario s;
  s.rnd_seed = 4242;
  s.save_yaml_file(dir.file("default.yml"));
  const Scenario loaded = Scenario::from_yaml_file(dir.file("default.yml"));
  EXPECT_EQ(loaded.rnd_seed, 4242u);
}

TEST(Scenario, ValidationRejectsBadBitRange) {
  Scenario s;
  s.rnd_bit_range_lo = 5;
  s.rnd_bit_range_hi = 3;
  EXPECT_THROW(s.validate(), ConfigError);
  s.rnd_bit_range_lo = -1;
  s.rnd_bit_range_hi = 31;
  EXPECT_THROW(s.validate(), ConfigError);
  s.rnd_bit_range_lo = 0;
  s.rnd_bit_range_hi = 32;
  EXPECT_THROW(s.validate(), ConfigError);
}

TEST(Scenario, ValidationRejectsZeroCounts) {
  Scenario s;
  s.max_faults_per_image = 0;
  EXPECT_THROW(s.validate(), ConfigError);
  s = Scenario{};
  s.dataset_size = 0;
  EXPECT_THROW(s.validate(), ConfigError);
  s = Scenario{};
  s.num_runs = 0;
  EXPECT_THROW(s.validate(), ConfigError);
  s = Scenario{};
  s.batch_size = 0;
  EXPECT_THROW(s.validate(), ConfigError);
}

TEST(Scenario, IntegerFieldsRejectNumbersTheyCannotHold) {
  // A scenario file's integers must arrive as written or fail with a
  // typed error: ParseError for a number no integer field can hold
  // (fraction, Inf, past 64 bits) or integer text past 2^53, which the
  // YAML parser refuses, ConfigError for a negative count, a bit index
  // past 31 or a seed a scenario file cannot record exactly.
  enum class Want { kParse, kConfig };
  const struct {
    const char* yaml;
    Want want;
  } cases[] = {
      {"run:\n  num_runs: -1\n", Want::kConfig},
      {"run:\n  dataset_size: -3\n", Want::kConfig},
      {"run:\n  batch_size: -1\n", Want::kConfig},
      {"run:\n  rnd_seed: -5\n", Want::kConfig},
      {"run:\n  rnd_seed: 9007199254740992\n", Want::kConfig},  // 2^53
      {"run:\n  rnd_seed: 9007199254740993\n", Want::kParse},  // would read as 2^53
      {"run:\n  rnd_seed: 1e30\n", Want::kParse},
      {"run:\n  num_runs: 1e30\n", Want::kParse},
      {"run:\n  dataset_size: 2.5\n", Want::kParse},
      {"run:\n  rnd_seed: inf\n", Want::kParse},
      {"fault_injection:\n  max_faults_per_image: 1.5\n", Want::kParse},
      {"fault_injection:\n  max_faults_per_image: -2\n", Want::kConfig},
      {"fault_injection:\n  rnd_bit_range: [0, 4294967297]\n", Want::kConfig},
      {"fault_injection:\n  rnd_bit_range: [-1, 3]\n", Want::kConfig},
      {"fault_injection:\n  layer_range: [-1, 2]\n", Want::kConfig},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.yaml);
    if (c.want == Want::kParse) {
      EXPECT_THROW(Scenario::from_yaml(io::parse_yaml(c.yaml)), ParseError);
    } else {
      EXPECT_THROW(Scenario::from_yaml(io::parse_yaml(c.yaml)), ConfigError);
    }
  }

  // The largest seed survives a scenario file round trip exactly.
  Scenario s;
  s.rnd_seed = Scenario::kMaxSeed;
  EXPECT_EQ(Scenario::from_yaml(io::parse_yaml(io::dump_yaml(s.to_yaml()))).rnd_seed,
            Scenario::kMaxSeed);
  s.rnd_seed = Scenario::kMaxSeed + 1;
  EXPECT_THROW(s.validate(), ConfigError);
  EXPECT_EQ(Scenario::from_yaml(io::parse_yaml("run:\n  rnd_seed: 1e3\n")).rnd_seed, 1000u);
}

TEST(Scenario, ValidationRejectsInvertedRanges) {
  Scenario s;
  s.layer_range = {{5, 2}};
  EXPECT_THROW(s.validate(), ConfigError);
  s = Scenario{};
  s.rnd_value_min = 1.0f;
  s.rnd_value_max = -1.0f;
  EXPECT_THROW(s.validate(), ConfigError);
}

TEST(Scenario, AllowsLayerKind) {
  Scenario s;
  EXPECT_TRUE(s.allows_layer_kind(nn::LayerKind::kConv2d));
  EXPECT_TRUE(s.allows_layer_kind(nn::LayerKind::kLinear));
  EXPECT_FALSE(s.allows_layer_kind(nn::LayerKind::kOther));
  s.layer_types = {nn::LayerKind::kConv2d};
  EXPECT_TRUE(s.allows_layer_kind(nn::LayerKind::kConv2d));
  EXPECT_FALSE(s.allows_layer_kind(nn::LayerKind::kLinear));
}

TEST(Scenario, EnumStringConversions) {
  EXPECT_EQ(fault_target_from_string("neurons"), FaultTarget::kNeurons);
  EXPECT_EQ(fault_target_from_string("Weights"), FaultTarget::kWeights);
  EXPECT_THROW(fault_target_from_string("bananas"), ConfigError);
  EXPECT_EQ(value_type_from_string("bitflip"), ValueType::kBitFlip);
  EXPECT_EQ(value_type_from_string("stuck_at_1"), ValueType::kStuckAt1);
  EXPECT_EQ(value_type_from_string("random_value"), ValueType::kRandomValue);
  EXPECT_THROW(value_type_from_string("x"), ConfigError);
  EXPECT_EQ(injection_policy_from_string("per_epoch"), InjectionPolicy::kPerEpoch);
  EXPECT_THROW(injection_policy_from_string("per_year"), ConfigError);
  EXPECT_EQ(fault_duration_from_string("permanent"), FaultDuration::kPermanent);
  EXPECT_STREQ(to_string(FaultTarget::kWeights), "weights");
  EXPECT_STREQ(to_string(ValueType::kStuckAt0), "stuck_at_0");
  EXPECT_STREQ(to_string(InjectionPolicy::kPerImage), "per_image");
  EXPECT_STREQ(to_string(FaultDuration::kTransient), "transient");
}

TEST(Scenario, FromYamlValidates) {
  EXPECT_THROW(Scenario::from_yaml(io::parse_yaml(
                   "fault_injection:\n  rnd_bit_range: [5, 2]\n")),
               ConfigError);
  EXPECT_THROW(Scenario::from_yaml(io::parse_yaml(
                   "fault_injection:\n  layer_types: [dense]\n")),
               ConfigError);
  EXPECT_THROW(Scenario::from_yaml(io::parse_yaml(
                   "fault_injection:\n  rnd_bit_range: [1]\n")),
               ConfigError);
}

TEST(Scenario, RepoDefaultYamlParses) {
  // The shipped scenarios/default.yml must always stay valid.
  const std::string path = std::string(SCENARIOS_DIR) + "/default.yml";
  const Scenario s = Scenario::from_yaml_file(path);
  EXPECT_NO_THROW(s.validate());
}

// ---- ScenarioBuilder --------------------------------------------------------

/// Runs build() and returns the ConfigError message ("" when it builds).
std::string build_error(const ScenarioBuilder& builder) {
  try {
    builder.build();
    return "";
  } catch (const ConfigError& e) {
    return e.what();
  }
}

TEST(ScenarioBuilder, FluentChainSetsEveryField) {
  const Scenario s = ScenarioBuilder()
                         .target(FaultTarget::kWeights)
                         .value_type(ValueType::kBitFlip)
                         .bit_range(23, 30)
                         .duration(FaultDuration::kTransient)
                         .injection_policy(InjectionPolicy::kPerBatch)
                         .max_faults_per_image(3)
                         .layer_types({nn::LayerKind::kConv2d})
                         .layer_range(1, 4)
                         .weighted_layer_selection(false)
                         .dataset_size(50)
                         .num_runs(2)
                         .batch_size(10)
                         .seed(777)
                         .build();
  EXPECT_EQ(s.target, FaultTarget::kWeights);
  EXPECT_EQ(s.rnd_bit_range_lo, 23);
  EXPECT_EQ(s.rnd_bit_range_hi, 30);
  EXPECT_EQ(s.inj_policy, InjectionPolicy::kPerBatch);
  EXPECT_EQ(s.max_faults_per_image, 3u);
  ASSERT_EQ(s.layer_types.size(), 1u);
  ASSERT_TRUE(s.layer_range.has_value());
  EXPECT_EQ(s.layer_range->second, 4u);
  EXPECT_FALSE(s.weighted_layer_selection);
  EXPECT_EQ(s.dataset_size, 50u);
  EXPECT_EQ(s.rnd_seed, 777u);
}

TEST(ScenarioBuilder, DefaultBuilds) {
  EXPECT_NO_THROW(ScenarioBuilder().build());
}

TEST(ScenarioBuilder, AggregatesAllProblemsInOneError) {
  // Three independent offences — the single ConfigError must name every
  // one, not just the first.
  const std::string message = build_error(ScenarioBuilder()
                                              .value_type(ValueType::kRandomValue)
                                              .bit_range(5, 3)
                                              .dataset_size(0));
  EXPECT_NE(message.find("invalid scenario:"), std::string::npos) << message;
  EXPECT_NE(message.find("bit_range conflicts"), std::string::npos) << message;
  EXPECT_NE(message.find("rnd_bit_range must satisfy"), std::string::npos)
      << message;
  EXPECT_NE(message.find("dataset_size must be positive"), std::string::npos)
      << message;
}

TEST(ScenarioBuilder, RejectsBitRangeWithRandomValue) {
  EXPECT_NE(build_error(ScenarioBuilder()
                            .value_type(ValueType::kRandomValue)
                            .bit_range(0, 7))
                .find("bit_range conflicts with value_type random_value"),
            std::string::npos);
  // Setting the same bit range under bitflip is fine.
  EXPECT_EQ(build_error(ScenarioBuilder()
                            .value_type(ValueType::kBitFlip)
                            .bit_range(0, 7)),
            "");
}

TEST(ScenarioBuilder, RejectsValueRangeWithoutRandomValue) {
  EXPECT_NE(build_error(ScenarioBuilder().value_range(-2.0f, 2.0f))
                .find("value_range conflicts with value_type bitflip"),
            std::string::npos);
  EXPECT_EQ(build_error(ScenarioBuilder()
                            .value_type(ValueType::kRandomValue)
                            .value_range(-2.0f, 2.0f)),
            "");
}

TEST(ScenarioBuilder, RejectsPermanentPerImage) {
  EXPECT_NE(build_error(ScenarioBuilder()
                            .duration(FaultDuration::kPermanent)
                            .injection_policy(InjectionPolicy::kPerImage))
                .find("permanent faults conflict with the per_image policy"),
            std::string::npos);
  EXPECT_EQ(build_error(ScenarioBuilder()
                            .duration(FaultDuration::kPermanent)
                            .injection_policy(InjectionPolicy::kPerEpoch)),
            "");
}

TEST(ScenarioBuilder, RejectsEmptyLayerTypes) {
  EXPECT_NE(build_error(ScenarioBuilder().layer_types({}))
                .find("layer_types was set to an empty list"),
            std::string::npos);
  // An untouched layer_types (empty by default = all kinds) stays valid.
  EXPECT_EQ(build_error(ScenarioBuilder()), "");
}

TEST(ScenarioBuilder, AnyLayerLiftsRestrictions) {
  const Scenario s = ScenarioBuilder()
                         .layer_types({})  // would be rejected on its own
                         .layer_range(2, 5)
                         .any_layer()
                         .build();
  EXPECT_TRUE(s.layer_types.empty());
  EXPECT_FALSE(s.layer_range.has_value());
}

TEST(ScenarioBuilder, RejectsZeroBatchSizeAtBuildTime) {
  // batch_size feeds the legacy batched runner AND clamps --unit-batch
  // packing; 0 must fail at build() rather than surface later as a
  // division by zero in run geometry.
  EXPECT_NE(build_error(ScenarioBuilder().batch_size(0))
                .find("batch_size must be positive"),
            std::string::npos);
  EXPECT_EQ(build_error(ScenarioBuilder().batch_size(1)), "");
}

TEST(ScenarioBuilder, FromSeedsExistingScenario) {
  const Scenario base = Scenario::from_yaml(io::parse_yaml(kFullYaml));
  const Scenario tweaked = ScenarioBuilder::from(base).seed(999).build();
  EXPECT_EQ(tweaked.rnd_seed, 999u);
  // Everything else carried over untouched.
  EXPECT_EQ(tweaked.target, base.target);
  EXPECT_EQ(tweaked.layer_types, base.layer_types);
  EXPECT_EQ(tweaked.dataset_size, base.dataset_size);
}

TEST(ScenarioBuilder, FromRevalidatesOnBuild) {
  Scenario broken;
  broken.dataset_size = 0;  // struct fields can be set without checks
  EXPECT_THROW(ScenarioBuilder::from(broken).build(), ConfigError);
  // Fixing the offending knob through the builder makes it build.
  EXPECT_NO_THROW(ScenarioBuilder::from(broken).dataset_size(10).build());
}

TEST(Scenario, ValidationErrorsListsEveryProblem) {
  Scenario s;
  s.rnd_bit_range_lo = 9;
  s.rnd_bit_range_hi = 2;
  s.dataset_size = 0;
  s.batch_size = 0;
  const auto errors = s.validation_errors();
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_TRUE(Scenario{}.validation_errors().empty());
}

// ---- inference section (backend / numeric type) -----------------------------

TEST(Scenario, DefaultSerializationOmitsInferenceSection) {
  // The serialized scenario feeds campaign_fingerprint(): a default
  // configuration must keep its pre-backend byte layout so journals and
  // checkpoints written before this feature still resume.
  const std::string yaml = io::dump_yaml(Scenario{}.to_yaml());
  EXPECT_EQ(yaml.find("inference"), std::string::npos);

  // Explicit "ref" is the same default — still no section.
  Scenario ref;
  ref.backend = "ref";
  EXPECT_EQ(io::dump_yaml(ref.to_yaml()).find("inference"), std::string::npos);
}

TEST(Scenario, InferenceSectionRoundTrips) {
  Scenario s;
  s.backend = "auto";
  s.numeric_type = nn::NumericType::kInt8;
  const Scenario reparsed = Scenario::from_yaml(s.to_yaml());
  EXPECT_EQ(reparsed.backend, "auto");
  EXPECT_EQ(reparsed.numeric_type, nn::NumericType::kInt8);

  // A non-default numeric type forces the section out even for the
  // default backend, and normalizes "" to "ref".
  Scenario stored;
  stored.numeric_type = nn::NumericType::kFloat16Stored;
  const std::string yaml = io::dump_yaml(stored.to_yaml());
  EXPECT_NE(yaml.find("inference"), std::string::npos);
  EXPECT_NE(yaml.find("fp16_stored"), std::string::npos);
  const Scenario back = Scenario::from_yaml(stored.to_yaml());
  EXPECT_EQ(back.backend, "ref");
  EXPECT_EQ(back.numeric_type, nn::NumericType::kFloat16Stored);
}

TEST(Scenario, InferenceSectionRejectsUnknownNumericType) {
  EXPECT_THROW(Scenario::from_yaml(io::parse_yaml(R"(
inference:
  numeric_type: fp8
)")),
               ConfigError);
}

TEST(ScenarioBuilder, BackendAndNumericTypeSettersValidate) {
  const Scenario s = ScenarioBuilder()
                         .backend("auto")
                         .numeric_type(nn::NumericType::kFloat16Stored)
                         .build();
  EXPECT_EQ(s.backend, "auto");
  EXPECT_EQ(s.numeric_type, nn::NumericType::kFloat16Stored);

  EXPECT_NE(build_error(ScenarioBuilder().backend("neon"))
                .find("unknown backend 'neon' (expected ref, avx2 or auto)"),
            std::string::npos);
}

TEST(ScenarioBuilder, UnknownBackendAggregatesWithOtherProblems) {
  const std::string message =
      build_error(ScenarioBuilder().backend("cuda").dataset_size(0));
  EXPECT_NE(message.find("unknown backend 'cuda'"), std::string::npos) << message;
  EXPECT_NE(message.find("dataset_size must be positive"), std::string::npos)
      << message;
}

TEST(Scenario, StoredTypeBitRangeValidatedAgainstStorageWidth) {
  // Stored-type weight faults index bits of the stored code — a range
  // valid for fp32 (0..31) overruns int8's 8-bit representation.
  const std::string message = build_error(ScenarioBuilder()
                                              .target(FaultTarget::kWeights)
                                              .bit_range(0, 31)
                                              .numeric_type(nn::NumericType::kInt8));
  EXPECT_NE(message.find("rnd_bit_range exceeds the 8-bit stored representation"),
            std::string::npos)
      << message;

  // In-range for the representation builds fine.
  EXPECT_EQ(build_error(ScenarioBuilder()
                            .target(FaultTarget::kWeights)
                            .bit_range(0, 7)
                            .numeric_type(nn::NumericType::kInt8)),
            "");
  EXPECT_EQ(build_error(ScenarioBuilder()
                            .target(FaultTarget::kWeights)
                            .bit_range(0, 15)
                            .numeric_type(nn::NumericType::kFloat16Stored)),
            "");
  // Neuron faults stay fp32 regardless of the weight representation.
  EXPECT_EQ(build_error(ScenarioBuilder()
                            .target(FaultTarget::kNeurons)
                            .bit_range(0, 31)
                            .numeric_type(nn::NumericType::kInt8)),
            "");
  // Emulated types keep fp32 storage, so the full fp32 range is legal.
  EXPECT_EQ(build_error(ScenarioBuilder()
                            .target(FaultTarget::kWeights)
                            .bit_range(0, 31)
                            .numeric_type(nn::NumericType::kBfloat16)),
            "");
}

}  // namespace
}  // namespace alfi::core
