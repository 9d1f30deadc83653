#include "core/fault_generator.h"

namespace alfi::core {

std::vector<std::size_t> eligible_layers(const Scenario& scenario,
                                         const ModelProfile& profile) {
  std::vector<std::size_t> eligible;
  for (const LayerInfo& info : profile.layers()) {
    if (!scenario.allows_layer_kind(info.kind)) continue;
    // Weight-less sites (attention probabilities, the residual stream)
    // advertise neuron injection only.
    if (scenario.target == FaultTarget::kWeights && !info.has_weight()) continue;
    if (scenario.layer_range &&
        (info.index < scenario.layer_range->first ||
         info.index > scenario.layer_range->second)) {
      continue;
    }
    eligible.push_back(info.index);
  }
  if (eligible.empty()) {
    throw ConfigError(
        "scenario layer restrictions exclude every injectable layer");
  }
  return eligible;
}

namespace {

void fill_value(const Scenario& scenario, Fault& fault, Rng& rng) {
  fault.value_type = scenario.value_type;
  if (scenario.value_type == ValueType::kRandomValue) {
    fault.number_value = static_cast<float>(
        rng.uniform(scenario.rnd_value_min, scenario.rnd_value_max));
  } else {
    fault.bit_pos = static_cast<int>(
        rng.uniform_int(scenario.rnd_bit_range_lo, scenario.rnd_bit_range_hi));
  }
}

void fill_neuron_location(const Scenario& scenario, const LayerInfo& layer,
                          Fault& fault, Rng& rng) {
  const Shape& out = layer.output_shape;
  const std::size_t flat = static_cast<std::size_t>(rng.next_below(out.numel()));
  const std::vector<std::size_t> index = out.unravel(flat);
  switch (out.rank()) {
    case 1:
      fault.width = static_cast<std::int64_t>(index[0]);
      break;
    case 2:
      fault.channel_out = static_cast<std::int64_t>(index[0]);
      fault.width = static_cast<std::int64_t>(index[1]);
      break;
    case 3:
      fault.channel_out = static_cast<std::int64_t>(index[0]);
      fault.height = static_cast<std::int64_t>(index[1]);
      fault.width = static_cast<std::int64_t>(index[2]);
      break;
    case 4:
      fault.channel_out = static_cast<std::int64_t>(index[0]);
      fault.depth = static_cast<std::int64_t>(index[1]);
      fault.height = static_cast<std::int64_t>(index[2]);
      fault.width = static_cast<std::int64_t>(index[3]);
      break;
    default:
      throw Error("unsupported output rank for neuron fault");
  }
  // Batch slot (Table I row 1).  per_image: the fault targets the image
  // currently being processed (slot 0 of the armed window).  per_batch:
  // a random slot.  per_epoch: -1 = every sample, modelling a fault
  // that persists across the whole epoch.
  switch (scenario.inj_policy) {
    case InjectionPolicy::kPerImage:
      fault.batch = 0;
      break;
    case InjectionPolicy::kPerBatch:
      // Drawn against the configured batch_size so the matrix is
      // seed-stable regardless of dataset length.  A batch shorter
      // than batch_size (the final batch of a non-divisible dataset)
      // does NOT re-draw: the harnesses' unit addressing remaps the
      // armed copy onto the actual occupancy (slot % occupancy), so the
      // fault always lands on a scored image instead of being silently
      // skipped.
      fault.batch =
          static_cast<std::int64_t>(rng.next_below(scenario.batch_size));
      break;
    case InjectionPolicy::kPerEpoch:
      fault.batch = -1;
      break;
  }
}

void fill_weight_location(const LayerInfo& layer, Fault& fault, Rng& rng) {
  const Shape& w = layer.weight_shape;
  const std::size_t flat = static_cast<std::size_t>(rng.next_below(w.numel()));
  const std::vector<std::size_t> index = w.unravel(flat);
  switch (w.rank()) {
    case 1:  // layernorm gain [F]
      fault.width = static_cast<std::int64_t>(index[0]);
      break;
    case 2:  // linear [OUT, IN]; embedding [V, E]
      fault.channel_out = static_cast<std::int64_t>(index[0]);
      fault.channel_in = static_cast<std::int64_t>(index[1]);
      break;
    case 4:  // conv2d [OC, IC, KH, KW]
      fault.channel_out = static_cast<std::int64_t>(index[0]);
      fault.channel_in = static_cast<std::int64_t>(index[1]);
      fault.height = static_cast<std::int64_t>(index[2]);
      fault.width = static_cast<std::int64_t>(index[3]);
      break;
    case 5:  // conv3d [OC, IC, KD, KH, KW]
      fault.channel_out = static_cast<std::int64_t>(index[0]);
      fault.channel_in = static_cast<std::int64_t>(index[1]);
      fault.depth = static_cast<std::int64_t>(index[2]);
      fault.height = static_cast<std::int64_t>(index[3]);
      fault.width = static_cast<std::int64_t>(index[4]);
      break;
    default:
      throw Error("unsupported weight rank for weight fault");
  }
}

}  // namespace

Fault generate_fault_in_layer(const Scenario& scenario, const LayerInfo& layer,
                              Rng& rng) {
  Fault fault;
  fault.target = scenario.target;
  fault.layer = static_cast<std::int64_t>(layer.index);
  if (scenario.target == FaultTarget::kNeurons) {
    fill_neuron_location(scenario, layer, fault, rng);
  } else {
    fill_weight_location(layer, fault, rng);
  }
  fill_value(scenario, fault, rng);
  return fault;
}

Fault generate_fault(const Scenario& scenario, const ModelProfile& profile,
                     const std::vector<std::size_t>& eligible,
                     const std::vector<double>& layer_weights, Rng& rng) {
  ALFI_CHECK(!eligible.empty(), "no eligible layers");
  std::size_t pick;
  if (scenario.weighted_layer_selection) {
    ALFI_CHECK(layer_weights.size() == eligible.size(),
               "layer weight vector size mismatch");
    pick = rng.weighted_index(layer_weights);
  } else {
    pick = static_cast<std::size_t>(rng.next_below(eligible.size()));
  }
  return generate_fault_in_layer(scenario, profile.layer(eligible[pick]), rng);
}

FaultMatrix generate_fault_matrix(const Scenario& scenario,
                                  const ModelProfile& profile, Rng& rng) {
  scenario.validate();
  const std::vector<std::size_t> eligible = eligible_layers(scenario, profile);
  const std::vector<double> weights = profile.size_weights(
      eligible, scenario.target == FaultTarget::kWeights);

  FaultMatrix matrix;
  const std::size_t n = scenario.total_faults();
  for (std::size_t i = 0; i < n; ++i) {
    matrix.push_back(generate_fault(scenario, profile, eligible, weights, rng));
  }
  return matrix;
}

}  // namespace alfi::core
