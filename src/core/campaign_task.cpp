#include "core/campaign_task.h"

#include <algorithm>
#include <limits>

#include "core/campaign.h"
#include "core/fault_matrix.h"
#include "core/fleet.h"
#include "core/injector.h"
#include "core/monitor.h"
#include "core/wrapper.h"
#include "io/metrics_json.h"
#include "io/yaml.h"
#include "tensor/backend.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace alfi::core {

namespace {

/// True when a neuron fault of the unit's group lands on its image
/// (append_unit_faults gives the rule).
bool fault_addresses_unit(const Scenario& scenario, const Fault& fault,
                          const UnitAddress& addr) {
  if (fault.batch < 0) return true;
  if (scenario.inj_policy == InjectionPolicy::kPerBatch) {
    return fault.batch % static_cast<std::int64_t>(addr.occupancy) ==
           static_cast<std::int64_t>(addr.slot);
  }
  return fault.batch == static_cast<std::int64_t>(addr.slot);
}

/// Fault groups the campaign consumes (the highest group number + 1).
std::size_t groups_needed(const Scenario& scenario) {
  switch (scenario.inj_policy) {
    case InjectionPolicy::kPerImage:
      return scenario.num_runs * scenario.dataset_size;
    case InjectionPolicy::kPerBatch:
      return scenario.num_runs *
             ((scenario.dataset_size + scenario.batch_size - 1) /
              scenario.batch_size);
    case InjectionPolicy::kPerEpoch:
      return scenario.num_runs;
  }
  return 0;
}

}  // namespace

SteeringUnitOutcome CampaignTask::classify_unit(std::size_t t,
                                                const std::string& payload) const {
  (void)t;
  (void)payload;
  throw ConfigError("workload '" + task_kind() +
                    "' does not support campaign steering");
}

void write_fault_bytes(io::ByteWriter& writer, const Fault& fault) {
  writer.write_u8(static_cast<std::uint8_t>(fault.target));
  writer.write_u8(static_cast<std::uint8_t>(fault.value_type));
  writer.write_i64(fault.batch);
  writer.write_i64(fault.layer);
  writer.write_i64(fault.channel_out);
  writer.write_i64(fault.channel_in);
  writer.write_i64(fault.depth);
  writer.write_i64(fault.height);
  writer.write_i64(fault.width);
  writer.write_i64(fault.bit_pos);
  writer.write_f32(fault.number_value);
}

Fault read_fault_bytes(io::ByteReader& reader) {
  Fault fault;
  fault.target = static_cast<FaultTarget>(reader.read_u8());
  fault.value_type = static_cast<ValueType>(reader.read_u8());
  fault.batch = reader.read_i64();
  fault.layer = reader.read_i64();
  fault.channel_out = reader.read_i64();
  fault.channel_in = reader.read_i64();
  fault.depth = reader.read_i64();
  fault.height = reader.read_i64();
  fault.width = reader.read_i64();
  fault.bit_pos = static_cast<int>(reader.read_i64());
  fault.number_value = reader.read_f32();
  return fault;
}

void write_record_bytes(io::ByteWriter& writer, const InjectionRecord& record) {
  write_fault_bytes(writer, record.fault);
  writer.write_u64(record.inference_index);
  writer.write_f32(record.original_value);
  writer.write_f32(record.corrupted_value);
  writer.write_string(record.flip_direction);
}

InjectionRecord read_record_bytes(io::ByteReader& reader) {
  InjectionRecord record;
  record.fault = read_fault_bytes(reader);
  record.inference_index = static_cast<std::size_t>(reader.read_u64());
  record.original_value = reader.read_f32();
  record.corrupted_value = reader.read_f32();
  record.flip_direction = reader.read_string();
  return record;
}

std::uint64_t campaign_fingerprint(const Scenario& scenario,
                                   const FaultMatrix& faults) {
  // The scenario's YAML dump covers every field (including the seed);
  // the fault matrix is digested column by column so a different matrix
  // of the same size still changes the fingerprint.
  std::uint64_t h = fnv1a64(io::dump_yaml(scenario.to_yaml()));
  io::ByteWriter matrix_bytes;
  matrix_bytes.write_u64(faults.size());
  for (const Fault& fault : faults.faults()) {
    write_fault_bytes(matrix_bytes, fault);
  }
  return fnv1a64(matrix_bytes.bytes(), h);
}

UnitAddress address_unit(const Scenario& scenario, std::size_t t) {
  UnitAddress addr;
  addr.epoch = t / scenario.dataset_size;
  addr.img = t % scenario.dataset_size;
  std::size_t group_number = 0;
  switch (scenario.inj_policy) {
    case InjectionPolicy::kPerImage:
      group_number = t;
      break;
    case InjectionPolicy::kPerBatch: {
      const std::size_t batches_per_epoch =
          (scenario.dataset_size + scenario.batch_size - 1) / scenario.batch_size;
      group_number =
          addr.epoch * batches_per_epoch + addr.img / scenario.batch_size;
      addr.slot = addr.img % scenario.batch_size;
      const std::size_t batch_first = addr.img - addr.slot;
      addr.occupancy =
          std::min(scenario.batch_size, scenario.dataset_size - batch_first);
      break;
    }
    case InjectionPolicy::kPerEpoch:
      group_number = addr.epoch;
      break;
  }
  addr.group_start = group_number * scenario.max_faults_per_image;
  return addr;
}

void append_unit_faults(const Scenario& scenario, const FaultMatrix& matrix,
                        const UnitAddress& addr, std::size_t slot,
                        std::size_t slots, std::vector<Fault>& armed) {
  for (Fault f : matrix.slice(addr.group_start, scenario.max_faults_per_image)) {
    if (f.target == FaultTarget::kNeurons) {
      if (fault_addresses_unit(scenario, f, addr)) {
        f.batch = static_cast<std::int64_t>(slot);
      } else if (scenario.inj_policy == InjectionPolicy::kPerImage) {
        f.batch += static_cast<std::int64_t>(slots);
      } else {
        continue;
      }
    }
    armed.push_back(f);
  }
}

std::size_t unit_pack_limit(const FaultMatrix& matrix) {
  for (const Fault& fault : matrix.faults()) {
    if (fault.target == FaultTarget::kWeights) return 1;
  }
  return std::numeric_limits<std::size_t>::max();
}

Tensor stack_images(const std::vector<const Tensor*>& images) {
  const Shape& s = images.front()->shape();
  Tensor packed(Shape{images.size(), s[0], s[1], s[2]});
  const std::size_t per_image = images.front()->numel();
  for (std::size_t i = 0; i < images.size(); ++i) {
    std::copy(images[i]->raw(), images[i]->raw() + per_image,
              packed.raw() + i * per_image);
  }
  return packed;
}

std::vector<SteeringCellKey> unit_steering_cells(const Scenario& scenario,
                                                 const FaultMatrix& matrix,
                                                 const ModelProfile& profile,
                                                 std::size_t units) {
  std::vector<SteeringCellKey> cells(units);
  for (std::size_t t = 0; t < units; ++t) {
    const UnitAddress addr = address_unit(scenario, t);
    if (addr.group_start + scenario.max_faults_per_image > matrix.size()) return {};
    const Fault& fault = matrix.faults()[addr.group_start];
    SteeringCellKey& key = cells[t];
    key.layer = fault.layer;
    key.value_type = fault.value_type;
    key.bit_pos = fault.value_type == ValueType::kBitFlip ||
                          fault.value_type == ValueType::kStuckAt0 ||
                          fault.value_type == ValueType::kStuckAt1
                      ? fault.bit_pos
                      : -1;
    if (fault.layer >= 0 &&
        static_cast<std::size_t>(fault.layer) < profile.layer_count()) {
      key.role = nn::layer_kind_name(profile.layer(fault.layer).kind);
    }
  }
  return cells;
}

std::string prepare_inference(PtfiWrap& wrapper,
                              std::optional<nn::StoredWeightStore>& store) {
  const Scenario& scenario = wrapper.get_scenario();
  tensor::Backend& backend = tensor::resolve_backend(scenario.backend);
  tensor::set_active_backend(backend);
  if (nn::is_stored_type(scenario.numeric_type)) {
    if (!store) store.emplace(wrapper.model(), scenario.numeric_type);
  } else if (scenario.numeric_type != nn::NumericType::kFloat32) {
    nn::quantize_parameters(wrapper.model(), scenario.numeric_type);
  }
  wrapper.injector().set_numeric_type(scenario.numeric_type);
  wrapper.injector().set_stored_weights(store ? &*store : nullptr);
  ALFI_CHECK(wrapper.fault_matrix().size() >=
                 groups_needed(scenario) * scenario.max_faults_per_image,
             "fault matrix smaller than the campaign needs: increase "
             "dataset_size/num_runs or load a larger fault file");
  return backend.name();
}

void run_campaign_task(CampaignTask& task, CampaignConfigBase& config,
                       util::MetricsRegistry& metrics, const std::string& backend) {
  const Stopwatch run_watch;
  if (config.fleet.worker_mode()) {
    // A worker only streams unit frames; the coordinator writes every
    // campaign output exactly once.
    if (!config.output_dir.empty()) {
      ALFI_LOG(kInfo) << "fleet worker: ignoring output dir (the coordinator "
                         "writes all outputs)";
      config.output_dir.clear();
    }
    const auto [host, port] = parse_host_port(config.fleet.connect);
    FleetWorker worker(task, host, port, /*prepared=*/false);
    const FleetWorkerStats stats = worker.run();
    ALFI_LOG(kInfo) << "fleet worker done: " << stats.units_computed
                    << " units over " << stats.leases_served << " leases"
                    << (stats.drained ? " (drained)" : "");
  } else if (config.fleet.coordinator_mode()) {
    FleetCoordinator coordinator(task, &metrics);
    coordinator.execute();
  } else {
    CampaignExecutor executor(task, &metrics);
    executor.execute();
  }
  if (config.metrics_path.empty()) return;
  io::MetricsFileInfo info;
  info.task_kind = task.task_kind();
  info.jobs = config.jobs;
  info.wall_seconds = run_watch.elapsed_seconds();
  info.backend = backend;
  info.numeric_type = nn::to_string(task.task_scenario().numeric_type);
  io::write_metrics_file(config.metrics_path, metrics, info);
}

UnitInjectionStack::UnitInjectionStack(PtfiWrap& wrapper, nn::Module* replica,
                                       const Tensor& probe,
                                       const nn::StoredWeightStore* primary_store,
                                       const RangeMap& bounds,
                                       std::optional<MitigationKind> mitigation,
                                       util::MetricsRegistry& metrics) {
  const Scenario& scenario = wrapper.get_scenario();
  nn::Module& net = replica != nullptr ? *replica : wrapper.model();
  if (replica == nullptr) {
    injector_ = &wrapper.injector();
  } else {
    profile_ = std::make_unique<ModelProfile>(net, probe);
    if (primary_store != nullptr) {
      store_ = std::make_unique<nn::StoredWeightStore>(net, *primary_store);
    }
    own_injector_ = std::make_unique<Injector>(net, *profile_, scenario.duration);
    own_injector_->set_numeric_type(scenario.numeric_type);
    own_injector_->set_stored_weights(store_.get());
    injector_ = own_injector_.get();
  }
  injector_->set_metrics(&metrics);
  monitor_ = std::make_unique<ModelMonitor>(net);
  monitor_->set_metrics(&metrics);
  if (mitigation) {
    protection_ = std::make_unique<Protection>(net, bounds, *mitigation);
    protection_->set_enabled(false);
  }
}

UnitInjectionStack::~UnitInjectionStack() = default;

std::size_t diff_prefix_boundary(const Injector& injector,
                                 const nn::InferenceWorkspace& baseline) {
  if (!baseline.planned()) return 0;  // no cached pass to replay from
  std::size_t boundary = nn::InferenceWorkspace::kSkipAllLeaves;
  bool unmapped = false;
  injector.for_each_armed_layer([&](std::size_t layer) {
    const nn::Module* module = injector.profile().layer(layer).module;
    const std::optional<std::size_t> index = baseline.leaf_exec_index(*module);
    if (!index.has_value()) {
      unmapped = true;  // armed layer outside this workspace's pass
      return;
    }
    boundary = std::min(boundary, *index);
  });
  return unmapped ? 0 : boundary;
}

}  // namespace alfi::core
