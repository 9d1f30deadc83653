// CampaignTask — the unified contract between a fault-injection
// workload and the campaign execution machinery.
//
// The two harnesses (TestErrorModelsImgClass, TestErrorModelsObjDet)
// used to own parallel copies of the same loop: shard the fault matrix,
// run units, buffer per-shard results, merge in order.  Checkpointing
// would have doubled that duplication.  Instead both workloads now
// implement this interface and a single executor (core::CampaignExecutor,
// campaign.h) owns sharding, journaling, checkpoint/resume and the
// ordered merge — one code path, two (or N) workloads.
//
// The contract that makes crash-safe resume byte-exact:
//   * Work is addressed absolutely: unit t — one image under one fault
//     group — means the same inputs, fault columns and RNG stream no
//     matter which worker, job count or process (original vs. resumed)
//     runs it.
//   * Every campaign loop computes units through one entry point,
//     CampaignUnitRunner::run_unit_pack: a pack of up to --unit-batch
//     units in one batched pass (a pack of one is the unit-at-a-time
//     case).  Each unit's payload is its complete result as bytes, the
//     same for any pack it rode in; those bytes are journaled, and the
//     final outputs are produced ONLY by absorbing payloads in
//     ascending t — so replayed-from-journal and freshly-computed units
//     are indistinguishable.
//   * fingerprint() digests everything the result depends on (scenario,
//     fault matrix, seeds); resume refuses a mismatch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fault.h"
#include "core/mitigation.h"
#include "core/scenario.h"
#include "core/steering.h"
#include "io/journal.h"

namespace alfi::nn {
class StoredWeightStore;
}  // namespace alfi::nn

namespace alfi::util {
class MetricsRegistry;
}  // namespace alfi::util

namespace alfi::core {

/// Distributed fleet execution (DESIGN.md §14).  A coordinator process
/// leases contiguous unit ranges to worker processes — forked locally
/// and/or connected over a length-prefixed TCP protocol — and merges
/// their CRC32-framed journal segments into outputs byte-identical to
/// `--jobs 1`.  Disabled (both modes off) by default.
struct FleetOptions {
  /// Coordinator: fork this many local worker processes that connect
  /// back over loopback.  They inherit the prepared task (model,
  /// calibration), so spawn cost is one fork(), not a reload.
  std::size_t local_workers = 0;
  /// Coordinator: listen for remote workers even when local_workers
  /// is 0 (a coordinator with only remote workers).
  bool coordinator = false;
  /// Coordinator: TCP listen port; 0 asks the kernel for an ephemeral
  /// port (reported through on_listen and the log).
  std::uint16_t listen_port = 0;
  /// Worker: "host:port" of the coordinator to join.  A worker runs no
  /// merge and writes no outputs; it only streams unit frames back.
  std::string connect;
  /// Upper bound on units per lease grant.  Leases reuse the
  /// executor's deterministic contiguous sharding, so a small bound
  /// load-balances while keeping every range contiguous.
  std::size_t lease_units = 8;
  /// Worker liveness frame cadence (any frame counts as liveness).
  double heartbeat_ms = 250.0;
  /// Coordinator declares a silent worker dead after this long,
  /// drops the connection and re-issues its lease remainder.
  double lease_timeout_ms = 5000.0;

  // ---- test hooks (chaos/identity tests observe the fleet) ----------------
  std::function<void(int pid)> on_local_spawn;        ///< forked child pid
  std::function<void(std::uint16_t)> on_listen;       ///< bound port
  std::function<void(std::size_t done)> on_progress;  ///< after each absorb

  bool coordinator_mode() const { return coordinator || local_workers > 0; }
  bool worker_mode() const { return !connect.empty(); }
  bool enabled() const { return coordinator_mode() || worker_mode(); }
};

/// Configuration shared by every campaign workload.  Harness-specific
/// configs derive from this so the executor and the CLI handle both
/// through one type.
struct CampaignConfigBase {
  std::string model_name = "model";
  /// Directory for the output sets; empty = write nothing (KPIs only).
  std::string output_dir;
  /// Reuse a persisted fault matrix instead of generating one.
  std::string fault_file;
  /// Harden a copy of the inference path with Ranger or Clipper and
  /// report the hardened verdicts alongside.
  std::optional<MitigationKind> mitigation;
  /// Worker threads (CampaignRunner).  1 = serial on the wrapped model;
  /// 0 = hardware concurrency; N > 1 runs N deep-cloned replicas over
  /// contiguous fault-matrix shards.  Output is byte-identical for
  /// every job count.
  std::size_t jobs = 1;
  /// Route inference through arena-backed nn::InferenceWorkspace buffers
  /// (planned once, zero steady-state heap allocations; DESIGN.md §10).
  /// Off = the legacy allocating forward() path.  Both paths produce
  /// byte-identical campaign outputs; the toggle exists for A/B
  /// comparison and for training-mode models, which the workspace
  /// refuses.
  bool workspace = true;
  /// Differential inference (DESIGN.md §11): the corrupted and mitigated
  /// passes replay the fault-free pass's cached layer outputs up to the
  /// earliest armed layer and recompute only the suffix.  Requires the
  /// workspace path (silently full-recomputes when workspace is off).
  /// Outputs are byte-identical either way; `--no-diff` exists for A/B
  /// verification and paranoia.
  bool diff = true;
  /// Unit packing (DESIGN.md §12): hand each runner up to this many
  /// units per call so it can fuse them into one batched forward pass,
  /// arming each unit's faults on its own batch slot.  Units are packed
  /// at the task's unit_pack_stride() — e.g. the classification harness
  /// packs the SAME image across epochs so one shared fault-free pass
  /// serves the whole pack.  Clamped to the task's max_unit_pack() (1
  /// for workloads that cannot pack, e.g. weight-fault scenarios).
  /// Every campaign loop packs alike: exhaustive shards, steered rounds and
  /// fleet leases.  1 — the default — runs unit at a time; every value
  /// produces byte-identical campaign outputs.
  std::size_t unit_batch = 1;

  // ---- crash safety --------------------------------------------------------
  /// Directory for the result journal + checkpoint; empty disables
  /// checkpointing.
  std::string checkpoint_dir;
  /// Continue a prior run from checkpoint_dir: validate fingerprints,
  /// repair the journal tail, skip completed units.
  bool resume = false;
  /// Completed units between checkpoint writes (journal frames are
  /// appended on every unit regardless).
  std::size_t checkpoint_every = 8;
  /// Polled between units; returning true requests a graceful drain
  /// (finish in-flight units, checkpoint, throw CampaignInterrupted).
  /// Defaults to alfi::drain_requested() — the SIGINT/SIGTERM flag.
  std::function<bool()> interrupt;

  // ---- distributed fleet ---------------------------------------------------
  /// Fleet coordinator/worker role (core/fleet.h).  Coordinator mode
  /// requires a checkpoint_dir: shipped unit frames land in the same
  /// journal a local run would write.
  FleetOptions fleet;

  // ---- adaptive steering ---------------------------------------------------
  /// Budgeted / adaptively-steered sampling (core/steering.h,
  /// DESIGN.md §16).  When enabled() the executor and the fleet
  /// coordinator run the round-based planning loop instead of the
  /// exhaustive sweep, and may legitimately finish with fewer than
  /// unit_count() completed units.
  SteeringOptions steering;

  // ---- telemetry -----------------------------------------------------------
  /// Write the campaign's metrics.json here (io/metrics_json.h schema,
  /// atomic temp+rename); empty disables the file.
  std::string metrics_path;
  /// Emit a throttled live progress line on stderr while units run.
  bool progress = false;
};

/// Per-worker execution engine for one shard: owns whatever replica /
/// injector state the workload needs, and computes units in packs.
class CampaignUnitRunner {
 public:
  virtual ~CampaignUnitRunner() = default;

  /// Computes the given units (ascending, distinct — consecutive at the
  /// task's unit_pack_stride(); never more than the task's
  /// max_unit_pack()) in one batched pass, each unit's faults armed on
  /// its own batch slot, and returns their serialized payloads in the
  /// same order.  The contract is strict: a unit's payload is
  /// deterministic in its index alone (given the task's fingerprint),
  /// byte-identical for every pack it can ride in — a pack of one is
  /// the unit-at-a-time reference.
  virtual std::vector<std::string> run_unit_pack(
      const std::vector<std::size_t>& units) = 0;
};

/// A campaign workload the executor can shard, journal and merge.
class CampaignTask {
 public:
  virtual ~CampaignTask() = default;

  /// Stable workload tag recorded in the journal header ("imgclass",
  /// "objdet"); resume refuses a journal written by a different kind.
  virtual std::string task_kind() const = 0;

  virtual const Scenario& task_scenario() const = 0;
  virtual const CampaignConfigBase& base_config() const = 0;

  /// Total number of absolutely-addressed work units.
  virtual std::size_t unit_count() const = 0;

  /// Digest of scenario + fault matrix + seed: everything unit results
  /// depend on.  See campaign_fingerprint().
  virtual std::uint64_t fingerprint() const = 0;

  /// Called once before any unit runs (and again, idempotently, on
  /// resume): create output dirs, write meta-files, profile
  /// calibration bounds.
  virtual void prepare() = 0;

  /// Builds a runner.  `shared_model` is true for the single-shard
  /// serial path (use the wrapped original model); false means the
  /// runner must own an isolated replica (called from worker threads).
  virtual std::unique_ptr<CampaignUnitRunner> make_unit_runner(bool shared_model) = 0;

  /// Upper bound on how many units one run_unit_pack call may receive;
  /// the campaign loops' PackScheduler clamps config.unit_batch to it.  The
  /// default (1) disables packing; workloads whose units are independent
  /// single-sample inferences with slot-addressable faults raise it
  /// (DESIGN.md §12 lists the degradation rules).
  virtual std::size_t max_unit_pack() const { return 1; }

  /// Distance between units packed into one run_unit_pack call.  The
  /// default (1) packs consecutive units.  Workloads whose unit index
  /// wraps an input set — classification units are epoch * dataset_size
  /// + image — return the wrap period so a pack holds the SAME input
  /// under different fault groups, letting the runner share a single
  /// fault-free pass across the whole pack (DESIGN.md §12).
  virtual std::size_t unit_pack_stride() const { return 1; }

  /// Steering support (core/steering.h): unit t's sampling cell, for
  /// every t in [0, unit_count()).  The default — an empty vector —
  /// declares the workload unsteerable; the executor rejects steering
  /// options against it.
  virtual std::vector<SteeringCellKey> steering_cells() const { return {}; }

  /// Classifies one unit's serialized payload into a steering outcome.
  /// Pure function of the payload bytes, callable on the coordinating
  /// thread for freshly-computed and journal-replayed units alike.
  /// The default throws: workloads advertising steering_cells() must
  /// override it.
  virtual SteeringUnitOutcome classify_unit(std::size_t t,
                                            const std::string& payload) const;

  /// Folds one unit's payload into the final result.  Called on the
  /// coordinating thread in ascending t, each completed unit exactly
  /// once (a steered campaign absorbs only the units it executed).
  virtual void absorb_unit(std::size_t t, const std::string& payload) = 0;

  /// Writes the merged outputs after every unit was absorbed.
  virtual void finalize() = 0;
};

// ---- shared payload helpers --------------------------------------------------

/// Fault / injection-record packing shared by the workloads' unit
/// payloads (field-compatible with the fault-file binary format).
void write_fault_bytes(io::ByteWriter& writer, const Fault& fault);
Fault read_fault_bytes(io::ByteReader& reader);
void write_record_bytes(io::ByteWriter& writer, const InjectionRecord& record);
InjectionRecord read_record_bytes(io::ByteReader& reader);

class FaultMatrix;

/// FNV-1a digest of the scenario (YAML dump), the full fault matrix and
/// the seed — the identity a resume validates before trusting a journal.
std::uint64_t campaign_fingerprint(const Scenario& scenario,
                                   const FaultMatrix& faults);

class Injector;
class ModelMonitor;
class ModelProfile;
class PtfiWrap;

// ---- unit addressing ---------------------------------------------------------

/// Geometry of work unit t = epoch * dataset_size + img under the
/// scenario's injection policy: which fault group it arms and which
/// slot of its conceptual batch it occupies.  Closed-form in t, so the
/// same unit arms the same faults on any worker, job count, fleet
/// member or resumed run.
struct UnitAddress {
  std::size_t epoch = 0;
  std::size_t img = 0;
  std::size_t group_start = 0;  ///< first fault-matrix column of the group
  std::size_t slot = 0;  ///< batch slot for per_batch remapping, else 0
  /// Images the unit's conceptual batch actually scores: batch_size for
  /// full batches, fewer for the short final batch of a non-divisible
  /// dataset.  Fault slots are taken modulo this, so a per-batch fault
  /// drawn past the short batch still lands on a scored image instead
  /// of being silently dropped (seed-stable: the drawn matrix is
  /// untouched, only the slot comparison re-maps).
  std::size_t occupancy = 1;
};

/// per_image: group t; per_batch: the group of the image's batch;
/// per_epoch: the group of the image's epoch.
UnitAddress address_unit(const Scenario& scenario, std::size_t t);

/// Appends what unit `addr` arms on row `slot` of a `slots`-row pass:
/// its group's weight faults as drawn, and each neuron fault that lands
/// on its image moved onto `slot`.  A neuron fault lands on every image
/// for batch < 0; under per_batch when its drawn slot modulo the
/// batch's occupancy is the image's slot; otherwise when its slot is
/// the unit's (0).  A per_image neuron fault drawn for a slot > 0 is
/// pushed past the pass (slots + batch), so the injector's skip
/// accounting counts it; under per_batch/per_epoch a fault that lands
/// on another image of the batch is not armed.
void append_unit_faults(const Scenario& scenario, const FaultMatrix& matrix,
                        const UnitAddress& addr, std::size_t slot,
                        std::size_t slots, std::vector<Fault>& armed);

// ---- what both campaign harnesses share ---------------------------------------

/// max_unit_pack() of a harness: unbounded for neuron-fault campaigns
/// (each unit's faults arm on its own batch slot); 1 when any fault
/// targets weights — weights are shared across a packed pass.
std::size_t unit_pack_limit(const FaultMatrix& matrix);

/// Stacks same-shaped [C, H, W] images into one [N, C, H, W] pack input.
Tensor stack_images(const std::vector<const Tensor*>& images);

/// Every unit's (layer, bit, fault-type) steering cell, from its
/// addressed group's FIRST fault — exact for max_faults_per_image == 1
/// (the steering-relevant configuration), a first-fault approximation
/// for larger groups.  Empty when the matrix cannot cover every unit.
std::vector<SteeringCellKey> unit_steering_cells(const Scenario& scenario,
                                                 const FaultMatrix& matrix,
                                                 const ModelProfile& profile,
                                                 std::size_t units);

/// prepare()'s inference set-up (DESIGN.md §13): resolves and installs
/// the scenario's backend — an unavailable explicit choice fails here,
/// loudly — and installs the weight representation on the wrapped
/// model before calibration, so hardened bounds are profiled on the
/// model the campaign actually runs.  `store` is built once: rebuilding
/// it from already-dequantized values on an idempotent re-prepare could
/// round scales differently.  Also refuses a fault matrix smaller than
/// the groups the campaign addresses.  Returns the resolved backend's
/// registry name.
std::string prepare_inference(PtfiWrap& wrapper,
                              std::optional<nn::StoredWeightStore>& store);

/// run()'s execution: a fleet worker streams units to its coordinator
/// (and writes no outputs — `config.output_dir` is cleared), a fleet
/// coordinator leases them out, anything else runs the local
/// CampaignExecutor.  Then writes config.metrics_path, when set,
/// recording `backend` (read after execution, so pass the member
/// prepare() fills).
void run_campaign_task(CampaignTask& task, CampaignConfigBase& config,
                       util::MetricsRegistry& metrics, const std::string& backend);

/// One unit runner's injection machinery over one model instance: the
/// injector, a ModelMonitor and — with mitigation configured — a
/// Protection, left disabled.  A null `replica` drives the wrapped
/// model through the wrapper's injector; otherwise the stack builds its
/// own ModelProfile (from `probe`), a bit-exact copy of the primary
/// stored-weight representation rebound onto the replica (never rebuilt
/// from dequantized values — scales could round differently) and an
/// Injector over it.  The replica must outlive the stack.
class UnitInjectionStack {
 public:
  UnitInjectionStack(PtfiWrap& wrapper, nn::Module* replica, const Tensor& probe,
                     const nn::StoredWeightStore* primary_store,
                     const RangeMap& bounds, std::optional<MitigationKind> mitigation,
                     util::MetricsRegistry& metrics);
  ~UnitInjectionStack();

  Injector& injector() { return *injector_; }
  ModelMonitor& monitor() { return *monitor_; }
  Protection* protection() { return protection_.get(); }  ///< null without mitigation

 private:
  std::unique_ptr<ModelProfile> profile_;
  // Declared before own_injector_: the injector's destructor restores
  // corrupted weights through the store.
  std::unique_ptr<nn::StoredWeightStore> store_;
  std::unique_ptr<Injector> own_injector_;
  Injector* injector_ = nullptr;
  std::unique_ptr<ModelMonitor> monitor_;
  std::unique_ptr<Protection> protection_;
};

/// Execution-order prefix boundary for one unit's differential passes:
/// the smallest leaf execution index (in `baseline`'s recorded order)
/// among the injector's armed layers.  Leaves running strictly before it
/// are bit-identical to the fault-free pass and may be replayed.
/// Conservative by construction: an unplanned baseline or an armed layer
/// the baseline never executed (e.g. a detector head running under a
/// separate workspace) returns 0 — full recompute; no armed layers at
/// all returns InferenceWorkspace::kSkipAllLeaves.
std::size_t diff_prefix_boundary(const Injector& injector,
                                 const nn::InferenceWorkspace& baseline);

}  // namespace alfi::core
