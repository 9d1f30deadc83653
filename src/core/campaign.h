// CampaignRunner — deterministic sharded execution of fault-injection
// campaigns across worker threads — and CampaignExecutor, the
// crash-safe driver that runs any CampaignTask with journaling,
// checkpoint/resume and graceful drain.
//
// Per-fault-config independence makes FI campaigns embarrassingly
// parallel (the pre-generated fault matrix fixes every fault location
// before the first inference), so a campaign of N work units can be
// split into contiguous shards, each executed by one worker against its
// own deep-cloned model replica (nn::Module::clone()), its own Injector
// and its own child RNG stream, and merged back in shard order.
//
// Determinism guarantee: the shard boundaries depend only on (count,
// jobs), every work unit carries its global index, and the merge
// concatenates shard outputs in ascending shard order — so the merged
// result of `--jobs N` is byte-identical to the serial `--jobs 1` run.
// The per-shard RNG is derived from (seed, shard.begin) alone, keeping
// any future stochastic per-shard behavior reproducible as well.
//
// Crash safety (DESIGN.md §8): with a checkpoint directory configured,
// every completed unit's serialized result is appended to a
// CRC32-framed journal and a checkpoint (atomic temp+rename) records
// the campaign fingerprint and per-shard high-water marks.  A resumed
// run validates the fingerprint, truncates any torn journal tail,
// replays intact units from the journal and computes only the rest —
// the merged outputs are byte-identical to an uninterrupted run for any
// job count, because final outputs are only ever produced from unit
// payloads absorbed in ascending unit order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/campaign_task.h"
#include "core/steering.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace alfi::core {

/// One contiguous range of campaign work units, [begin, end), plus the
/// worker's independent child RNG stream.
struct CampaignShard {
  std::size_t index = 0;  ///< merge position (ascending = serial order)
  std::size_t begin = 0;  ///< first global work-unit index (inclusive)
  std::size_t end = 0;    ///< one past the last work-unit index

  /// Child stream seeded from (campaign seed, begin): identical for the
  /// same range regardless of how many workers run the campaign.
  Rng rng;

  std::size_t size() const { return end - begin; }
};

class CampaignRunner {
 public:
  /// `jobs` worker threads; 0 selects default_job_count().
  explicit CampaignRunner(std::size_t jobs = 0);

  std::size_t jobs() const { return jobs_; }

  /// Hardware concurrency, with a floor of 1 when it is unknown.
  static std::size_t default_job_count();

  /// Partitions [0, count) into at most `jobs` contiguous shards of
  /// near-equal size (the first count % jobs shards get one extra unit).
  /// Every unit is covered exactly once; shards come back in merge
  /// order.  `seed` feeds each shard's child RNG stream.
  static std::vector<CampaignShard> shard_columns(std::size_t count,
                                                  std::size_t jobs,
                                                  std::uint64_t seed);

  /// Executes `work` once per shard: inline on the calling thread when
  /// there is a single shard, otherwise one std::thread per shard.  If
  /// any worker throws, the first exception (in shard order) is
  /// rethrown on the calling thread after all workers joined.
  void run_shards(const std::vector<CampaignShard>& shards,
                  const std::function<void(const CampaignShard&)>& work) const;

 private:
  std::size_t jobs_;
};

/// Thrown when a campaign drains to its checkpoint instead of
/// finishing: a drain request (SIGINT/SIGTERM or the config's interrupt
/// callback) stopped workers between units.  The journal and checkpoint
/// are durable at throw time; re-running with resume=true completes the
/// campaign with byte-identical outputs.
class CampaignInterrupted : public Error {
 public:
  CampaignInterrupted(std::size_t completed, std::size_t total,
                      std::string checkpoint_dir);

  std::size_t completed_units() const { return completed_; }
  std::size_t total_units() const { return total_; }
  const std::string& checkpoint_dir() const { return checkpoint_dir_; }

 private:
  std::size_t completed_;
  std::size_t total_;
  std::string checkpoint_dir_;
};

/// Per-shard progress recorded in the checkpoint file: the shard's
/// range at checkpoint time plus its high-water mark (first unit not
/// yet completed).  On resume the executor re-derives shards for the
/// *current* job count and re-arms each shard's RNG fork at its first
/// incomplete unit; the persisted marks are validation/telemetry.
struct ShardWaterMark {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t high_water = 0;
};

/// Checkpoint file contents (checkpoint.bin, atomic temp+rename).
struct CampaignCheckpoint {
  std::uint64_t fingerprint = 0;
  std::string task_kind;
  std::uint64_t unit_count = 0;
  std::uint64_t completed_units = 0;
  std::uint64_t rnd_seed = 0;
  std::uint64_t journal_valid_bytes = 0;
  std::vector<ShardWaterMark> shards;

  void save(const std::string& path) const;
  static CampaignCheckpoint load(const std::string& path);
};

/// Crash-safety bookkeeping shared by the threaded executor and the
/// fleet coordinator (core/fleet.h): payload/completion state, resume
/// recovery, the journal writer, checkpoint cadence and the final
/// ordered merge.  Not thread-safe — the executor serializes calls
/// under its merge mutex; the single-threaded coordinator needs no
/// lock.
///
/// Lifecycle: recover() (before task.prepare()) -> open() (after) ->
/// any number of store()/absorb_ascending() rounds -> close() ->
/// merge(), or drain() for a run stopped early.
class CampaignProgress {
 public:
  /// Watermark provider for checkpoint writes: the executor reports
  /// per-shard high-water marks, the fleet coordinator one global mark.
  using WaterMarks = std::function<std::vector<ShardWaterMark>()>;

  /// Resolves all journal/checkpoint/unit telemetry handles up front
  /// (counters exist at zero even when an event never fires).
  CampaignProgress(CampaignTask& task, util::MetricsRegistry* metrics);

  /// Phase 1, before task.prepare(): on resume, validates checkpoint +
  /// journal identity (throws ConfigError on fingerprint mismatch),
  /// repairs a torn journal tail and replays intact unit frames; on a
  /// fresh checkpointing run, creates the checkpoint directory.
  void recover();

  /// Phase 2, after task.prepare(): opens the journal writer and — on a
  /// fresh run — publishes the initial checkpoint so a crash before the
  /// first periodic write still leaves a resumable directory.
  void open(const WaterMarks& marks);

  bool checkpointing() const { return checkpointing_; }
  std::size_t units() const { return units_; }
  std::size_t done() const { return done_; }
  bool all_done() const { return done_ == units_; }
  bool unit_completed(std::size_t t) const { return completed_[t] != 0; }
  const std::string& payload(std::size_t t) const { return payloads_[t]; }

  /// Records a computed payload without journaling it yet (an ascending
  /// cursor journals it).  Duplicate completions — possible under fleet
  /// lease re-issue — are dropped, first-complete wins, after asserting
  /// both payloads are byte-identical; returns false for a duplicate.
  bool store(std::size_t unit, std::string payload);

  /// Advances a cursor over completed units in [cursor, end): journals
  /// each stored-but-unjournaled payload, counts it done and writes a
  /// checkpoint every config.checkpoint_every completions — exactly as
  /// unit-at-a-time execution would, no matter what order the payloads
  /// were stored in.  Returns the new cursor (first incomplete unit).
  std::size_t absorb_ascending(std::size_t cursor, std::size_t end,
                               const WaterMarks& marks);

  /// Journals/counts exactly the given completed units (must be
  /// ascending).  The steered round barrier (SteeredPlan): a round's
  /// payloads are absorbed in plan order, so journal bytes do not depend on
  /// which worker computed what.  Units that were never stored pending
  /// (journal-replayed on resume) are skipped, like absorb_ascending.
  void absorb_units(const std::vector<std::size_t>& units,
                    const WaterMarks& marks);

  void write_checkpoint(const WaterMarks& marks);

  /// Final checkpoint + journal close (no-op without checkpointing).
  void close(const WaterMarks& marks);

  /// Ends a drained run: journals every computed-but-still-pending
  /// payload, out of ascending order (scan_journal accepts any frame
  /// order on resume) — a preempted strided pack loses nothing already
  /// computed — then close()s and throws CampaignInterrupted.
  [[noreturn]] void drain(const WaterMarks& marks);

  /// Ascending absorb_unit over every COMPLETED payload, then
  /// task.finalize().  A budgeted campaign legitimately completes a
  /// subset; absorbing the never-executed units' empty payloads would
  /// corrupt the outputs (and used to, before steering existed to
  /// finish partial).
  void merge();

 private:
  /// Journals + counts one pending unit (checkpoint cadence included).
  void absorb_one(std::size_t t, const WaterMarks& marks);

  CampaignTask& task_;
  util::MetricsRegistry* metrics_;
  std::size_t units_ = 0;
  std::uint64_t fingerprint_ = 0;
  bool checkpointing_ = false;
  std::vector<std::string> payloads_;
  std::vector<char> completed_;
  /// completed but not yet journaled/counted (deferred absorb, §12)
  std::vector<char> pending_;
  std::size_t done_ = 0;
  std::size_t done_since_checkpoint_ = 0;
  std::unique_ptr<io::JournalWriter> journal_;

  util::Counter* units_total_ = nullptr;
  util::Counter* units_computed_ = nullptr;
  util::Counter* units_replayed_ = nullptr;
  util::Counter* journal_frames_ = nullptr;
  util::Counter* journal_payload_bytes_ = nullptr;
  util::Counter* checkpoint_writes_ = nullptr;
  util::Histogram* journal_append_ms_ = nullptr;
  util::Histogram* checkpoint_write_ms_ = nullptr;
};

// ---- what every campaign loop shares -----------------------------------------

/// What every campaign loop polls between packs: the config's interrupt
/// callback when set, else the SIGINT/SIGTERM flag (util/drain.h).
std::function<bool()> drain_predicate(const CampaignConfigBase& config);

/// The one pack scheduler (DESIGN.md §12): exhaustive shards, steered
/// round shares and fleet leases all pack units through it.
class PackScheduler {
 public:
  /// Clamps config.unit_batch to [1, task.max_unit_pack()].
  explicit PackScheduler(const CampaignTask& task);

  /// Fills `pack` with first, first + stride, ... (the task's
  /// unit_pack_stride()): at most the clamped size, ending at the first
  /// unit `open` rejects — one outside the caller's share, or one
  /// already complete, so a journal-replayed unit ends a pack.
  void gather(std::size_t first, const std::function<bool(std::size_t)>& open,
              std::vector<std::size_t>& pack) const;

 private:
  std::size_t size_ = 1;
  std::size_t stride_ = 1;
};

/// The `--progress` stderr line: at most one update per 200 ms, plus a
/// final line.  A steered run (non-null `steering`) reports the units
/// planned so far instead of a share of the exhaustive total.
class ProgressLine {
 public:
  ProgressLine(const CampaignConfigBase& config, std::size_t units,
               const SteeringPolicy* steering = nullptr);
  void update(std::size_t done, bool final_line = false);

 private:
  bool enabled_;
  std::size_t units_;
  const SteeringPolicy* steering_;
  Stopwatch watch_;
  double last_ms_ = -1.0;
};

/// The planning side of a steered campaign (DESIGN.md §16), shared by
/// the threaded executor and the fleet coordinator: they differ only in
/// how a round's units get computed.
class SteeredPlan {
 public:
  /// Throws ConfigError when the task advertises no steering cells.
  explicit SteeredPlan(CampaignTask& task);

  SteeringPolicy& policy() { return policy_; }

  /// The round barrier: absorbs the round's completed units in plan
  /// (ascending) order — journal bytes never depend on which worker
  /// computed what — then feeds their outcomes to the policy.  False
  /// when a drain left part of the round uncomputed.
  bool absorb_round(const std::vector<std::size_t>& round,
                    CampaignProgress& progress,
                    const CampaignProgress::WaterMarks& marks);

  /// After the final checkpoint: the steering.units_executed gauge, the
  /// merge over the executed units and vulnerability_map.json.
  void finish(CampaignProgress& progress, util::MetricsRegistry* metrics);

 private:
  CampaignTask& task_;
  SteeringPolicy policy_;
};

/// Runs a CampaignTask end to end: prepare -> sharded unit execution
/// (journaled when checkpointing is configured) -> ordered merge ->
/// finalize.  One executor instance runs one campaign.
///
/// Unit packing (DESIGN.md §12): within each shard the executor hands
/// the runner packs from the shared PackScheduler — up to
/// min(config.unit_batch, task.max_unit_pack()) incomplete units per
/// run_unit_pack call, spaced at the task's unit_pack_stride() (the
/// classification harness strides by dataset_size so a pack re-runs the
/// SAME image under different fault groups and shares one fault-free
/// pass across the pack).  Payloads come back in pack order; each shard
/// then journals / counts them from an ascending cursor (out-of-order
/// pack-mates wait as pending), so journal frames, counters and
/// checkpoint cadence match unit-at-a-time execution and outputs stay
/// byte-identical for every --unit-batch / --jobs combination.
class CampaignExecutor {
 public:
  /// `metrics` (optional) receives campaign telemetry: unit counters
  /// (units.total/computed/replayed — commutative, so identical for any
  /// --jobs), the campaign.unit_ms latency histogram, journal/checkpoint
  /// write latency + bytes and per-worker units/sec gauges.
  explicit CampaignExecutor(CampaignTask& task,
                            util::MetricsRegistry* metrics = nullptr);

  /// Paths used inside a checkpoint directory.
  static std::string journal_path(const std::string& checkpoint_dir);
  static std::string checkpoint_path(const std::string& checkpoint_dir);

  /// Executes the campaign.  Throws CampaignInterrupted on graceful
  /// drain, ConfigError when a resume's fingerprints do not match.
  /// With config.steering.enabled() the round-based steered path runs
  /// instead of the exhaustive sweep (DESIGN.md §16).
  void execute();

 private:
  /// Budgeted / adaptively-steered execution: a single planning loop
  /// (SteeringPolicy) plans rounds of units; each round is sharded
  /// across the worker threads, which pack their share like the
  /// exhaustive sweep, absorbed at the round barrier in plan order, and
  /// its outcomes steer the next round.  Emits vulnerability_map.json
  /// when configured.
  void execute_steered();

  /// Runs one pack and stores its payloads, each with its amortized
  /// share of the pack's latency.  Returns holding `merge_mutex`, so the
  /// caller absorbs and reports progress under the same lock.
  std::unique_lock<std::mutex> compute_pack(CampaignUnitRunner& runner,
                                            const std::vector<std::size_t>& pack,
                                            CampaignProgress& progress,
                                            std::mutex& merge_mutex);

  CampaignTask& task_;
  util::MetricsRegistry* metrics_;
  util::Histogram* unit_ms_ = nullptr;  ///< campaign.unit_ms
};

}  // namespace alfi::core
