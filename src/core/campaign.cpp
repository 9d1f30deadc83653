#include "core/campaign.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "util/stopwatch.h"

#include "core/steering.h"
#include "io/atomic_file.h"
#include "io/vulnerability_map.h"
#include "util/drain.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace alfi::core {

namespace {

/// Shard stream seed: mixes the campaign seed with the shard's first
/// global work-unit index so the stream depends on *what* the shard
/// covers, never on how many workers the operator chose.
std::uint64_t shard_seed(std::uint64_t seed, std::size_t begin) {
  std::uint64_t state = seed ^ 0xa1f1'c0de'5eed'0001ULL;
  const std::uint64_t mixed = splitmix64_next(state);
  return mixed ^ (0x9e37'79b9'7f4a'7c15ULL * (static_cast<std::uint64_t>(begin) + 1));
}

constexpr char kCheckpointMagic[4] = {'A', 'C', 'K', 'P'};
constexpr std::uint32_t kCheckpointVersion = 1;

}  // namespace

CampaignRunner::CampaignRunner(std::size_t jobs)
    : jobs_(jobs == 0 ? default_job_count() : jobs) {}

std::size_t CampaignRunner::default_job_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::vector<CampaignShard> CampaignRunner::shard_columns(std::size_t count,
                                                         std::size_t jobs,
                                                         std::uint64_t seed) {
  ALFI_CHECK(jobs > 0, "shard_columns needs at least one job");
  std::vector<CampaignShard> shards;
  if (count == 0) return shards;
  const std::size_t workers = std::min(jobs, count);
  const std::size_t base = count / workers;
  const std::size_t extra = count % workers;
  std::size_t begin = 0;
  shards.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    const std::size_t size = base + (i < extra ? 1 : 0);
    CampaignShard shard;
    shard.index = i;
    shard.begin = begin;
    shard.end = begin + size;
    shard.rng = Rng(shard_seed(seed, begin));
    shards.push_back(std::move(shard));
    begin += size;
  }
  ALFI_CHECK(begin == count, "shard partition must cover every work unit");
  return shards;
}

void CampaignRunner::run_shards(
    const std::vector<CampaignShard>& shards,
    const std::function<void(const CampaignShard&)>& work) const {
  if (shards.empty()) return;
  if (shards.size() == 1) {
    work(shards.front());
    return;
  }
  std::vector<std::exception_ptr> errors(shards.size());
  std::vector<std::thread> threads;
  threads.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    threads.emplace_back([&shards, &work, &errors, i] {
      try {
        work(shards[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

// ---- checkpoint file --------------------------------------------------------

CampaignInterrupted::CampaignInterrupted(std::size_t completed, std::size_t total,
                                         std::string checkpoint_dir)
    : Error(strformat("campaign drained to checkpoint: %zu/%zu units complete, "
                      "resume from %s",
                      completed, total, checkpoint_dir.c_str())),
      completed_(completed),
      total_(total),
      checkpoint_dir_(std::move(checkpoint_dir)) {}

void CampaignCheckpoint::save(const std::string& path) const {
  io::ByteWriter w;
  w.write_bytes(std::string_view(kCheckpointMagic, 4));
  w.write_u32(kCheckpointVersion);
  w.write_u64(fingerprint);
  w.write_string(task_kind);
  w.write_u64(unit_count);
  w.write_u64(completed_units);
  w.write_u64(rnd_seed);
  w.write_u64(journal_valid_bytes);
  w.write_u32(static_cast<std::uint32_t>(shards.size()));
  for (const ShardWaterMark& shard : shards) {
    w.write_u64(shard.begin);
    w.write_u64(shard.end);
    w.write_u64(shard.high_water);
  }
  // sync=true: the checkpoint must never reference journal bytes the
  // kernel has not made durable.
  io::write_file_atomic(path, w.bytes(), /*sync=*/true);
}

CampaignCheckpoint CampaignCheckpoint::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open checkpoint: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  io::ByteReader r(bytes);
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.read_u8());
  if (std::string_view(magic, 4) != std::string_view(kCheckpointMagic, 4)) {
    throw ParseError("bad magic in checkpoint file: " + path);
  }
  const std::uint32_t version = r.read_u32();
  if (version != kCheckpointVersion) {
    throw ParseError("unsupported checkpoint version in " + path);
  }
  CampaignCheckpoint cp;
  cp.fingerprint = r.read_u64();
  cp.task_kind = r.read_string();
  cp.unit_count = r.read_u64();
  cp.completed_units = r.read_u64();
  cp.rnd_seed = r.read_u64();
  cp.journal_valid_bytes = r.read_u64();
  const std::uint32_t shard_count = r.read_u32();
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    ShardWaterMark shard;
    shard.begin = r.read_u64();
    shard.end = r.read_u64();
    shard.high_water = r.read_u64();
    cp.shards.push_back(shard);
  }
  return cp;
}

// ---- shared progress bookkeeping --------------------------------------------

CampaignProgress::CampaignProgress(CampaignTask& task,
                                   util::MetricsRegistry* metrics)
    : task_(task), metrics_(metrics) {
  units_ = task_.unit_count();
  fingerprint_ = task_.fingerprint();
  checkpointing_ = !task_.base_config().checkpoint_dir.empty();
  payloads_.resize(units_);
  completed_.assign(units_, 0);
  pending_.assign(units_, 0);
  if (metrics_ != nullptr) {
    units_total_ = &metrics_->counter("units.total");
    units_computed_ = &metrics_->counter("units.computed");
    units_replayed_ = &metrics_->counter("units.replayed");
    journal_frames_ = &metrics_->counter("journal.frames");
    journal_payload_bytes_ = &metrics_->counter("journal.payload_bytes");
    checkpoint_writes_ = &metrics_->counter("checkpoint.writes");
    journal_append_ms_ = &metrics_->histogram("journal.append_ms");
    checkpoint_write_ms_ = &metrics_->histogram("checkpoint.write_ms");
  }
  if (units_total_ != nullptr) units_total_->add(units_);
}

void CampaignProgress::recover() {
  const CampaignConfigBase& config = task_.base_config();
  ALFI_CHECK(!config.resume || checkpointing_,
             "resume requires a checkpoint directory");
  if (!config.resume) {
    if (checkpointing_) std::filesystem::create_directories(config.checkpoint_dir);
    return;
  }
  const std::string cp_path =
      CampaignExecutor::checkpoint_path(config.checkpoint_dir);
  const std::string jn_path =
      CampaignExecutor::journal_path(config.checkpoint_dir);
  const CampaignCheckpoint checkpoint = CampaignCheckpoint::load(cp_path);
  if (checkpoint.fingerprint != fingerprint_ ||
      checkpoint.task_kind != task_.task_kind() ||
      checkpoint.unit_count != units_) {
    throw ConfigError(
        "refusing to resume: checkpoint was written by a different campaign "
        "(scenario, fault matrix, seed or workload changed) — delete " +
        config.checkpoint_dir + " to start over");
  }
  io::JournalScan scan = io::scan_journal(jn_path);
  if (scan.header.fingerprint != fingerprint_ ||
      scan.header.task_kind != task_.task_kind()) {
    throw ConfigError("refusing to resume: journal fingerprint mismatch in " +
                      jn_path);
  }
  if (scan.torn_tail) {
    ALFI_LOG(kWarn) << "journal has a torn tail at byte " << scan.valid_bytes
                    << "; truncating (the affected units will be recomputed)";
    io::repair_journal(jn_path, scan);
  }
  for (auto& [unit, payload] : scan.units) {
    if (unit >= units_ || completed_[unit]) continue;  // duplicate or stray frame
    payloads_[unit] = std::move(payload);
    completed_[unit] = 1;
    ++done_;
  }
  ALFI_LOG(kInfo) << "resuming campaign: " << done_ << "/" << units_
                  << " units recovered from journal";
  if (units_replayed_ != nullptr) units_replayed_->add(done_);
}

void CampaignProgress::open(const WaterMarks& marks) {
  const CampaignConfigBase& config = task_.base_config();
  if (!checkpointing_) return;
  io::JournalHeader header;
  header.fingerprint = fingerprint_;
  header.unit_count = units_;
  header.task_kind = task_.task_kind();
  journal_ = std::make_unique<io::JournalWriter>(
      CampaignExecutor::journal_path(config.checkpoint_dir), header,
      config.resume);
  if (!config.resume) write_checkpoint(marks);
}

bool CampaignProgress::store(std::size_t unit, std::string payload) {
  ALFI_CHECK(unit < units_, "unit index out of range");
  if (completed_[unit]) {
    // Fleet lease re-issue can complete a unit twice (a falsely-dead
    // worker keeps shipping).  First-complete wins; determinism means
    // both must have computed identical bytes — anything else is a
    // corrupted worker, not a benign race.
    ALFI_CHECK(payloads_[unit] == payload,
               "duplicate unit completion with divergent payload bytes");
    return false;
  }
  payloads_[unit] = std::move(payload);
  completed_[unit] = 1;
  pending_[unit] = 1;
  return true;
}

void CampaignProgress::absorb_one(std::size_t t, const WaterMarks& marks) {
  const CampaignConfigBase& config = task_.base_config();
  pending_[t] = 0;
  const std::string& payload = payloads_[t];
  if (journal_) {
    const Stopwatch append_watch;
    journal_->append_unit(t, payload);
    if (journal_append_ms_ != nullptr) {
      journal_append_ms_->record(append_watch.elapsed_ms());
    }
    if (journal_frames_ != nullptr) journal_frames_->add();
    if (journal_payload_bytes_ != nullptr) {
      journal_payload_bytes_->add(payload.size());
    }
  }
  ++done_;
  if (units_computed_ != nullptr) units_computed_->add();
  if (checkpointing_ && ++done_since_checkpoint_ >= config.checkpoint_every) {
    done_since_checkpoint_ = 0;
    write_checkpoint(marks);
  }
}

std::size_t CampaignProgress::absorb_ascending(std::size_t cursor,
                                               std::size_t end,
                                               const WaterMarks& marks) {
  while (cursor < end && completed_[cursor]) {
    if (pending_[cursor]) absorb_one(cursor, marks);
    ++cursor;
  }
  return cursor;
}

void CampaignProgress::absorb_units(const std::vector<std::size_t>& units,
                                    const WaterMarks& marks) {
  for (const std::size_t t : units) {
    ALFI_CHECK(t < units_ && completed_[t],
               "absorb_units expects completed units");
    if (pending_[t]) absorb_one(t, marks);
  }
}

void CampaignProgress::flush_pending() {
  if (!journal_) return;
  for (std::size_t t = 0; t < units_; ++t) {
    if (!pending_[t]) continue;
    pending_[t] = 0;
    journal_->append_unit(t, payloads_[t]);
    if (journal_frames_ != nullptr) journal_frames_->add();
    if (journal_payload_bytes_ != nullptr) {
      journal_payload_bytes_->add(payloads_[t].size());
    }
  }
}

void CampaignProgress::write_checkpoint(const WaterMarks& marks) {
  if (!checkpointing_) return;
  const CampaignConfigBase& config = task_.base_config();
  Stopwatch cp_watch;
  journal_->sync();
  CampaignCheckpoint cp;
  cp.fingerprint = fingerprint_;
  cp.task_kind = task_.task_kind();
  cp.unit_count = units_;
  cp.completed_units = done_;
  cp.rnd_seed = task_.task_scenario().rnd_seed;
  cp.journal_valid_bytes = std::filesystem::file_size(
      CampaignExecutor::journal_path(config.checkpoint_dir));
  cp.shards = marks();
  cp.save(CampaignExecutor::checkpoint_path(config.checkpoint_dir));
  if (checkpoint_writes_ != nullptr) checkpoint_writes_->add();
  if (checkpoint_write_ms_ != nullptr) {
    checkpoint_write_ms_->record(cp_watch.elapsed_ms());
  }
}

void CampaignProgress::close(const WaterMarks& marks) {
  if (!checkpointing_ || !journal_) return;
  write_checkpoint(marks);
  journal_->close();
}

void CampaignProgress::merge() {
  // Only completed units: a budgeted/steered campaign legitimately
  // finishes with a subset executed, and absorbing a never-executed
  // unit's empty payload would corrupt the outputs.  The executed SET
  // is plan-deterministic, and ascending order restores the serial
  // output order over it, so outputs stay byte-identical for any job
  // count / fleet size.
  for (std::size_t t = 0; t < units_; ++t) {
    if (!completed_[t]) continue;
    task_.absorb_unit(t, payloads_[t]);
  }
  task_.finalize();
}

// ---- executor ---------------------------------------------------------------

CampaignExecutor::CampaignExecutor(CampaignTask& task,
                                   util::MetricsRegistry* metrics)
    : task_(task), metrics_(metrics) {}

std::string CampaignExecutor::journal_path(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/journal.bin";
}

std::string CampaignExecutor::checkpoint_path(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/checkpoint.bin";
}

void CampaignExecutor::execute() {
  if (task_.base_config().steering.enabled()) {
    execute_steered();
    return;
  }
  const CampaignConfigBase& config = task_.base_config();
  const Scenario& scenario = task_.task_scenario();
  const std::size_t units = task_.unit_count();

  const std::function<bool()> interrupted =
      config.interrupt ? config.interrupt : std::function<bool()>(&drain_requested);

  util::Histogram* unit_ms =
      metrics_ != nullptr ? &metrics_->histogram("campaign.unit_ms") : nullptr;

  // All crash-safety bookkeeping lives in CampaignProgress (shared with
  // the fleet coordinator); the executor serializes access to it under
  // merge_mutex.
  CampaignProgress progress(task_, metrics_);
  progress.recover();

  // prepare() after resume validation: meta-files are (re)written
  // identically, calibration bounds recomputed deterministically.
  task_.prepare();

  const CampaignRunner runner(config.jobs);
  const std::vector<CampaignShard> shards =
      CampaignRunner::shard_columns(units, runner.jobs(), scenario.rnd_seed);

  const CampaignProgress::WaterMarks marks = [&] {
    std::vector<ShardWaterMark> ms;
    ms.reserve(shards.size());
    for (const CampaignShard& shard : shards) {
      ShardWaterMark mark{shard.begin, shard.end, shard.begin};
      while (mark.high_water < shard.end && progress.unit_completed(mark.high_water)) {
        ++mark.high_water;
      }
      ms.push_back(mark);
    }
    return ms;
  };

  // Opens the journal and — on a fresh run — writes the initial
  // checkpoint, so a crash before the first periodic write still
  // leaves a resumable directory.
  progress.open(marks);

  // Everything the workers publish goes through this mutex: journal
  // appends, payload/completion bookkeeping and checkpoint writes.
  std::mutex merge_mutex;

  // Throttled --progress line: at most one stderr update per 200ms,
  // written under merge_mutex so lines never interleave.
  const Stopwatch campaign_watch;
  double last_progress_ms = -1.0;
  const auto print_progress_locked = [&](bool final_line) {
    if (!config.progress) return;
    const double now_ms = campaign_watch.elapsed_ms();
    if (!final_line && last_progress_ms >= 0.0 && now_ms - last_progress_ms < 200.0) {
      return;
    }
    last_progress_ms = now_ms;
    const std::size_t done = progress.done();
    const double pct = units == 0 ? 100.0 : 100.0 * static_cast<double>(done) /
                                                static_cast<double>(units);
    const double rate = now_ms <= 0.0 ? 0.0 : static_cast<double>(done) /
                                                  (now_ms / 1000.0);
    std::fprintf(stderr, "\r[alfi] %zu/%zu units (%5.1f%%) %8.1f units/s%s",
                 done, units, pct, rate, final_line ? "\n" : "");
    std::fflush(stderr);
  };

  // Unit packing: clamp the requested pack size to what the workload
  // supports.  pack == 1 hands the runner one unit per call — the
  // classic executor, bit for bit.
  const std::size_t pack =
      std::max<std::size_t>(1, std::min(config.unit_batch == 0
                                            ? std::size_t{1}
                                            : config.unit_batch,
                                        task_.max_unit_pack()));
  if (config.unit_batch > 1 && pack < config.unit_batch) {
    ALFI_LOG(kInfo) << "unit batch clamped to " << pack
                    << " (workload max_unit_pack)";
  }
  const std::size_t stride = std::max<std::size_t>(1, task_.unit_pack_stride());

  // Deferred absorb (DESIGN.md §12): a pack holds units {t, t+stride,
  // ...}, so units complete out of ascending order.  Journal frames,
  // unit counters and checkpoint cadence must still match
  // unit-at-a-time execution, so each shard absorbs from its own
  // ascending cursor (progress.absorb_ascending) and payloads the
  // cursor has not reached yet stay pending inside progress.
  if (!shards.empty()) {
    const bool shared_model = shards.size() == 1;
    if (shards.size() > 1) {
      ALFI_LOG(kInfo) << "parallel campaign: " << units << " units across "
                      << shards.size() << " shards (" << runner.jobs() << " jobs)";
    }
    runner.run_shards(shards, [&](const CampaignShard& shard) {
      std::unique_ptr<CampaignUnitRunner> unit_runner;  // created lazily:
      // a fully-journaled shard never pays for a model replica.
      const Stopwatch shard_watch;
      std::size_t shard_computed = 0;
      std::size_t absorb_cursor = shard.begin;  // next unit to journal/count
      std::vector<std::size_t> pack_units;
      for (std::size_t t = shard.begin; t < shard.end;) {
        if (progress.unit_completed(t)) { ++t; continue; }  // replayed or pack-mate
        if (interrupted()) break;
        if (!unit_runner) unit_runner = task_.make_unit_runner(shared_model);
        // Pack incomplete units at the task's stride: {t, t+S, t+2S, ...}.
        // The classification harness strides by dataset_size, so every
        // unit in the pack re-runs the SAME image under a different
        // fault group and the runner shares one fault-free pass across
        // the pack.  A journal-replayed unit ends the pack so replay
        // boundaries never change what a packed pass computes.
        pack_units.clear();
        for (std::size_t u = t;
             pack_units.size() < pack && u < shard.end && !progress.unit_completed(u);
             u += stride) {
          pack_units.push_back(u);
        }
        const Stopwatch unit_watch;
        std::vector<std::string> batch = unit_runner->run_unit_pack(pack_units);
        ALFI_CHECK(batch.size() == pack_units.size(),
                   "unit runner returned a wrong-sized payload batch");
        // The per-unit latency of a packed pass is its amortized share.
        const double per_unit_ms =
            unit_watch.elapsed_ms() / static_cast<double>(batch.size());
        shard_computed += batch.size();

        std::lock_guard<std::mutex> lock(merge_mutex);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          progress.store(pack_units[i], std::move(batch[i]));
          if (unit_ms != nullptr) unit_ms->record(per_unit_ms);
        }
        absorb_cursor = progress.absorb_ascending(absorb_cursor, shard.end, marks);
        print_progress_locked(/*final_line=*/false);
        ++t;
      }
      if (metrics_ != nullptr && shard_computed > 0) {
        const double seconds = shard_watch.elapsed_seconds();
        metrics_->gauge("worker." + std::to_string(shard.index) + ".units_per_sec")
            .set(seconds <= 0.0 ? 0.0 : static_cast<double>(shard_computed) / seconds);
      }
    });
  }
  {
    std::lock_guard<std::mutex> lock(merge_mutex);
    print_progress_locked(/*final_line=*/true);
  }

  // ---- drained? persist progress and surface the preemption ----------------
  if (!progress.all_done()) {
    {
      std::lock_guard<std::mutex> lock(merge_mutex);
      // Journal computed-but-unabsorbed pack payloads first: a strided
      // pack preempted past the absorb cursor replays from the journal
      // on resume instead of being recomputed.
      progress.flush_pending();
      progress.close(marks);
    }
    throw CampaignInterrupted(progress.done(), units, config.checkpoint_dir);
  }

  {
    std::lock_guard<std::mutex> lock(merge_mutex);
    progress.close(marks);  // final: high-water == end on every shard
  }

  // ---- merge: ascending unit order restores the serial output order --------
  progress.merge();
}

// ---- steered execution (DESIGN.md §16) --------------------------------------

void CampaignExecutor::execute_steered() {
  const CampaignConfigBase& config = task_.base_config();
  const Scenario& scenario = task_.task_scenario();
  const std::size_t units = task_.unit_count();

  const std::function<bool()> interrupted =
      config.interrupt ? config.interrupt : std::function<bool()>(&drain_requested);

  util::Histogram* unit_ms =
      metrics_ != nullptr ? &metrics_->histogram("campaign.unit_ms") : nullptr;

  std::vector<SteeringCellKey> cells = task_.steering_cells();
  if (cells.empty()) {
    throw ConfigError("workload '" + task_.task_kind() +
                      "' does not support campaign steering "
                      "(--budget / --steer / --vuln-map)");
  }
  ALFI_CHECK(cells.size() == units,
             "steering_cells must describe every work unit");

  CampaignProgress progress(task_, metrics_);
  progress.recover();
  task_.prepare();

  // Steered completion is not a prefix of [0, units), so the checkpoint
  // carries one global mark whose high-water is the first incomplete
  // unit; resume recovers from the journal frames, not the marks.
  const CampaignProgress::WaterMarks marks = [&] {
    ShardWaterMark mark{0, units, 0};
    while (mark.high_water < units && progress.unit_completed(mark.high_water)) {
      ++mark.high_water;
    }
    return std::vector<ShardWaterMark>{mark};
  };
  progress.open(marks);

  SteeringPolicy policy(std::move(cells), config.steering);
  const CampaignRunner runner(config.jobs);
  std::mutex merge_mutex;

  const Stopwatch campaign_watch;
  double last_progress_ms = -1.0;
  const auto print_progress_locked = [&](bool final_line) {
    if (!config.progress) return;
    const double now_ms = campaign_watch.elapsed_ms();
    if (!final_line && last_progress_ms >= 0.0 && now_ms - last_progress_ms < 200.0) {
      return;
    }
    last_progress_ms = now_ms;
    const std::size_t done = progress.done();
    const double rate = now_ms <= 0.0 ? 0.0 : static_cast<double>(done) /
                                                  (now_ms / 1000.0);
    std::fprintf(stderr, "\r[alfi] steered %zu units planned, %zu done %8.1f units/s%s",
                 policy.planned_units(), done, rate, final_line ? "\n" : "");
    std::fflush(stderr);
  };

  ALFI_LOG(kInfo) << "steered campaign: " << units << " units, budget "
                  << (config.steering.budget == 0
                          ? std::string("unlimited")
                          : std::to_string(config.steering.budget))
                  << (config.steering.steer ? ", adaptive early stopping" : "");

  // One runner per worker slot, reused across rounds (a replica clone
  // per round would dominate small-round campaigns).  Slot i is only
  // ever touched by round-shard i, and rounds are separated by the
  // barrier, so the pool needs no lock.
  std::vector<std::unique_ptr<CampaignUnitRunner>> runners(runner.jobs());
  const bool shared_model = runner.jobs() == 1;

  // The planning loop: each round's unit list depends only on outcomes
  // absorbed at prior-round barriers, so the executed unit sequence —
  // and with it journal bytes and the map — is identical for any job
  // count.  Resume replays the same loop; units already journaled are
  // recorded without being recomputed.
  bool drained = false;
  std::vector<std::size_t> todo;
  std::vector<std::size_t> ready;
  while (!drained) {
    if (interrupted()) { drained = true; break; }
    const std::vector<std::size_t> round = policy.plan_round();
    if (round.empty()) break;
    todo.clear();
    for (const std::size_t t : round) {
      if (!progress.unit_completed(t)) todo.push_back(t);
    }
    if (!todo.empty()) {
      const std::vector<CampaignShard> shards = CampaignRunner::shard_columns(
          todo.size(), runner.jobs(), scenario.rnd_seed);
      runner.run_shards(shards, [&](const CampaignShard& shard) {
        std::unique_ptr<CampaignUnitRunner>& unit_runner = runners[shard.index];
        for (std::size_t i = shard.begin; i < shard.end; ++i) {
          if (interrupted()) break;
          if (!unit_runner) unit_runner = task_.make_unit_runner(shared_model);
          const std::size_t t = todo[i];
          const Stopwatch unit_watch;
          std::string payload = unit_runner->run_unit(t);
          const double elapsed_ms = unit_watch.elapsed_ms();
          std::lock_guard<std::mutex> lock(merge_mutex);
          progress.store(t, std::move(payload));
          if (unit_ms != nullptr) unit_ms->record(elapsed_ms);
          print_progress_locked(/*final_line=*/false);
        }
      });
    }
    // Round barrier: absorb in plan (ascending) order — journal bytes
    // never depend on worker scheduling — then feed the policy.
    ready.clear();
    for (const std::size_t t : round) {
      if (progress.unit_completed(t)) ready.push_back(t);
    }
    progress.absorb_units(ready, marks);
    for (const std::size_t t : ready) {
      policy.record(t, task_.classify_unit(t, progress.payload(t)));
    }
    if (ready.size() < round.size()) drained = true;  // interrupted mid-round
  }
  print_progress_locked(/*final_line=*/true);

  if (drained) {
    progress.flush_pending();
    progress.close(marks);
    throw CampaignInterrupted(progress.done(), units, config.checkpoint_dir);
  }

  progress.close(marks);
  ALFI_LOG(kInfo) << "steered campaign complete: " << progress.done() << "/"
                  << units << " units executed ("
                  << (units == 0 ? 0.0
                                 : 100.0 * static_cast<double>(progress.done()) /
                                       static_cast<double>(units))
                  << "% of exhaustive)";
  if (metrics_ != nullptr) {
    metrics_->gauge("steering.units_executed")
        .set(static_cast<double>(progress.done()));
  }
  progress.merge();
  if (!config.steering.map_path.empty()) {
    io::write_vulnerability_map(
        config.steering.map_path,
        policy.build_map(task_.task_kind(), config.model_name, units));
    ALFI_LOG(kInfo) << "vulnerability map written to "
                    << config.steering.map_path;
  }
}

}  // namespace alfi::core
