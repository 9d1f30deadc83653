#include "core/campaign.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "io/vulnerability_map.h"
#include "util/drain.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace alfi::core {

CampaignRunner::CampaignRunner(std::size_t jobs)
    : jobs_(jobs == 0 ? default_job_count() : jobs) {}

std::size_t CampaignRunner::default_job_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::vector<CampaignShard> CampaignRunner::shard_columns(std::size_t count,
                                                         std::size_t jobs) {
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
    shards.push_back({i, begin, begin + size});
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

// ---- drain ------------------------------------------------------------------

CampaignInterrupted::CampaignInterrupted(std::size_t completed, std::size_t total,
                                         std::string checkpoint_dir)
    : Error(strformat("campaign drained to checkpoint: %zu/%zu units complete, "
                      "resume from %s",
                      completed, total, checkpoint_dir.c_str())),
      completed_(completed),
      total_(total),
      checkpoint_dir_(std::move(checkpoint_dir)) {}

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
    journal_append_ms_ = &metrics_->histogram("journal.append_ms");
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
  const std::string jn_path =
      CampaignExecutor::journal_path(config.checkpoint_dir);
  io::JournalScan scan = io::scan_journal(jn_path);
  if (scan.header.fingerprint != fingerprint_ ||
      scan.header.task_kind != task_.task_kind() ||
      scan.header.unit_count != units_) {
    throw ConfigError(
        "refusing to resume: " + jn_path +
        " was written by a different campaign (scenario, fault matrix, seed "
        "or workload changed) — delete " + config.checkpoint_dir +
        " to start over");
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

void CampaignProgress::open() {
  const CampaignConfigBase& config = task_.base_config();
  if (!checkpointing_) return;
  io::JournalHeader header;
  header.fingerprint = fingerprint_;
  header.unit_count = units_;
  header.task_kind = task_.task_kind();
  journal_ = std::make_unique<io::JournalWriter>(
      CampaignExecutor::journal_path(config.checkpoint_dir), header,
      config.resume);
  // A fresh header (or a resume's tail repair) is durable before the
  // first unit frame lands behind it.
  journal_->sync();
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

void CampaignProgress::append(std::size_t t) {
  const std::string& payload = payloads_[t];
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

void CampaignProgress::absorb_one(std::size_t t) {
  pending_[t] = 0;
  if (journal_) {
    append(t);
    if (++appended_since_sync_ >= kSyncEvery) {
      appended_since_sync_ = 0;
      journal_->sync();
    }
  }
  ++done_;
  if (units_computed_ != nullptr) units_computed_->add();
}

std::size_t CampaignProgress::absorb_ascending(std::size_t cursor,
                                               std::size_t end) {
  while (cursor < end && completed_[cursor]) {
    if (pending_[cursor]) absorb_one(cursor);
    ++cursor;
  }
  return cursor;
}

void CampaignProgress::absorb_units(const std::vector<std::size_t>& units) {
  for (const std::size_t t : units) {
    ALFI_CHECK(t < units_ && completed_[t],
               "absorb_units expects completed units");
    if (pending_[t]) absorb_one(t);
  }
}

void CampaignProgress::drain() {
  for (std::size_t t = 0; journal_ && t < units_; ++t) {
    if (!pending_[t]) continue;
    pending_[t] = 0;
    append(t);
  }
  close();
  throw CampaignInterrupted(done_, units_, task_.base_config().checkpoint_dir);
}

void CampaignProgress::close() {
  if (!journal_) return;
  journal_->sync();
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


// ---- what every campaign loop shares ----------------------------------------

std::function<bool()> drain_predicate(const CampaignConfigBase& config) {
  return config.interrupt ? config.interrupt : std::function<bool()>(&drain_requested);
}

PackScheduler::PackScheduler(const CampaignTask& task)
    : stride_(std::max<std::size_t>(1, task.unit_pack_stride())) {
  const std::size_t requested = task.base_config().unit_batch;
  size_ = std::max<std::size_t>(1, std::min(requested, task.max_unit_pack()));
  if (requested > 1 && size_ < requested) {
    ALFI_LOG(kInfo) << "unit batch clamped to " << size_
                    << " (workload max_unit_pack)";
  }
}

void PackScheduler::gather(std::size_t first,
                           const std::function<bool(std::size_t)>& open,
                           std::vector<std::size_t>& pack) const {
  pack.assign(1, first);
  for (std::size_t u = first + stride_; pack.size() < size_ && open(u); u += stride_) {
    pack.push_back(u);
  }
}

ProgressLine::ProgressLine(const CampaignConfigBase& config, std::size_t units,
                           const SteeringPolicy* steering)
    : enabled_(config.progress), units_(units), steering_(steering) {}

void ProgressLine::update(std::size_t done, bool final_line) {
  if (!enabled_) return;
  const double now_ms = watch_.elapsed_ms();
  if (!final_line && last_ms_ >= 0.0 && now_ms - last_ms_ < 200.0) return;
  last_ms_ = now_ms;
  const double rate =
      now_ms <= 0.0 ? 0.0 : static_cast<double>(done) / (now_ms / 1000.0);
  const char* end = final_line ? "\n" : "";
  if (steering_ != nullptr) {
    std::fprintf(stderr, "\r[alfi] steered %zu units planned, %zu done %8.1f units/s%s",
                 steering_->planned_units(), done, rate, end);
  } else {
    const double pct = units_ == 0 ? 100.0
                                   : 100.0 * static_cast<double>(done) /
                                         static_cast<double>(units_);
    std::fprintf(stderr, "\r[alfi] %zu/%zu units (%5.1f%%) %8.1f units/s%s", done,
                 units_, pct, rate, end);
  }
  std::fflush(stderr);
}

namespace {

std::vector<SteeringCellKey> checked_steering_cells(const CampaignTask& task) {
  std::vector<SteeringCellKey> cells = task.steering_cells();
  if (cells.empty()) {
    throw ConfigError("workload '" + task.task_kind() +
                      "' does not support campaign steering "
                      "(--budget / --steer / --vuln-map)");
  }
  ALFI_CHECK(cells.size() == task.unit_count(),
             "steering_cells must describe every work unit");
  return cells;
}

}  // namespace

SteeredPlan::SteeredPlan(CampaignTask& task)
    : task_(task),
      policy_(checked_steering_cells(task), task.base_config().steering) {}

bool SteeredPlan::absorb_round(const std::vector<std::size_t>& round,
                               CampaignProgress& progress) {
  std::vector<std::size_t> ready;
  for (const std::size_t t : round) {
    if (progress.unit_completed(t)) ready.push_back(t);
  }
  progress.absorb_units(ready);
  for (const std::size_t t : ready) {
    policy_.record(t, task_.classify_unit(t, progress.payload(t)));
  }
  return ready.size() == round.size();
}

void SteeredPlan::finish(CampaignProgress& progress, util::MetricsRegistry* metrics) {
  const CampaignConfigBase& config = task_.base_config();
  const std::size_t units = task_.unit_count();
  ALFI_LOG(kInfo) << "steered campaign complete: " << progress.done() << "/"
                  << units << " units executed ("
                  << (units == 0 ? 0.0
                                 : 100.0 * static_cast<double>(progress.done()) /
                                       static_cast<double>(units))
                  << "% of exhaustive)";
  if (metrics != nullptr) {
    metrics->gauge("steering.units_executed").set(static_cast<double>(progress.done()));
  }
  progress.merge();
  if (!config.steering.map_path.empty()) {
    io::write_vulnerability_map(
        config.steering.map_path,
        policy_.build_map(task_.task_kind(), config.model_name, units));
    ALFI_LOG(kInfo) << "vulnerability map written to " << config.steering.map_path;
  }
}

// ---- executor ---------------------------------------------------------------

CampaignExecutor::CampaignExecutor(CampaignTask& task,
                                   util::MetricsRegistry* metrics)
    : task_(task),
      metrics_(metrics),
      unit_ms_(metrics != nullptr ? &metrics->histogram("campaign.unit_ms")
                                  : nullptr) {}

std::string CampaignExecutor::journal_path(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/journal.bin";
}

std::unique_lock<std::mutex> CampaignExecutor::compute_pack(
    CampaignUnitRunner& runner, const std::vector<std::size_t>& pack,
    CampaignProgress& progress, std::mutex& merge_mutex) {
  const Stopwatch pack_watch;
  std::vector<std::string> payloads = runner.run_unit_pack(pack);
  ALFI_CHECK(payloads.size() == pack.size(),
             "unit runner returned a wrong-sized payload batch");
  // The per-unit latency of a packed pass is its amortized share.
  const double per_unit_ms = pack_watch.elapsed_ms() / static_cast<double>(pack.size());
  std::unique_lock<std::mutex> lock(merge_mutex);
  for (std::size_t i = 0; i < pack.size(); ++i) {
    progress.store(pack[i], std::move(payloads[i]));
    if (unit_ms_ != nullptr) unit_ms_->record(per_unit_ms);
  }
  return lock;
}

void CampaignExecutor::execute() {
  if (task_.base_config().steering.enabled()) {
    execute_steered();
    return;
  }
  const CampaignConfigBase& config = task_.base_config();
  const std::size_t units = task_.unit_count();
  const std::function<bool()> interrupted = drain_predicate(config);

  // All crash-safety bookkeeping lives in CampaignProgress (shared with
  // the fleet coordinator); the executor serializes access to it under
  // merge_mutex.
  CampaignProgress progress(task_, metrics_);
  progress.recover();

  // prepare() after resume validation: meta-files are (re)written
  // identically, calibration bounds recomputed deterministically.
  task_.prepare();
  progress.open();

  const CampaignRunner runner(config.jobs);
  const std::vector<CampaignShard> shards =
      CampaignRunner::shard_columns(units, runner.jobs());

  // Everything the workers publish goes through this mutex: journal
  // appends and fsyncs, payload/completion bookkeeping and the progress
  // line.
  std::mutex merge_mutex;
  ProgressLine line(config, units);
  const PackScheduler packs(task_);

  // Deferred absorb (DESIGN.md §12): a pack holds units {t, t+stride,
  // ...}, so units complete out of ascending order.  Journal frames,
  // unit counters and fsync cadence must still match
  // unit-at-a-time execution, so each shard absorbs from its own
  // ascending cursor (progress.absorb_ascending) and payloads the
  // cursor has not reached yet stay pending inside progress.
  if (shards.size() > 1) {
    ALFI_LOG(kInfo) << "parallel campaign: " << units << " units across "
                    << shards.size() << " shards (" << runner.jobs() << " jobs)";
  }
  const bool shared_model = shards.size() == 1;
  runner.run_shards(shards, [&](const CampaignShard& shard) {
    std::unique_ptr<CampaignUnitRunner> unit_runner;  // created lazily:
    // a fully-journaled shard never pays for a model replica.
    const Stopwatch shard_watch;
    std::size_t shard_computed = 0;
    std::size_t absorb_cursor = shard.begin;  // next unit to journal/count
    std::vector<std::size_t> pack;
    const auto open = [&](std::size_t u) {
      return u < shard.end && !progress.unit_completed(u);
    };
    for (std::size_t t = shard.begin; t < shard.end; ++t) {
      if (progress.unit_completed(t)) continue;  // replayed or pack-mate
      if (interrupted()) break;
      if (!unit_runner) unit_runner = task_.make_unit_runner(shared_model);
      packs.gather(t, open, pack);
      shard_computed += pack.size();
      const auto lock = compute_pack(*unit_runner, pack, progress, merge_mutex);
      absorb_cursor = progress.absorb_ascending(absorb_cursor, shard.end);
      line.update(progress.done());
    }
    if (metrics_ != nullptr && shard_computed > 0) {
      const double seconds = shard_watch.elapsed_seconds();
      metrics_->gauge("worker." + std::to_string(shard.index) + ".units_per_sec")
          .set(seconds <= 0.0 ? 0.0 : static_cast<double>(shard_computed) / seconds);
    }
  });
  line.update(progress.done(), /*final_line=*/true);

  // Drained: persist progress and surface the preemption.
  if (!progress.all_done()) progress.drain();
  progress.close();

  // ---- merge: ascending unit order restores the serial output order --------
  progress.merge();
}

// ---- steered execution (DESIGN.md §16) --------------------------------------

void CampaignExecutor::execute_steered() {
  const CampaignConfigBase& config = task_.base_config();
  const std::size_t units = task_.unit_count();
  const std::function<bool()> interrupted = drain_predicate(config);

  SteeredPlan plan(task_);
  CampaignProgress progress(task_, metrics_);
  progress.recover();
  task_.prepare();
  progress.open();

  const CampaignRunner runner(config.jobs);
  std::mutex merge_mutex;
  ProgressLine line(config, units, &plan.policy());
  const PackScheduler packs(task_);

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
  // count and pack size.  Resume replays the same loop; units already
  // journaled are recorded without being recomputed.
  bool drained = false;
  std::vector<std::size_t> todo;
  while (!drained) {
    if (interrupted()) { drained = true; break; }
    const std::vector<std::size_t> round = plan.policy().plan_round();
    if (round.empty()) break;
    todo.clear();
    for (const std::size_t t : round) {
      if (!progress.unit_completed(t)) todo.push_back(t);
    }
    const std::vector<CampaignShard> shards =
        CampaignRunner::shard_columns(todo.size(), runner.jobs());
    runner.run_shards(shards, [&](const CampaignShard& shard) {
      std::unique_ptr<CampaignUnitRunner>& unit_runner = runners[shard.index];
      // The shard's share of the round: todo[shard.begin, shard.end),
      // ascending, so packs gather from it like from an exhaustive shard.
      const auto first = todo.begin() + static_cast<std::ptrdiff_t>(shard.begin);
      const auto last = todo.begin() + static_cast<std::ptrdiff_t>(shard.end);
      const auto open = [&](std::size_t u) {
        return std::binary_search(first, last, u) && !progress.unit_completed(u);
      };
      std::vector<std::size_t> pack;
      for (auto it = first; it != last; ++it) {
        if (progress.unit_completed(*it)) continue;  // computed as a pack-mate
        if (interrupted()) break;
        if (!unit_runner) unit_runner = task_.make_unit_runner(shared_model);
        packs.gather(*it, open, pack);
        const auto lock = compute_pack(*unit_runner, pack, progress, merge_mutex);
        line.update(progress.done());
      }
    });
    drained = !plan.absorb_round(round, progress);
  }
  line.update(progress.done(), /*final_line=*/true);

  if (drained) progress.drain();
  progress.close();
  plan.finish(progress, metrics_);
}

}  // namespace alfi::core
