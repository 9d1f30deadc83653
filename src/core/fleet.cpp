#include "core/fleet.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "io/socket.h"
#include "util/drain.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace alfi::core {

namespace {

using io::ByteReader;
using io::ByteWriter;

std::string encode_kind(FleetMsgKind kind) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(kind));
  return w.take();
}

std::string encode_refuse(const std::string& reason) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(FleetMsgKind::kRefuse));
  w.write_string(reason);
  return w.take();
}

std::string encode_welcome(std::uint64_t worker_id, double heartbeat_ms) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(FleetMsgKind::kWelcome));
  w.write_u64(worker_id);
  w.write_f64(heartbeat_ms);
  return w.take();
}

std::string encode_lease(FleetMsgKind kind, const LeaseRange& range) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(kind));
  w.write_u64(range.begin);
  w.write_u64(range.end);
  return w.take();
}

/// A shipped unit uses the journal's own kUnit payload, unchanged —
/// the coordinator can hand it straight to the journal writer.
std::string encode_unit(std::size_t unit, std::string_view payload) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(io::JournalFrameKind::kUnit));
  w.write_u64(unit);
  w.write_bytes(payload);
  return w.take();
}

/// Blocks until one complete frame arrives; throws IoError on EOF.
std::string recv_frame(io::Socket& sock, io::FrameDecoder& decoder) {
  std::string payload;
  while (!decoder.next(&payload)) {
    char buf[4096];
    const std::size_t n = sock.recv_some(buf, sizeof buf);
    if (n == 0) throw IoError("fleet coordinator closed the connection");
    decoder.feed(buf, n);
  }
  return payload;
}

}  // namespace

std::string encode_fleet_hello(std::uint64_t fingerprint, std::uint64_t unit_count,
                               const std::string& task_kind) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(FleetMsgKind::kHello));
  w.write_u32(kFleetProtocolVersion);
  w.write_u64(fingerprint);
  w.write_u64(unit_count);
  w.write_string(task_kind);
  return w.take();
}

std::pair<std::string, std::uint16_t> parse_host_port(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw ConfigError("expected host:port, got \"" + spec + "\"");
  }
  const std::string host = spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
    throw ConfigError("invalid port in \"" + spec + "\"");
  }
  return {host, static_cast<std::uint16_t>(port)};
}

// ---- lease table ------------------------------------------------------------

LeaseTable::LeaseTable(std::size_t units, std::size_t lease_units)
    : lease_units_(std::max<std::size_t>(1, lease_units)) {
  if (units == 0) return;
  // Reuse the executor's deterministic contiguous sharding so lease
  // geometry is a pure function of (units, lease_units), independent
  // of worker count or arrival order.
  const std::size_t ranges = (units + lease_units_ - 1) / lease_units_;
  for (const CampaignShard& shard :
       CampaignRunner::shard_columns(units, ranges)) {
    queue_.push_back({shard.begin, shard.end});
  }
}

void LeaseTable::seed(const std::vector<LeaseRange>& ranges) {
  for (const LeaseRange& range : ranges) {
    if (!range.empty()) queue_.push_back(range);
  }
}

LeaseRange LeaseTable::grant(const CompletedFn& completed) {
  while (!queue_.empty()) {
    LeaseRange range = queue_.front();
    queue_.pop_front();
    // Trim leading completed units (a recycled lease was partially
    // shipped before its worker died; a resumed campaign replayed some).
    while (range.begin < range.end && completed(range.begin)) ++range.begin;
    if (range.empty()) continue;
    // Grant the maximal contiguous incomplete run, capped at
    // lease_units; split the remainder (if any) back to the front so
    // the global absorb cursor chases the lowest incomplete units.
    std::size_t end = range.begin;
    while (end < range.end && !completed(end) &&
           end - range.begin < lease_units_) {
      ++end;
    }
    if (end < range.end) queue_.push_front({end, range.end});
    return {range.begin, end};
  }
  return {};
}

void LeaseTable::recycle(LeaseRange range) {
  if (!range.empty()) queue_.push_front(range);
}

// ---- worker -----------------------------------------------------------------

FleetWorker::FleetWorker(CampaignTask& task, std::string host, std::uint16_t port,
                         bool prepared)
    : task_(task), host_(std::move(host)), port_(port), prepared_(prepared) {}

FleetWorkerStats FleetWorker::run() {
  const CampaignConfigBase& config = task_.base_config();
  const std::function<bool()> interrupted = drain_predicate(config);
  if (!prepared_) task_.prepare();

  io::Socket sock = io::connect_tcp(host_, port_);
  io::FrameDecoder decoder;
  io::send_frame(sock, encode_fleet_hello(task_.fingerprint(), task_.unit_count(),
                                          task_.task_kind()));
  double heartbeat_ms = config.fleet.heartbeat_ms;
  {
    const std::string reply = recv_frame(sock, decoder);
    ByteReader r(reply);
    const auto kind = static_cast<FleetMsgKind>(r.read_u8());
    if (kind == FleetMsgKind::kRefuse) {
      throw ConfigError("fleet coordinator refused this worker: " +
                        r.read_string());
    }
    if (kind != FleetMsgKind::kWelcome) {
      throw ParseError("unexpected handshake reply from fleet coordinator");
    }
    r.read_u64();                // worker id (informational)
    heartbeat_ms = r.read_f64();  // the coordinator's cadence wins
  }

  // The executor's pack scheduler, so a worker computes a unit exactly
  // the way a local run would.
  const PackScheduler packs(task_);

  std::unique_ptr<CampaignUnitRunner> runner;  // lazy: a refused or
  // no-work worker never pays for runner setup.
  IntervalTimer heartbeat(heartbeat_ms);
  FleetWorkerStats stats;
  std::vector<std::size_t> pack_units;
  std::vector<char> served;  // per-lease pack-mate marks
  LeaseRange lease;
  const auto open = [&](std::size_t u) {
    return u < lease.end && !served[u - lease.begin];
  };

  while (true) {
    if (interrupted()) {
      stats.drained = true;
      break;
    }
    // Between leases the coordinator owes this worker nothing, so a
    // connection dropped here means it finished: the final absorb can
    // race our next request past the best-effort kNoWork.  Mid-lease
    // drops (below) still propagate — there the campaign lost work.
    std::string reply;
    try {
      io::send_frame(sock, encode_kind(FleetMsgKind::kLeaseRequest));
      reply = recv_frame(sock, decoder);
    } catch (const IoError&) {
      break;
    }
    ByteReader r(reply);
    const auto kind = static_cast<FleetMsgKind>(r.read_u8());
    if (kind == FleetMsgKind::kNoWork) break;
    if (kind != FleetMsgKind::kLeaseGrant) {
      throw ParseError("unexpected frame while waiting for a lease grant");
    }
    lease.begin = static_cast<std::size_t>(r.read_u64());
    lease.end = static_cast<std::size_t>(r.read_u64());
    if (lease.begin >= lease.end || lease.end > task_.unit_count()) {
      throw ParseError("fleet lease grant outside the campaign's units");
    }

    if (!runner) runner = task_.make_unit_runner(/*shared_model=*/true);
    served.assign(lease.size(), 0);
    // Drain-to-lease-boundary: a drain request arriving anywhere in
    // here (even mid-pack) finishes the WHOLE lease first — every
    // computed payload ships, the coordinator re-leases nothing.
    for (std::size_t t = lease.begin; t < lease.end; ++t) {
      if (served[t - lease.begin]) continue;  // pack-mate already shipped
      packs.gather(t, open, pack_units);
      std::vector<std::string> batch = runner->run_unit_pack(pack_units);
      ALFI_CHECK(batch.size() == pack_units.size(),
                 "unit runner returned a wrong-sized payload batch");
      for (std::size_t i = 0; i < batch.size(); ++i) {
        io::send_frame(sock, encode_unit(pack_units[i], batch[i]));
        served[pack_units[i] - lease.begin] = 1;
        ++stats.units_computed;
      }
      if (heartbeat.due()) {
        io::send_frame(sock, encode_kind(FleetMsgKind::kHeartbeat));
      }
    }
    io::send_frame(sock, encode_lease(FleetMsgKind::kLeaseDone, lease));
    ++stats.leases_served;
  }

  try {
    io::send_frame(sock, encode_kind(FleetMsgKind::kBye));
  } catch (const IoError&) {
    // Coordinator may already have closed after kNoWork — fine.
  }
  return stats;
}

// ---- coordinator ------------------------------------------------------------

namespace {

/// Per-connection coordinator state.
struct Conn {
  explicit Conn(io::Socket s) : sock(std::move(s)) {}
  io::Socket sock;
  io::FrameDecoder decoder;
  bool active = false;      ///< handshake accepted
  bool closed = false;      ///< remove after this loop iteration
  bool graceful = false;    ///< closed via kBye, not death
  bool want_lease = false;  ///< kLeaseRequest pending a grant
  bool has_lease = false;
  LeaseRange lease;
  Stopwatch last_seen;
};

}  // namespace

FleetCoordinator::FleetCoordinator(CampaignTask& task,
                                   util::MetricsRegistry* metrics)
    : task_(task), metrics_(metrics) {}

void FleetCoordinator::execute() {
  const CampaignConfigBase& config = task_.base_config();
  const FleetOptions& fleet = config.fleet;
  const std::size_t units = task_.unit_count();
  if (config.checkpoint_dir.empty()) {
    throw ConfigError(
        "fleet coordinator mode requires --checkpoint: shipped unit "
        "frames are merged through the journal");
  }
  const std::function<bool()> interrupted = drain_predicate(config);

  // Steered mode (DESIGN.md §16): the coordinator runs the planning
  // loop, leasing exactly the planned rounds; the worker side is the
  // ordinary lease protocol, completely unchanged.
  std::optional<SteeredPlan> plan;
  if (config.steering.enabled()) plan.emplace(task_);

  util::Counter* workers_joined = nullptr;
  util::Counter* workers_refused = nullptr;
  util::Counter* worker_deaths = nullptr;
  util::Counter* leases_granted = nullptr;
  util::Counter* leases_reissued = nullptr;
  util::Counter* duplicate_units = nullptr;
  if (metrics_ != nullptr) {
    workers_joined = &metrics_->counter("fleet.workers_joined");
    workers_refused = &metrics_->counter("fleet.workers_refused");
    worker_deaths = &metrics_->counter("fleet.worker_deaths");
    leases_granted = &metrics_->counter("fleet.leases_granted");
    leases_reissued = &metrics_->counter("fleet.leases_reissued");
    duplicate_units = &metrics_->counter("fleet.duplicate_units");
  }

  CampaignProgress progress(task_, metrics_);
  progress.recover();
  task_.prepare();
  progress.open();

  io::Listener listener(fleet.listen_port);
  ALFI_LOG(kInfo) << "fleet coordinator listening on 127.0.0.1:"
                  << listener.port() << " (" << units << " units, lease cap "
                  << fleet.lease_units << ")";
  if (fleet.on_listen) fleet.on_listen(listener.port());

  // Steered: start empty, refill with each planned round.
  LeaseTable table(plan ? 0 : units, fleet.lease_units);
  const auto completed_fn = [&](std::size_t unit) {
    return progress.unit_completed(unit);
  };

  // ---- local workers: fork after prepare() so children inherit the
  // trained model and calibration — spawn cost is one fork().
  std::vector<int> child_pids;
  for (std::size_t i = 0; i < fleet.local_workers; ++i) {
    const int pid = ::fork();
    if (pid < 0) throw IoError("cannot fork local fleet worker");
    if (pid == 0) {
      // Child: become a worker against the parent's listener.  _exit()
      // (not exit()) so gtest/atexit state of the parent never runs
      // twice.
      try {
        reset_drain_request();
        FleetWorker worker(task_, "127.0.0.1", listener.port(),
                           /*prepared=*/true);
        const FleetWorkerStats stats = worker.run();
        ::_exit(stats.drained ? kDrainExitCode : 0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[alfi] fleet worker failed: %s\n", e.what());
        ::_exit(1);
      }
    }
    child_pids.push_back(pid);
    if (fleet.on_local_spawn) fleet.on_local_spawn(pid);
  }

  std::vector<std::unique_ptr<Conn>> conns;
  std::uint64_t next_worker_id = 1;

  const auto disconnect = [&](Conn& conn, bool death) {
    if (conn.closed) return;
    conn.closed = true;
    conn.graceful = !death;
    if (conn.has_lease) {
      table.recycle(conn.lease);
      conn.has_lease = false;
      if (leases_reissued != nullptr) leases_reissued->add();
      ALFI_LOG(kWarn) << "fleet: re-issuing lease [" << conn.lease.begin << ", "
                      << conn.lease.end << ") from a "
                      << (death ? "dead" : "departed") << " worker";
    }
    // A peer that never joined is no worker: it held no lease to lose.
    if (death && conn.active && worker_deaths != nullptr) worker_deaths->add();
    conn.sock.close();
  };

  const auto handle_frame = [&](Conn& conn, const std::string& payload) {
    ByteReader r(payload);
    const std::uint8_t raw_kind = r.read_u8();
    if (raw_kind == static_cast<std::uint8_t>(io::JournalFrameKind::kUnit)) {
      const std::size_t unit = static_cast<std::size_t>(r.read_u64());
      // Only a joined worker computes units, and only those it leased.
      if (!conn.active || !conn.has_lease || unit < conn.lease.begin ||
          unit >= conn.lease.end) {
        if (workers_refused != nullptr) workers_refused->add();
        throw ParseError("unit frame outside the sender's lease");
      }
      // The remaining bytes are the task payload, exactly as a local
      // run would journal them.
      if (!progress.store(unit, payload.substr(1 + 8))) {
        if (duplicate_units != nullptr) duplicate_units->add();
      }
      return;
    }
    switch (static_cast<FleetMsgKind>(raw_kind)) {
      case FleetMsgKind::kHello: {
        const std::uint32_t version = r.read_u32();
        const std::uint64_t fingerprint = r.read_u64();
        const std::uint64_t unit_count = r.read_u64();
        const std::string kind = r.read_string();
        std::string refuse;
        if (version != kFleetProtocolVersion) {
          refuse = "fleet protocol version mismatch";
        } else if (kind != task_.task_kind()) {
          refuse = "task kind mismatch (worker runs " + kind + ")";
        } else if (unit_count != units) {
          refuse = "unit count mismatch";
        } else if (fingerprint != task_.fingerprint()) {
          refuse =
              "campaign fingerprint mismatch (scenario, fault matrix, seed "
              "or payload-affecting config differs)";
        }
        if (!refuse.empty()) {
          ALFI_LOG(kWarn) << "fleet: refusing worker: " << refuse;
          if (workers_refused != nullptr) workers_refused->add();
          try {
            io::send_frame(conn.sock, encode_refuse(refuse));
          } catch (const IoError&) {
          }
          disconnect(conn, /*death=*/false);
          return;
        }
        conn.active = true;
        if (workers_joined != nullptr) workers_joined->add();
        io::send_frame(conn.sock,
                       encode_welcome(next_worker_id++, fleet.heartbeat_ms));
        return;
      }
      case FleetMsgKind::kLeaseRequest:
        conn.want_lease = true;
        return;
      case FleetMsgKind::kHeartbeat:
        return;  // last_seen was already reset by the read loop
      case FleetMsgKind::kLeaseDone:
        conn.has_lease = false;
        return;
      case FleetMsgKind::kBye:
        disconnect(conn, /*death=*/false);
        return;
      default:
        throw ParseError("unknown fleet message kind");
    }
  };

  ProgressLine line(config, units, plan ? &plan->policy() : nullptr);

  // One poll iteration: accept joiners, ingest frames, detect dead
  // workers, reap children, grant queued leases.  Shared verbatim by
  // the exhaustive loop (which also advances the absorb cursor) and the
  // steered round loop (which absorbs only at round barriers).
  const auto pump = [&] {
    std::vector<::pollfd> fds;
    fds.reserve(1 + conns.size());
    fds.push_back({listener.fd(), POLLIN, 0});
    for (const auto& conn : conns) fds.push_back({conn->sock.fd(), POLLIN, 0});
    const int ready = ::poll(fds.data(), static_cast<::nfds_t>(fds.size()), 20);
    if (ready < 0 && errno != EINTR) {
      throw IoError(std::string("fleet poll failed: ") + std::strerror(errno));
    }

    if (ready > 0) {
      if (fds[0].revents & POLLIN) {
        conns.push_back(std::make_unique<Conn>(listener.accept_connection()));
      }
      for (std::size_t i = 0; i + 1 < fds.size() && i < conns.size(); ++i) {
        Conn& conn = *conns[i];
        if (conn.closed || !(fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR))) {
          continue;
        }
        char buf[65536];
        std::size_t n = 0;
        try {
          n = conn.sock.recv_some(buf, sizeof buf);
        } catch (const IoError&) {
          n = 0;
        }
        if (n == 0) {  // EOF: SIGKILLed worker, dropped link
          disconnect(conn, /*death=*/true);
          continue;
        }
        conn.last_seen.reset();
        conn.decoder.feed(buf, n);
        try {
          std::string payload;
          while (!conn.closed && conn.decoder.next(&payload)) {
            handle_frame(conn, payload);
          }
        } catch (const Error& e) {
          ALFI_LOG(kWarn) << "fleet: dropping worker (bad frame: " << e.what()
                          << ")";
          disconnect(conn, /*death=*/true);
        }
      }
    }

    // Liveness: a leased worker silent past the timeout is dead even if
    // its socket never closed (hung host, dropped link).
    for (const auto& conn : conns) {
      if (!conn->closed && conn->has_lease &&
          conn->last_seen.elapsed_ms() > fleet.lease_timeout_ms) {
        ALFI_LOG(kWarn) << "fleet: worker heartbeat timed out after "
                        << fleet.lease_timeout_ms << " ms";
        disconnect(*conn, /*death=*/true);
      }
    }

    // Reap exited children so SIGKILLed workers never linger as
    // zombies (their death is observed via socket EOF above).
    while (::waitpid(-1, nullptr, WNOHANG) > 0) {
    }

    // Grants: serve waiting workers from the lease queue.
    for (const auto& conn : conns) {
      if (conn->closed || !conn->active || !conn->want_lease) continue;
      const LeaseRange lease = table.grant(completed_fn);
      if (lease.empty()) break;  // nothing queued right now; keep waiting
      io::send_frame(conn->sock, encode_lease(FleetMsgKind::kLeaseGrant, lease));
      conn->want_lease = false;
      conn->has_lease = true;
      conn->lease = lease;
      conn->last_seen.reset();
      if (leases_granted != nullptr) leases_granted->add();
    }

    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& c) {
                                 return c->closed;
                               }),
                conns.end());
  };

  bool drained = false;
  if (!plan) {
    // One global ascending absorb cursor: the coordinator journals unit
    // frames in strictly ascending order no matter how leases
    // interleave, so the journal is byte-identical to a checkpointed
    // --jobs 1 run.
    std::size_t cursor = 0;
    while (!progress.all_done()) {
      if (interrupted()) {
        drained = true;
        break;
      }
      pump();
      cursor = progress.absorb_ascending(cursor, units);
      if (fleet.on_progress) fleet.on_progress(progress.done());
      line.update(progress.done());
    }
  } else {
    // The same planning loop as the threaded executor: each round's
    // unit list depends only on outcomes absorbed at prior barriers,
    // never on lease interleaving, so the executed sequence — and the
    // vulnerability map — is byte-identical to a local steered run.
    std::vector<LeaseRange> round_ranges;
    while (!drained) {
      if (interrupted()) { drained = true; break; }
      const std::vector<std::size_t> round = plan->policy().plan_round();
      if (round.empty()) break;
      // Lease only units the journal has not already replayed,
      // coalesced into contiguous ranges (grant() re-caps them at
      // lease_units).
      round_ranges.clear();
      std::size_t outstanding = 0;
      for (const std::size_t t : round) {
        if (progress.unit_completed(t)) continue;
        ++outstanding;
        if (!round_ranges.empty() && round_ranges.back().end == t) {
          ++round_ranges.back().end;
        } else {
          round_ranges.push_back({t, t + 1});
        }
      }
      table.seed(round_ranges);
      while (outstanding > 0) {
        if (interrupted()) { drained = true; break; }
        pump();
        outstanding = 0;
        for (const std::size_t t : round) {
          if (!progress.unit_completed(t)) ++outstanding;
        }
        line.update(progress.done());
      }
      if (!plan->absorb_round(round, progress)) drained = true;
      if (fleet.on_progress) fleet.on_progress(progress.done());
    }
  }
  line.update(progress.done(), /*final_line=*/true);

  // Tell every remaining worker the campaign is over (best effort) and
  // drop the connections.
  for (const auto& conn : conns) {
    if (conn->closed) continue;
    try {
      io::send_frame(conn->sock, encode_kind(FleetMsgKind::kNoWork));
    } catch (const IoError&) {
    }
    conn->sock.close();
  }
  conns.clear();
  for (const int pid : child_pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);  // ECHILD for already-reaped — fine
  }

  // Drained: whatever was stored past the cursor (holes from re-leased
  // ranges) is journaled so resume replays instead of recomputing it.
  if (drained) progress.drain();

  progress.close();
  if (plan) {
    plan->finish(progress, metrics_);
  } else {
    progress.merge();
  }
}

}  // namespace alfi::core
