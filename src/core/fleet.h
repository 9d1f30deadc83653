// Distributed campaign fleet: a lease-based coordinator that farms
// contiguous unit ranges out to worker processes and merges their
// shipped results into outputs byte-identical to `--jobs 1`
// (DESIGN.md §14).
//
// Roles:
//   * FleetCoordinator — owns the campaign: resume recovery, the
//     journal and the final ordered merge (all through
//     CampaignProgress, shared with the threaded executor).  It leases
//     unit ranges to workers over a CRC32-framed TCP protocol
//     (io/socket.h), re-issues leases held by dead workers, and
//     absorbs shipped unit frames through one global ascending cursor
//     — so the journal it writes is byte-for-byte the journal a
//     checkpointed `--jobs 1` run would have written.
//   * FleetWorker — joins a coordinator, proves it is running the SAME
//     campaign (protocol version + fingerprint + task kind + unit count
//     handshake; a mismatched scenario, fault matrix or seed is
//     refused — nothing identifies the worker's binary), then loops:
//     request a lease, compute its units with the ordinary
//     CampaignUnitRunner pack machinery, and stream each completed unit
//     back as a frame byte-identical to the journal's kUnit frames.
//
// Failure model: any frame from a worker counts as liveness; a worker
// silent past lease_timeout_ms — or whose connection drops (SIGKILL
// closes the socket) — is declared dead and its lease range is
// recycled.  A falsely-dead worker's late frames produce duplicate
// completions, which the coordinator dedupes (first-complete wins,
// byte-equality asserted — determinism means divergent duplicate bytes
// can only be corruption).  Workers drain to the lease boundary: a
// SIGINT mid-pack finishes the current lease, ships everything
// computed, and exits — nothing computed is ever lost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/campaign_task.h"
#include "util/metrics.h"

namespace alfi::core {

// ---- wire protocol ----------------------------------------------------------

/// Fleet control message kinds (payload byte 0).  Disjoint from
/// io::JournalFrameKind (1, 2): a shipped unit result uses the
/// journal's own kUnit payload, unchanged, so values start at 16.
enum class FleetMsgKind : std::uint8_t {
  kHello = 16,         ///< worker→coord: proto version, fingerprint, units, kind
  kWelcome = 17,       ///< coord→worker: worker id, heartbeat cadence
  kRefuse = 18,        ///< coord→worker: handshake rejected (reason string)
  kLeaseRequest = 19,  ///< worker→coord: give me work
  kLeaseGrant = 20,    ///< coord→worker: unit range [begin, end)
  kNoWork = 21,        ///< coord→worker: campaign complete, disconnect
  kHeartbeat = 22,     ///< worker→coord: liveness (any frame also counts)
  kLeaseDone = 23,     ///< worker→coord: every unit of the lease shipped
  kBye = 24,           ///< worker→coord: leaving (graceful)
};

/// Bumped when the frame payloads change shape; a version-mismatched
/// worker is refused just like a fingerprint mismatch.
inline constexpr std::uint32_t kFleetProtocolVersion = 1;

/// Builds the kHello payload a worker opens its connection with.
/// Exposed for protocol tests (handshake refusal without a real worker).
std::string encode_fleet_hello(std::uint64_t fingerprint, std::uint64_t unit_count,
                               const std::string& task_kind);

/// Splits a "--fleet-worker host:port" spec; throws ConfigError when it
/// is malformed.
std::pair<std::string, std::uint16_t> parse_host_port(const std::string& spec);

// ---- lease table ------------------------------------------------------------

/// One leased range of campaign units, [begin, end).
struct LeaseRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool empty() const { return begin >= end; }
  std::size_t size() const { return end - begin; }
};

/// Grantable-work bookkeeping for the coordinator.  Seeded with the
/// executor's own deterministic contiguous sharding
/// (CampaignRunner::shard_columns) capped at lease_units per range;
/// dead workers' ranges come back through recycle().  At grant time a
/// range is trimmed of leading already-completed units and split around
/// interior ones (both happen after a resume or a re-issue), so a grant
/// is always a maximal contiguous run of incomplete units within one
/// queued range, capped at lease_units.
class LeaseTable {
 public:
  using CompletedFn = std::function<bool(std::size_t unit)>;

  /// `units == 0` builds an empty table a steered coordinator refills
  /// round by round through seed().
  LeaseTable(std::size_t units, std::size_t lease_units);

  /// Appends ranges to the back of the queue.  The steered round loop
  /// leases exactly the round's planned units: workers block on their
  /// lease requests while the queue is empty (the round barrier) and
  /// resume as soon as the next round is seeded — the worker protocol
  /// needs no steering awareness at all.
  void seed(const std::vector<LeaseRange>& ranges);

  /// Next grantable range; empty when no queued work remains (there may
  /// still be outstanding leases in flight).
  LeaseRange grant(const CompletedFn& completed);

  /// Requeues (the remainder of) a dead or drained worker's lease, at
  /// the front so re-issued work finishes first and the global absorb
  /// cursor can keep advancing.
  void recycle(LeaseRange range);

  std::size_t queued_ranges() const { return queue_.size(); }

 private:
  std::deque<LeaseRange> queue_;
  std::size_t lease_units_;
};

// ---- worker -----------------------------------------------------------------

/// What a worker did before disconnecting.
struct FleetWorkerStats {
  std::size_t units_computed = 0;
  std::size_t leases_served = 0;
  /// A drain request arrived; the worker finished its lease, shipped
  /// everything and left early.  The coordinator keeps going.
  bool drained = false;
};

/// One worker process's campaign half: handshake, lease loop, unit
/// streaming.  Runs no merge and writes no campaign outputs.
class FleetWorker {
 public:
  /// `prepared` — the task's prepare() already ran in this process
  /// (true for coordinator-forked workers, which inherit the prepared
  /// model; false for a standalone `--fleet-worker` process).
  FleetWorker(CampaignTask& task, std::string host, std::uint16_t port,
              bool prepared);

  /// Throws ConfigError when the coordinator refuses the handshake,
  /// IoError when the connection dies.
  FleetWorkerStats run();

 private:
  CampaignTask& task_;
  std::string host_;
  std::uint16_t port_;
  bool prepared_;
};

// ---- coordinator ------------------------------------------------------------

/// Campaign-owning side of the fleet.  Drop-in alternative to
/// CampaignExecutor::execute() for a task whose config enables
/// fleet coordinator mode; requires a checkpoint directory (shipped
/// unit frames land in the same journal a local run would write).
///
/// Telemetry (under the task's registry): fleet.workers_joined,
/// fleet.workers_refused, fleet.worker_deaths, fleet.leases_granted,
/// fleet.leases_reissued, fleet.duplicate_units — plus every counter
/// CampaignProgress maintains for a local run.
class FleetCoordinator {
 public:
  explicit FleetCoordinator(CampaignTask& task,
                            util::MetricsRegistry* metrics = nullptr);

  /// Runs the campaign to completion (or drains to its journal, throwing
  /// CampaignInterrupted — re-run with resume=true to finish).
  void execute();

 private:
  CampaignTask& task_;
  util::MetricsRegistry* metrics_;
};

}  // namespace alfi::core
