// Graceful preemption for long campaigns.
//
// A SIGINT/SIGTERM received mid-campaign should not kill the process in
// the middle of a work unit: with checkpointing enabled the run can
// instead *drain* — finish the in-flight columns, flush and fsync the
// journal, and exit with a distinct code so schedulers
// (and humans) know the campaign is resumable, not failed.
//
// The handler only sets a flag; the campaign executor polls
// drain_requested() between work units.  A second signal falls back to
// the default disposition (immediate termination) so an impatient ^C^C
// still works.
//
// Re-entrancy: a fleet worker process serves many leases (and a test
// binary runs many campaigns), so the machinery must survive repeated
// use in one process.  install_drain_handlers() always (re-)arms the
// handlers — after a first signal fired, the disposition fell back to
// SIG_DFL, and a later campaign in the same process must not die on the
// next ^C just because an earlier one was drained.  Pair it with
// reset_drain_request() at each campaign/lease boundary.
#pragma once

namespace alfi {

/// Installs SIGINT/SIGTERM handlers that request a graceful drain.
/// Idempotent AND re-arming: safe to call before every campaign or
/// lease; a disposition reset to SIG_DFL by an earlier first signal is
/// restored to the drain handler.
void install_drain_handlers();

/// True once SIGINT or SIGTERM was received (or request_drain() called).
bool drain_requested();

/// Programmatic drain request — same effect as receiving a signal.
void request_drain();

/// Clears the flag (between campaigns in one process, and in tests).
void reset_drain_request();

/// Exit code for "campaign drained to checkpoint, resume to finish"
/// (EX_TEMPFAIL: transient condition, retrying will succeed).
inline constexpr int kDrainExitCode = 75;

}  // namespace alfi
