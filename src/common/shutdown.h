// Graceful-shutdown latch for long-running sweeps.
//
// The paper-scale figure runs are hours of batch work; Ctrl-C or a SIGTERM
// from a job scheduler should not discard everything computed so far. The
// latch turns the first SIGINT/SIGTERM into a *drain request*: the sweep
// loop (exp/sweep.cpp) polls shutdown_requested() before starting each
// work unit, finishes the units already in flight, flushes the checkpoint
// journal, and returns an incomplete-but-resumable result. A second signal
// hard-exits immediately (exit code 130) for when the user really means it.
//
// The handler itself only touches a lock-free atomic — async-signal-safe by
// construction. request_shutdown() latches the same flag programmatically
// (used by the drain-after-unit fault directive and by tests).
#pragma once

namespace qfab {

/// Exit code a bench returns when a drained (or timed-out) sweep left a
/// resumable journal behind: BSD EX_TEMPFAIL, "try again later".
inline constexpr int kResumableExitCode = 75;

/// Install the SIGINT/SIGTERM latch handlers (idempotent). Call once from
/// a binary's main before starting sweep work; library code never installs
/// handlers on its own.
void install_shutdown_latch();

/// True once a drain has been requested (signal or programmatic).
bool shutdown_requested();

/// Latch a drain request without a signal.
void request_shutdown();

/// Clear the latch (test-only: lets one process drain, resume, and drain
/// again).
void reset_shutdown_latch_for_tests();

}  // namespace qfab
