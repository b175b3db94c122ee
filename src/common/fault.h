// QFAB_FAULT — deterministic fault injection for durability tests.
//
// Long-running sweeps claim crash-safety (journaled checkpoints, torn-write
// tolerance, numerical health guards); those claims are only worth anything
// if tests can *make* the failures happen. The QFAB_FAULT environment
// variable arms a comma-separated list of `key=value` directives that the
// journal writer (exp/journal.cpp) and the two state-vector apply paths
// consult: the scalar per-gate replay (StateVector::apply_circuit_range in
// sim/statevector.cpp) and the batched walk (apply_plan and
// apply_plan_range in sim/batch.cpp, run_trajectories_batched in
// noise/trajectory.cpp):
//
//   crash-after-unit=K   after the K-th unit record is durably appended to
//                        the sweep journal, hard-exit (kCrashExitCode) —
//                        simulates an OOM kill / power loss at a clean
//                        record boundary.
//   torn-write=K         write only a prefix of the K-th unit record's
//                        frame, then hard-exit — simulates a crash mid-
//                        write (trailing torn record on disk).
//   corrupt-crc=K        write the K-th unit record with a corrupted frame
//                        CRC, then hard-exit — simulates on-disk bit rot in
//                        the trailing record.
//   drain-after-unit=K   after the K-th unit record is appended, latch a
//                        graceful shutdown (common/shutdown.h) — simulates
//                        SIGINT without signal delivery, for in-process
//                        tests.
//   nan-at-gate=G        the next state-vector apply pass that covers
//                        original gate index G poisons one amplitude with a
//                        quiet NaN — exercises the numerical health
//                        sentinels and their scalar per-gate retry.
//   nan-count=N          how many times nan-at-gate fires (default 1, so a
//                        retried unit succeeds; -1 = every pass, so the
//                        point is persistently poisoned).
//
// All queries are negligible when QFAB_FAULT is unset: one relaxed atomic
// (or cached bool) load. Directives are parsed once per process; tests that
// stay in-process can re-arm via set_fault_spec_for_tests.
#pragma once

#include <cstddef>
#include <string>

namespace qfab::fault {

/// Exit code used by the crash directives; tests assert on it to tell an
/// injected crash from a genuine failure.
inline constexpr int kCrashExitCode = 86;

/// Re-parse the directive set from `spec` instead of the environment
/// (empty string disarms everything). Test-only; not thread-safe against
/// concurrent fault queries.
void set_fault_spec_for_tests(const std::string& spec);

/// 1-based unit-record ordinals for the journal-writer directives;
/// -1 when the directive is absent.
long crash_after_unit();
long torn_write_unit();
long corrupt_crc_unit();
long drain_after_unit();

/// Fast gate for the simulation hooks: true iff a nan-at-gate directive is
/// armed with charges remaining.
bool nan_fault_active();

/// Consume one nan-at-gate charge if the armed gate index lies in
/// [gate_begin, gate_end). Returns true when the caller should poison its
/// state now. Thread-safe; at most `nan-count` callers ever see true.
bool take_nan_charge(std::size_t gate_begin, std::size_t gate_end);

/// Flush a note to stderr and hard-exit with kCrashExitCode (no unwinding,
/// no atexit — the whole point is to die like a kill -9 would, modulo the
/// distinctive exit code).
[[noreturn]] void crash_now(const char* directive);

}  // namespace qfab::fault
