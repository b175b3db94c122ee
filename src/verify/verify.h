// Differential verification driver.
//
// Runs a seeded stream of random cases (verify/generator.h) through the
// full engine matrix (verify/engines.h) in parallel, greedily minimizes
// any failure (verify/shrink.h), and dumps a deterministic repro per
// failure (verify/repro.h). This is the correctness backstop every
// performance PR replays against: a kernel or plan rewrite that changes
// any engine's distribution by more than 1e-10 shows up as a minimized
// QASM file and a nonzero exit from tools/qfab_verify.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "verify/engines.h"
#include "verify/generator.h"

namespace qfab::verify {

struct VerifyOptions {
  std::uint64_t seed = 1;
  std::size_t cases = 200;
  GeneratorOptions generator;
  EngineOptions engines;
  /// Stop scheduling new cases once this many failures are recorded.
  std::size_t max_failures = 8;
  /// Repro dump directory ("" disables dumping).
  std::string failure_dir = "results/verify_failures";
};

struct CaseFailure {
  std::size_t index = 0;
  std::string summary;           // failure from the engine matrix
  std::string repro_path;        // "" when dumping is disabled
  std::size_t shrunk_gates = 0;  // minimized circuit size
  int shrunk_qubits = 0;
};

struct VerifyReport {
  std::size_t cases_run = 0;
  std::vector<CaseFailure> failures;  // ordered by case index
  bool ok() const { return failures.empty(); }
};

/// Run the full matrix over `cases` seeded cases (parallel over the shared
/// thread pool).
VerifyReport run_verification(const VerifyOptions& options);

/// Replay one dumped repro file. Returns "" when it now passes, else the
/// current failure description.
std::string run_repro(const std::string& path, const EngineOptions& options);

/// Human-readable report (one line per failure + verdict).
void print_report(std::ostream& os, const VerifyReport& report);

}  // namespace qfab::verify
