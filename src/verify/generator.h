// Seeded random case generation for the differential verifier.
//
// Each case is a random circuit over the transpiled basis {Id, X, RZ, SX,
// CX} mixed with pre-decomposition gates {CP, CCP, H, CH} (the alphabet the
// QFT/adder builders emit before transpilation), plus the engine-matrix
// parameters that vary per case: the batched lane count, the mid-circuit
// split site exercising subrange plans, and the depolarizing rate of the
// exact-channel run. Everything is a pure function of (root seed, case
// index), so any failure reproduces from those two numbers alone.
#pragma once

#include <cstddef>
#include <cstdint>

#include "circuit/circuit.h"

namespace qfab::verify {

struct GeneratorOptions {
  /// Width range. The density-matrix engine evolves 4^n entries per case,
  /// so the default cap stays small.
  int min_qubits = 2;
  int max_qubits = 6;
  int min_gates = 4;
  int max_gates = 48;
};

/// One generated (or loaded-from-repro) verification case.
struct VerifyCase {
  std::uint64_t root_seed = 0;
  std::size_t index = 0;
  QuantumCircuit circuit;
  /// Lane count for the batched engine (1..8 when generated).
  int lanes = 1;
  /// Gate index splitting range execution (0..gate count); the batched
  /// engines run the transpiled case, split at this site scaled to its gate
  /// count: [0, split) then [split, end), which lands mid-op often enough
  /// to exercise subrange_plan compilation.
  std::size_t split_gate = 0;
  /// Depolarizing parameter (attached to every transpiled gate) of the
  /// exact-channel density-matrix run.
  double depolarizing_p = 0.0;
};

/// Deterministic case for (root_seed, index).
VerifyCase generate_case(std::uint64_t root_seed, std::size_t index,
                         const GeneratorOptions& options = {});

}  // namespace qfab::verify
