// Transpilation entry point: abstract circuit -> IBM basis circuit,
// peephole-optimized as Qiskit 0.31 does at level 1 (the paper's settings).
#pragma once

#include "circuit/circuit.h"
#include "transpile/decompose.h"
#include "transpile/optimize.h"

namespace qfab {

struct TranspileReport {
  QuantumCircuit circuit;
  GateCounts counts;          // of the final circuit
  OptimizeStats optimize;
};

/// Decompose `qc` into {id, x, sx, rz, cx}, then run the level-1 peephole
/// (optimize_basis_circuit), which reproduces the paper's Table I counts.
/// The result is unitarily identical to `qc` (global phase included).
TranspileReport transpile(const QuantumCircuit& qc);

/// Shorthand returning just the circuit.
QuantumCircuit transpile_to_basis(const QuantumCircuit& qc);

}  // namespace qfab
