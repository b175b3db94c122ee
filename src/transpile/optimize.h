// Peephole optimization of basis circuits.
//
// Mirrors what Qiskit 0.31's level-1 transpiler does to the paper's
// circuits, and so reproduces its Table I counts: merge runs of RZ, fold
// X·X and SX·SX, drop full-turn rotations, and cancel CX pairs, each only
// across literally adjacent gates on a wire (a gate on another wire never
// blocks; any gate on the same wire does). All rewrites are exactly
// phase-tracked, so optimized circuits remain unitarily identical — a
// property the test suite checks on random circuits.
#pragma once

#include "circuit/circuit.h"

namespace qfab {

struct OptimizeStats {
  std::size_t rz_merged = 0;      // RZ gates folded into a neighbor
  std::size_t rz_removed = 0;     // RZ gates that became (-)identity
  std::size_t cx_cancelled = 0;   // CX gates removed (counts both of a pair)
  std::size_t passes = 0;
};

/// Optimize in place; returns rewrite statistics. Requires a basis circuit
/// (every gate in {id, x, sx, rz, cx}).
OptimizeStats optimize_basis_circuit(QuantumCircuit& qc);

}  // namespace qfab
