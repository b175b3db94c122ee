// Decomposition of the abstract gate alphabet into the IBM superconducting
// basis {Id, X, SX, RZ, CX} (the paper's target gate set), with exact
// global-phase tracking so transpiled circuits stay unitarily identical.
#pragma once

#include "circuit/circuit.h"

namespace qfab {

/// True when every gate of `qc` is a basis gate (is_basis_gate,
/// circuit/gate.h).
bool is_basis_circuit(const QuantumCircuit& qc);

/// Append the basis-gate expansion of `g` (which may already be a basis
/// gate) to `out`, updating out's global phase.
void decompose_gate(const Gate& g, QuantumCircuit& out);

/// Decompose a whole circuit. Registers and width are preserved.
QuantumCircuit decompose_to_basis(const QuantumCircuit& qc);

/// Append the two-CX "ABC" decomposition of controlled-U for an arbitrary
/// 2x2 unitary `u` (Nielsen & Chuang 4.2), fully expanded to basis gates.
void emit_controlled_unitary(const Matrix& u, int control, int target,
                             QuantumCircuit& out);

}  // namespace qfab
