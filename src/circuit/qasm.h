// OpenQASM 2.0 interoperability.
//
// Export targets the classic qelib1 alphabet (p -> u1, cp -> cu1, CCP
// emitted as its standard 5-gate cu1/cx expansion), so the output loads
// in Qiskit/Aer directly — useful for cross-checking this library's
// circuits against the paper's original toolchain. Import parses the same
// subset (multiple qregs, angle expressions over pi, comments, barriers)
// and is round-trip tested against export at the unitary level.
#pragma once

#include <string>

#include "circuit/circuit.h"

namespace qfab {

/// Serialize to OpenQASM 2.0. Registers are preserved by name; a circuit
/// without registers gets a single register "q".
std::string to_qasm(const QuantumCircuit& qc);

/// Parse an OpenQASM 2.0 program (the subset documented above). Throws
/// CheckError with a line diagnostic on unsupported constructs.
QuantumCircuit from_qasm(const std::string& text);

}  // namespace qfab
