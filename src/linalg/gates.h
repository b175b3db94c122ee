// Canonical gate matrices.
//
// Single source of truth for gate semantics: the circuit IR, the transpiler,
// the fast simulator kernels, and every test are validated against these
// matrices. Conventions follow Qiskit (little-endian; RZ(θ) = diag(e^{-iθ/2},
// e^{iθ/2}); P(θ) = diag(1, e^{iθ}); controlled gates put the control on the
// *higher* gate-local bit, i.e. qubit order (target, control) when embedding).
#pragma once

#include "linalg/matrix.h"

namespace qfab::gates {

// ---- one-qubit -----------------------------------------------------------

Matrix I();
Matrix X();
Matrix Y();
Matrix Z();
Matrix H();
Matrix SX();      // sqrt(X), IBM basis gate
Matrix SXdg();
Matrix RZ(double theta);   // exp(-i θ Z / 2)
Matrix P(double lambda);   // phase gate diag(1, e^{iλ})

/// The paper's R_l: P(2π / 2^l).
Matrix R_l(int l);

// ---- two-qubit (gate-local bit 0 = target, bit 1 = control) ---------------

Matrix CX();
Matrix CP(double lambda);
Matrix CH();
Matrix SWAP();
Matrix CRl(int l);  // controlled R_l == CP(2π/2^l)

// ---- three-qubit (bit 0 = target, bits 1,2 = controls) --------------------

Matrix CCP(double lambda);

/// Generic single-controlled version of a k-qubit unitary: control becomes
/// the highest gate-local bit.
Matrix controlled(const Matrix& u);

}  // namespace qfab::gates
