// Gate IR.
//
// A Gate is a flat POD-like record (kind + up to three qubits + at most one
// real parameter) so circuits stay cache-friendly: the noisy sweeps replay
// circuits of a few thousand gates millions of times.
//
// The kinds are what the paper's circuits need: the IBM basis the
// transpiler targets, the gates the QFT/QFA/QFM builders emit, the router's
// SWAP, and SXdg, the inverse of SX.
#pragma once

#include <array>
#include <string>

#include "linalg/matrix.h"

namespace qfab {

enum class GateKind : std::uint8_t {
  // one-qubit
  kId,
  kX,
  kH,
  kSX,
  kSXdg,
  kRZ,   // param = theta
  kP,    // param = lambda
  // two-qubit; qubits[0] = target, qubits[1] = control (where applicable)
  kCX,
  kCP,   // param = lambda
  kCH,
  kSWAP, // qubits[0], qubits[1] symmetric
  // three-qubit; qubits[0] = target, qubits[1..2] = controls
  kCCP,  // param = lambda
};

/// Number of qubits the kind acts on (1, 2 or 3).
int gate_arity(GateKind kind);

/// Number of real parameters the kind carries (0 or 1).
int gate_param_count(GateKind kind);

/// Lower-case mnemonic ("h", "cp", "ccp", ...).
const std::string& gate_name(GateKind kind);

/// True for gates whose matrix is diagonal in the computational basis.
bool gate_is_diagonal(GateKind kind);

/// True for the IBM basis gates {Id, X, SX, RZ, CX}: what the transpiler
/// emits, and the only gates a FusedPlan compiles.
bool is_basis_gate(GateKind kind);

struct Gate {
  GateKind kind{};
  std::array<int, 3> qubits{{-1, -1, -1}};
  double param = 0.0;  // angle of RZ, P, CP and CCP; other kinds ignore it

  int arity() const { return gate_arity(kind); }

  /// Dense matrix on the gate-local qubits (bit 0 = qubits[0], etc.),
  /// matching linalg/gates.h conventions.
  Matrix matrix() const;

  /// The gate implementing this one's inverse (same qubits).
  Gate inverse() const;

  /// Human-readable form, e.g. "cp(0.785398) q3, q7".
  std::string to_string() const;
};

/// Constructors with qubit-count validation deferred to QuantumCircuit.
Gate make_gate1(GateKind kind, int q, double p0 = 0.0);
Gate make_gate2(GateKind kind, int target, int control, double p0 = 0.0);
Gate make_gate3(GateKind kind, int target, int c1, int c2, double p0 = 0.0);

}  // namespace qfab
