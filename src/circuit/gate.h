// Gate IR.
//
// A Gate is a flat POD-like record (kind + up to three qubits + up to three
// real parameters) so circuits stay cache-friendly: the noisy sweeps replay
// circuits of a few thousand gates millions of times.
#pragma once

#include <array>
#include <string>

#include "linalg/matrix.h"

namespace qfab {

enum class GateKind : std::uint8_t {
  // one-qubit
  kId,
  kX,
  kY,
  kZ,
  kH,
  kSX,
  kSXdg,
  kRZ,   // params[0] = theta
  kRY,
  kRX,
  kP,    // params[0] = lambda
  kU,    // params = (theta, phi, lambda)
  // two-qubit; qubits[0] = target, qubits[1] = control (where applicable)
  kCX,
  kCZ,
  kCP,   // params[0] = lambda
  kCH,
  kSWAP, // qubits[0], qubits[1] symmetric
  // three-qubit; qubits[0] = target, qubits[1..2] = controls
  kCCP,  // params[0] = lambda
  kCCX,
};

/// Number of qubits the kind acts on (1, 2 or 3).
int gate_arity(GateKind kind);

/// Number of real parameters the kind carries (0..3).
int gate_param_count(GateKind kind);

/// Lower-case mnemonic ("h", "cp", "ccx", ...).
const std::string& gate_name(GateKind kind);

/// True for gates whose matrix is diagonal in the computational basis.
bool gate_is_diagonal(GateKind kind);

/// True for the IBM basis gates {Id, X, SX, RZ, CX}: what the transpiler
/// emits, and the only gates a FusedPlan compiles.
bool is_basis_gate(GateKind kind);

struct Gate {
  GateKind kind{};
  std::array<int, 3> qubits{{-1, -1, -1}};
  std::array<double, 3> params{{0.0, 0.0, 0.0}};

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
Gate make_gate1(GateKind kind, int q, double p0 = 0.0, double p1 = 0.0,
                double p2 = 0.0);
Gate make_gate2(GateKind kind, int target, int control, double p0 = 0.0);
Gate make_gate3(GateKind kind, int target, int c1, int c2, double p0 = 0.0);

}  // namespace qfab
