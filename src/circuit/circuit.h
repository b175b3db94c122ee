// QuantumCircuit: an ordered gate list over named qubit registers.
//
// Registers are contiguous, little-endian qubit ranges (register bit 0 =
// lowest qubit index = least-significant bit of the encoded integer),
// matching the arithmetic layer's two's-complement encoding.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/gate.h"

namespace qfab {

/// Contiguous qubit range within a circuit.
struct QubitRange {
  int start = 0;
  int size = 0;

  /// Global index of register-local bit `i`.
  int operator[](int i) const {
    QFAB_CHECK(i >= 0 && i < size);
    return start + i;
  }
};

struct GateCounts {
  std::map<std::string, std::size_t> by_name;
  std::size_t one_qubit = 0;
  std::size_t two_qubit = 0;
  std::size_t three_qubit = 0;
  std::size_t total() const { return one_qubit + two_qubit + three_qubit; }
};

class QuantumCircuit {
 public:
  explicit QuantumCircuit(int num_qubits = 0);

  /// Empty circuit with the same width and register table as `other`.
  static QuantumCircuit same_shape(const QuantumCircuit& other);

  int num_qubits() const { return num_qubits_; }
  const std::vector<Gate>& gates() const { return gates_; }
  double global_phase() const { return global_phase_; }
  void add_global_phase(double phase) { global_phase_ += phase; }

  /// Append `size` fresh qubits as a named register; returns its range.
  QubitRange add_register(const std::string& name, int size);
  /// Look up a previously added register.
  QubitRange reg(const std::string& name) const;
  bool has_register(const std::string& name) const;
  /// Registers in creation order as (name, range).
  std::vector<std::pair<std::string, QubitRange>> registers() const;

  // -- gate appenders (validated against num_qubits) --
  void append(const Gate& g);
  void id(int q)              { append(make_gate1(GateKind::kId, q)); }
  void x(int q)               { append(make_gate1(GateKind::kX, q)); }
  void h(int q)               { append(make_gate1(GateKind::kH, q)); }
  void sx(int q)              { append(make_gate1(GateKind::kSX, q)); }
  void sxdg(int q)            { append(make_gate1(GateKind::kSXdg, q)); }
  void rz(int q, double t)    { append(make_gate1(GateKind::kRZ, q, t)); }
  void p(int q, double l)     { append(make_gate1(GateKind::kP, q, l)); }
  void cx(int control, int target) {
    append(make_gate2(GateKind::kCX, target, control));
  }
  void cp(int control, int target, double lambda) {
    append(make_gate2(GateKind::kCP, target, control, lambda));
  }
  void ch(int control, int target) {
    append(make_gate2(GateKind::kCH, target, control));
  }
  void swap(int a, int b) { append(make_gate2(GateKind::kSWAP, a, b)); }
  void ccp(int c1, int c2, int target, double lambda) {
    append(make_gate3(GateKind::kCCP, target, c1, c2, lambda));
  }

  /// Append every gate of `other` (same width required), including its
  /// global phase.
  void compose(const QuantumCircuit& other);

  /// Append `other` with its qubit i mapped to `mapping[i]`.
  void compose_mapped(const QuantumCircuit& other,
                      const std::vector<int>& mapping);

  /// The inverse circuit (reversed order, inverted gates, negated phase).
  /// Register table is preserved.
  QuantumCircuit inverse() const;

  /// A circuit in which every gate of `this` is controlled on `control`
  /// (which must lie outside every gate's qubits). The global phase becomes
  /// a P(phase) on the control. Supported kinds: {id, x, h, p, rz, cp},
  /// which covers the QFT/adder alphabet — others throw CheckError.
  QuantumCircuit controlled_on(int control) const;

  // -- metrics --
  GateCounts counts() const;
  /// Circuit depth: longest chain of gates sharing qubits (greedy per-qubit
  /// level assignment, barrier-free).
  int depth() const;

  /// Dense unitary including global phase. Guarded to n <= max_qubits
  /// (default 12) — reference/testing only.
  Matrix to_unitary(int max_qubits = 12) const;

 private:
  int num_qubits_ = 0;
  double global_phase_ = 0.0;
  std::vector<Gate> gates_;
  std::vector<std::pair<std::string, QubitRange>> registers_;
};

}  // namespace qfab
