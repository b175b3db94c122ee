// Dense state-vector simulator.
//
// This is the engines' reference: the scalar path (CleanRun,
// run_trajectory) replays a transpiled circuit (thousands of gates) on
// these kernels gate by gate, and the batched engine is tested against it.
// Each gate kind gets a dedicated in-place kernel; diagonal gates
// (RZ/P/CP/CCP) touch only phases and CX/X/SWAP only permute
// amplitudes. Generic dense application exists as a fallback and as the
// reference the kernels are tested against.
#pragma once

#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "linalg/matrix.h"

namespace qfab {

/// Pauli labels used by the noise layer.
enum class Pauli : std::uint8_t { kI = 0, kX = 1, kY = 2, kZ = 3 };

class StateVector {
 public:
  /// |0...0> on n qubits. n <= 30 (memory guard).
  explicit StateVector(int num_qubits);

  /// Take ownership of explicit amplitudes (size must be a power of two).
  /// Callers are responsible for normalization (checked to 1e-8).
  static StateVector from_amplitudes(std::vector<cplx> amps);

  int num_qubits() const { return num_qubits_; }
  u64 dim() const { return pow2(num_qubits_); }
  /// Amplitudes with any pending global phase folded in.
  const std::vector<cplx>& amplitudes() const;

  /// Reset to |0...0>.
  void reset();
  /// Reset to the computational basis state |value>.
  void set_basis_state(u64 value);

  cplx amplitude(u64 index) const;
  double norm() const;

  // -- gate application --
  void apply_gate(const Gate& g);
  /// Apply the whole circuit, including its global phase.
  void apply_circuit(const QuantumCircuit& qc);
  /// Apply gates [begin, end) of the circuit, without its global phase:
  /// the per-gate replay of the scalar reference path (CleanRun,
  /// run_trajectory). It carries the QFAB_FAULT nan-at-gate hook
  /// (common/fault.h).
  void apply_circuit_range(const QuantumCircuit& qc, std::size_t begin,
                           std::size_t end);
  void apply_global_phase(double phase);
  /// Apply a Pauli operator to one qubit (noise injection).
  void apply_pauli(Pauli p, int q);

  /// Dense application of an arbitrary k-qubit matrix (reference path).
  void apply_matrix(const Matrix& u, const std::vector<int>& targets);

  // -- measurement --
  /// |amp|^2 for every basis state.
  std::vector<double> probabilities() const;
  /// Distribution of the measured value of `qubits` (qubits[0] = output
  /// bit 0), marginalized over the rest. Size 2^{qubits.size()}.
  std::vector<double> marginal_probabilities(
      const std::vector<int>& qubits) const;
  /// Allocation-reusing form: assigns the marginal into `out` (resized to
  /// 2^{qubits.size()}, reusing its capacity). Estimator scratch path.
  void marginal_probabilities(const std::vector<int>& qubits,
                              std::vector<double>& out) const;
  /// Sample one full-width measurement outcome.
  u64 sample(Pcg64& rng) const;
  /// Sample `shots` outcomes of the given qubit subset, returning a count
  /// per outcome (size 2^{qubits.size()}). Equivalent to repeated
  /// measure-and-reprepare; each shot binary-searches one cumulative table
  /// of the marginal (CdfSampler).
  std::vector<std::uint64_t> sample_counts(const std::vector<int>& qubits,
                                           std::uint64_t shots,
                                           Pcg64& rng) const;

 private:
  void apply_matrix1(const cplx m[2][2], int q);
  void apply_matrix2(const Matrix& u, int q0, int q1);
  /// Multiply amplitudes whose `q` bit is set by `phase` (strided loop).
  void apply_phase_on_bit(int q, cplx phase);
  /// Fold the lazily-accumulated RZ global phase into the amplitudes.
  void flush_pending_phase() const;

  int num_qubits_ = 0;
  // RZ(θ) = e^{-iθ/2} · diag(1, e^{iθ}): the diagonal part is applied
  // eagerly (half the vector), the scalar prefactor accumulates here and
  // is folded in only when amplitudes are observed. Probabilities never
  // need it. Mutable: folding from a const accessor is observationally
  // pure (not thread-safe against concurrent reads of the same object).
  mutable double pending_phase_ = 0.0;
  mutable std::vector<cplx> amps_;
};

/// One nonzero amplitude of a state: `amplitude`·|index>. The paper's
/// operand states have a handful of them among 2^n basis states, and the
/// batched engine loads initial states in this form
/// (BatchedStateVectorT::set_lane).
struct BasisTerm {
  u64 index = 0;
  cplx amplitude{0.0, 0.0};
};

/// The nonzero amplitudes of `sv` (pending phase folded in), in ascending
/// index order.
std::vector<BasisTerm> nonzero_terms(const StateVector& sv);

}  // namespace qfab
