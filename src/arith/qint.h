// Quantum integers (qintegers).
//
// A qinteger is a superposition of two's-complement integer states on an
// n-qubit register (paper Sec. II). An order-j qinteger has j basis states
// with nonzero amplitude. This type is purely descriptive — the simulator
// consumes it through product_state_terms / prepare_product_state (the
// paper's noise-free initialization) or through the state-preparation
// circuit synthesizer.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "sim/statevector.h"

namespace qfab {

class QInt {
 public:
  struct Term {
    u64 value = 0;  // encoded (mod 2^bits) representation
    cplx amplitude{0.0, 0.0};
  };

  /// Order-1 qinteger |value mod 2^bits>.
  static QInt classical(int bits, std::int64_t value);

  /// Uniform superposition of the given (distinct) values, equal real
  /// amplitudes 1/sqrt(k) — the paper's evenly-distributed operands.
  static QInt uniform(int bits, const std::vector<std::int64_t>& values);

  /// General superposition; amplitudes are normalized on construction.
  static QInt superposition(int bits, std::vector<Term> terms);

  int bits() const { return bits_; }
  int order() const { return static_cast<int>(terms_.size()); }
  const std::vector<Term>& terms() const { return terms_; }

  /// Encoded values in ascending order.
  std::vector<u64> support() const;

  /// Full 2^bits amplitude vector.
  std::vector<cplx> amplitudes() const;

  // Two's-complement helpers.
  static u64 encode(std::int64_t value, int bits);
  static std::int64_t decode_signed(u64 encoded, int bits);

 private:
  QInt(int bits, std::vector<Term> terms);

  int bits_ = 0;
  std::vector<Term> terms_;
};

/// The joint state of several registers of one circuit, each holding a
/// qinteger, with all remaining qubits in |0>, as its nonzero basis terms:
/// one per combination of register terms, the first register varying
/// fastest. This is the paper's noise-free initialization: amplitudes are
/// written directly, no gates. The batched engine loads these terms as
/// they are (BatchedCleanRun).
std::vector<BasisTerm> product_state_terms(
    int total_qubits,
    const std::vector<std::pair<QubitRange, QInt>>& registers);

/// The same state as a dense 2^total_qubits vector: product_state_terms
/// scattered into zeros.
StateVector prepare_product_state(
    int total_qubits,
    const std::vector<std::pair<QubitRange, QInt>>& registers);

}  // namespace qfab
