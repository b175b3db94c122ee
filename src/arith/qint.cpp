#include "arith/qint.h"

#include <algorithm>
#include <cmath>

namespace qfab {

QInt::QInt(int bits, std::vector<Term> terms)
    : bits_(bits), terms_(std::move(terms)) {
  QFAB_CHECK(bits >= 1 && bits < 63);
  QFAB_CHECK_MSG(!terms_.empty(), "qinteger needs at least one term");
  std::sort(terms_.begin(), terms_.end(),
            [](const Term& a, const Term& b) { return a.value < b.value; });
  double norm = 0.0;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    QFAB_CHECK_MSG(terms_[i].value < pow2(bits_), "term out of range");
    QFAB_CHECK_MSG(i == 0 || terms_[i].value != terms_[i - 1].value,
                   "duplicate qinteger term " << terms_[i].value);
    norm += std::norm(terms_[i].amplitude);
  }
  QFAB_CHECK_MSG(norm > 0.0, "qinteger has zero norm");
  const double scale = 1.0 / std::sqrt(norm);
  for (Term& t : terms_) t.amplitude *= scale;
}

QInt QInt::classical(int bits, std::int64_t value) {
  return QInt(bits, {Term{encode(value, bits), cplx{1.0, 0.0}}});
}

QInt QInt::uniform(int bits, const std::vector<std::int64_t>& values) {
  QFAB_CHECK(!values.empty());
  std::vector<Term> terms;
  terms.reserve(values.size());
  for (std::int64_t v : values)
    terms.push_back(Term{encode(v, bits), cplx{1.0, 0.0}});
  return QInt(bits, std::move(terms));
}

QInt QInt::superposition(int bits, std::vector<Term> terms) {
  return QInt(bits, std::move(terms));
}

std::vector<u64> QInt::support() const {
  std::vector<u64> out;
  out.reserve(terms_.size());
  for (const Term& t : terms_) out.push_back(t.value);
  return out;
}

u64 QInt::encode(std::int64_t value, int bits) {
  QFAB_CHECK(bits >= 1 && bits < 63);
  const std::int64_t mod = std::int64_t{1} << bits;
  const std::int64_t rem = ((value % mod) + mod) % mod;
  return static_cast<u64>(rem);
}

std::int64_t QInt::decode_signed(u64 encoded, int bits) {
  QFAB_CHECK(bits >= 1 && bits < 63);
  QFAB_CHECK(encoded < pow2(bits));
  const auto raw = static_cast<std::int64_t>(encoded);
  const std::int64_t half = std::int64_t{1} << (bits - 1);
  return raw >= half ? raw - (std::int64_t{1} << bits) : raw;
}

std::vector<BasisTerm> product_state_terms(
    int total_qubits,
    const std::vector<std::pair<QubitRange, QInt>>& registers) {
  QFAB_CHECK(total_qubits >= 0 && total_qubits < 64);
  // Validate that registers are disjoint and in range.
  std::vector<bool> used(static_cast<std::size_t>(total_qubits), false);
  for (const auto& [range, value] : registers) {
    QFAB_CHECK(range.size == value.bits());
    for (int i = 0; i < range.size; ++i) {
      const int q = range[i];
      QFAB_CHECK(q >= 0 && q < total_qubits);
      QFAB_CHECK_MSG(!used[static_cast<std::size_t>(q)],
                     "overlapping registers in a product state");
      used[static_cast<std::size_t>(q)] = true;
    }
  }

  if (registers.empty()) return {BasisTerm{0, cplx{1.0, 0.0}}};
  // Cartesian product over register terms (orders are tiny in practice).
  std::vector<BasisTerm> terms;
  std::vector<std::size_t> cursor(registers.size(), 0);
  for (;;) {
    u64 index = 0;
    cplx amp{1.0, 0.0};
    for (std::size_t r = 0; r < registers.size(); ++r) {
      const auto& term = registers[r].second.terms()[cursor[r]];
      index |= term.value << registers[r].first.start;
      amp *= term.amplitude;
    }
    terms.push_back(BasisTerm{index, amp});
    // Advance the odometer.
    std::size_t r = 0;
    while (r < registers.size()) {
      if (++cursor[r] < registers[r].second.terms().size()) break;
      cursor[r] = 0;
      ++r;
    }
    if (r == registers.size()) break;
  }
  return terms;
}

StateVector prepare_product_state(
    int total_qubits,
    const std::vector<std::pair<QubitRange, QInt>>& registers) {
  std::vector<cplx> amps(pow2(total_qubits), cplx{0.0, 0.0});
  for (const BasisTerm& t : product_state_terms(total_qubits, registers))
    amps[t.index] = t.amplitude;
  return StateVector::from_amplitudes(std::move(amps));
}

}  // namespace qfab
