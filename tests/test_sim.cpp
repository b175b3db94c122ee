// State-vector kernel validation: every fast kernel is compared against
// dense matrix application (embed_gate) on random states, across qubit
// placements — the property that underwrites every other simulation result.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/gates.h"
#include "sim/statevector.h"

namespace qfab {
namespace {

std::vector<cplx> random_state(int n, Pcg64& rng) {
  std::vector<cplx> amps(pow2(n));
  double norm = 0.0;
  for (cplx& a : amps) {
    a = cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
    norm += std::norm(a);
  }
  const double s = 1.0 / std::sqrt(norm);
  for (cplx& a : amps) a *= s;
  return amps;
}

double state_distance(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::norm(a[i] - b[i]);
  return std::sqrt(d);
}

TEST(StateVector, InitialState) {
  StateVector sv(3);
  EXPECT_EQ(sv.dim(), 8u);
  EXPECT_EQ(sv.amplitude(0), cplx(1.0, 0.0));
  for (u64 i = 1; i < 8; ++i) EXPECT_EQ(sv.amplitude(i), cplx(0.0, 0.0));
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(StateVector, SetBasisState) {
  StateVector sv(4);
  sv.set_basis_state(0b1010);
  EXPECT_EQ(sv.amplitude(0b1010), cplx(1.0, 0.0));
  EXPECT_EQ(sv.amplitude(0), cplx(0.0, 0.0));
}

TEST(StateVector, FromAmplitudesValidation) {
  EXPECT_THROW(StateVector::from_amplitudes({cplx{1, 0}, cplx{1, 0}}),
               CheckError);
  auto sv = StateVector::from_amplitudes(
      {cplx{std::sqrt(0.5), 0}, cplx{0, std::sqrt(0.5)}});
  EXPECT_EQ(sv.num_qubits(), 1);
}

// Parameterized kernel-vs-dense check over gate kinds and qubit layouts.
struct KernelCase {
  const char* name;
  Gate gate;
};

class KernelVsDense : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelVsDense, MatchesDenseReference) {
  const Gate g = GetParam().gate;
  const int n = 5;
  Pcg64 rng(12345);
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<cplx> init = random_state(n, rng);
    StateVector fast = StateVector::from_amplitudes(init);
    fast.apply_gate(g);

    StateVector ref = StateVector::from_amplitudes(init);
    std::vector<int> targets(g.qubits.begin(), g.qubits.begin() + g.arity());
    ref.apply_matrix(g.matrix(), targets);

    EXPECT_LT(state_distance(fast.amplitudes(), ref.amplitudes()), 1e-10)
        << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, KernelVsDense,
    ::testing::Values(
        KernelCase{"x_q0", make_gate1(GateKind::kX, 0)},
        KernelCase{"x_q4", make_gate1(GateKind::kX, 4)},
        KernelCase{"h_q1", make_gate1(GateKind::kH, 1)},
        KernelCase{"sx_q2", make_gate1(GateKind::kSX, 2)},
        KernelCase{"sxdg_q0", make_gate1(GateKind::kSXdg, 0)},
        KernelCase{"rz_q3", make_gate1(GateKind::kRZ, 3, 0.77)},
        KernelCase{"p_q2", make_gate1(GateKind::kP, 2, 0.33)},
        KernelCase{"cx_t0c1", make_gate2(GateKind::kCX, 0, 1)},
        KernelCase{"cx_t3c1", make_gate2(GateKind::kCX, 3, 1)},
        KernelCase{"cx_t1c4", make_gate2(GateKind::kCX, 1, 4)},
        KernelCase{"cp_t2c0", make_gate2(GateKind::kCP, 2, 0, 1.1)},
        KernelCase{"ch_t1c3", make_gate2(GateKind::kCH, 1, 3)},
        KernelCase{"swap_q13", make_gate2(GateKind::kSWAP, 1, 3)},
        KernelCase{"swap_q40", make_gate2(GateKind::kSWAP, 4, 0)},
        KernelCase{"ccp_t4c02", make_gate3(GateKind::kCCP, 4, 0, 2, 0.9)}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return info.param.name;
    });

TEST(StateVector, PauliKernelsMatchMatrices) {
  Pcg64 rng(99);
  const std::vector<cplx> init = random_state(4, rng);
  const Pauli paulis[] = {Pauli::kX, Pauli::kY, Pauli::kZ};
  const Matrix mats[] = {gates::X(), gates::Y(), gates::Z()};
  for (int p = 0; p < 3; ++p)
    for (int q = 0; q < 4; ++q) {
      StateVector fast = StateVector::from_amplitudes(init);
      fast.apply_pauli(paulis[p], q);
      StateVector ref = StateVector::from_amplitudes(init);
      ref.apply_matrix(mats[p], {q});
      EXPECT_LT(state_distance(fast.amplitudes(), ref.amplitudes()), 1e-12);
    }
}

TEST(StateVector, ApplyCircuitMatchesUnitary) {
  QuantumCircuit qc(3);
  qc.h(0);
  qc.cp(0, 1, 0.6);
  qc.cx(1, 2);
  qc.rz(2, -0.9);
  qc.swap(0, 2);
  qc.add_global_phase(0.4);

  Pcg64 rng(7);
  const std::vector<cplx> init = random_state(3, rng);
  StateVector sv = StateVector::from_amplitudes(init);
  sv.apply_circuit(qc);
  const auto expected = qc.to_unitary().apply(init);
  EXPECT_LT(state_distance(sv.amplitudes(), expected), 1e-10);
}

TEST(StateVector, ApplyCircuitRange) {
  QuantumCircuit qc(2);
  qc.h(0);
  qc.cx(0, 1);
  StateVector sv(2);
  sv.apply_circuit_range(qc, 0, 1);  // only H
  EXPECT_NEAR(std::abs(sv.amplitude(0b00)), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(0b01)), 1.0 / std::sqrt(2.0), 1e-12);
  sv.apply_circuit_range(qc, 1, 2);  // then CX
  EXPECT_NEAR(std::abs(sv.amplitude(0b11)), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(StateVector, NormPreservedThroughLongCircuit) {
  QuantumCircuit qc(6);
  Pcg64 rng(3);
  for (int i = 0; i < 200; ++i) {
    const int q = static_cast<int>(rng.uniform_int(6));
    const int r = static_cast<int>((q + 1 + rng.uniform_int(5)) % 6);
    switch (rng.uniform_int(4)) {
      case 0: qc.h(q); break;
      case 1: qc.rz(q, rng.uniform() * 6.28); break;
      case 2: qc.cx(q, r); break;
      default: qc.cp(q, r, rng.uniform()); break;
    }
  }
  StateVector sv(6);
  sv.apply_circuit(qc);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
}

TEST(StateVector, Probabilities) {
  StateVector sv(1);
  sv.apply_gate(make_gate1(GateKind::kH, 0));
  const auto p = sv.probabilities();
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
}

TEST(StateVector, MarginalProbabilities) {
  // Bell pair on (0,1) ⊗ |1> on qubit 2.
  QuantumCircuit qc(3);
  qc.h(0);
  qc.cx(0, 1);
  qc.x(2);
  StateVector sv(3);
  sv.apply_circuit(qc);

  const auto m0 = sv.marginal_probabilities({0});
  EXPECT_NEAR(m0[0], 0.5, 1e-12);
  EXPECT_NEAR(m0[1], 0.5, 1e-12);

  const auto m01 = sv.marginal_probabilities({0, 1});
  EXPECT_NEAR(m01[0b00], 0.5, 1e-12);
  EXPECT_NEAR(m01[0b11], 0.5, 1e-12);
  EXPECT_NEAR(m01[0b01], 0.0, 1e-12);

  const auto m2 = sv.marginal_probabilities({2});
  EXPECT_NEAR(m2[1], 1.0, 1e-12);

  // Qubit order in the subset defines output bit order.
  const auto m20 = sv.marginal_probabilities({2, 0});
  EXPECT_NEAR(m20[0b01], 0.5, 1e-12);  // q2=1 (bit0), q0=0 (bit1)
  EXPECT_NEAR(m20[0b11], 0.5, 1e-12);
}

TEST(StateVector, MarginalContiguousFastPathMatchesGather) {
  // The contiguous-range fast path (shift/mask) must agree with the
  // generic bit-gather on a random state, for every inner range.
  Pcg64 rng(77);
  const int n = 6;
  std::vector<cplx> amps(pow2(n));
  double norm = 0.0;
  for (cplx& a : amps) {
    a = cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
    norm += std::norm(a);
  }
  for (cplx& a : amps) a *= 1.0 / std::sqrt(norm);
  const StateVector sv = StateVector::from_amplitudes(amps);

  for (int start = 0; start < n; ++start)
    for (int size = 1; start + size <= n; ++size) {
      std::vector<int> qubits(size);
      for (int b = 0; b < size; ++b) qubits[b] = start + b;
      const auto fast = sv.marginal_probabilities(qubits);
      // Generic reference: accumulate keys bit by bit.
      std::vector<double> ref(pow2(size), 0.0);
      for (u64 i = 0; i < pow2(n); ++i) {
        u64 key = 0;
        for (int b = 0; b < size; ++b)
          key |= static_cast<u64>(get_bit(i, qubits[b])) << b;
        ref[key] += std::norm(amps[i]);
      }
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t k = 0; k < ref.size(); ++k)
        EXPECT_NEAR(fast[k], ref[k], 1e-14) << "start=" << start;
    }
}

TEST(StateVector, SampleCountsStatistics) {
  StateVector sv(2);
  sv.apply_gate(make_gate1(GateKind::kH, 0));  // q0 uniform, q1 = 0
  Pcg64 rng(55);
  const auto counts = sv.sample_counts({0}, 100000, rng);
  EXPECT_NEAR(static_cast<double>(counts[0]), 50000.0, 1500.0);
  std::uint64_t total = counts[0] + counts[1];
  EXPECT_EQ(total, 100000u);
}

TEST(StateVector, SampleFullWidth) {
  StateVector sv(3);
  sv.set_basis_state(0b101);
  Pcg64 rng(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sv.sample(rng), 0b101u);
}

TEST(StateVector, GlobalPhaseDoesNotChangeProbabilities) {
  StateVector sv(2);
  sv.apply_gate(make_gate1(GateKind::kH, 0));
  const auto before = sv.probabilities();
  sv.apply_global_phase(1.234);
  const auto after = sv.probabilities();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_NEAR(before[i], after[i], 1e-12);
  EXPECT_NEAR(std::arg(sv.amplitude(0)), 1.234, 1e-12);
}

}  // namespace
}  // namespace qfab
