// Transpiler validation: every decomposition and the peephole optimizer
// must preserve the circuit's unitary *exactly* (global phase included) —
// checked per gate kind and on random circuits.
#include <gtest/gtest.h>

#include <numbers>

#include "common/rng.h"
#include "transpile/transpile.h"

namespace qfab {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Basis, Classification) {
  EXPECT_TRUE(is_basis_gate(GateKind::kRZ));
  EXPECT_TRUE(is_basis_gate(GateKind::kCX));
  EXPECT_TRUE(is_basis_gate(GateKind::kId));
  EXPECT_FALSE(is_basis_gate(GateKind::kH));
  EXPECT_FALSE(is_basis_gate(GateKind::kCP));
}

// Every gate kind decomposes into basis gates with the identical unitary.
class DecomposeGate : public ::testing::TestWithParam<Gate> {};

TEST_P(DecomposeGate, UnitaryPreservedExactly) {
  const Gate g = GetParam();
  const int n = 3;
  QuantumCircuit original(n);
  original.append(g);

  QuantumCircuit basis(n);
  decompose_gate(g, basis);
  EXPECT_TRUE(is_basis_circuit(basis));
  EXPECT_TRUE(basis.to_unitary().approx_equal(original.to_unitary(), 1e-8))
      << g.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DecomposeGate,
    ::testing::Values(
        make_gate1(GateKind::kId, 0), make_gate1(GateKind::kX, 1),
        make_gate1(GateKind::kH, 1), make_gate1(GateKind::kSX, 2),
        make_gate1(GateKind::kSXdg, 0), make_gate1(GateKind::kRZ, 1, 0.83),
        make_gate1(GateKind::kP, 1, 0.41), make_gate2(GateKind::kCX, 0, 2),
        make_gate2(GateKind::kCP, 2, 1, 1.23),
        make_gate2(GateKind::kCP, 0, 1, kPi),
        make_gate2(GateKind::kCH, 0, 2), make_gate2(GateKind::kSWAP, 1, 2),
        make_gate3(GateKind::kCCP, 0, 1, 2, 0.9),
        make_gate3(GateKind::kCCP, 2, 0, 1, kPi / 2)),
    [](const ::testing::TestParamInfo<Gate>& info) {
      return gate_name(info.param.kind) + std::string("_") +
             std::to_string(info.index);
    });

QuantumCircuit random_circuit(int n, int gates, Pcg64& rng) {
  QuantumCircuit qc(n);
  for (int i = 0; i < gates; ++i) {
    const int q = static_cast<int>(rng.uniform_int(static_cast<u64>(n)));
    int r = static_cast<int>(rng.uniform_int(static_cast<u64>(n)));
    while (r == q) r = static_cast<int>(rng.uniform_int(static_cast<u64>(n)));
    int s = static_cast<int>(rng.uniform_int(static_cast<u64>(n)));
    while (s == q || s == r)
      s = static_cast<int>(rng.uniform_int(static_cast<u64>(n)));
    switch (rng.uniform_int(10)) {
      case 0: qc.h(q); break;
      case 1: qc.x(q); break;
      case 2: qc.rz(q, rng.uniform() * 6.28 - 3.14); break;
      case 3: qc.p(q, rng.uniform() * 6.28); break;
      case 4: qc.sx(q); break;
      case 5: qc.cx(q, r); break;
      case 6: qc.cp(q, r, rng.uniform() * 6.28); break;
      case 7: qc.ch(q, r); break;
      case 8: qc.ccp(q, r, s, rng.uniform() * 3.0); break;
      default: qc.swap(q, r); break;
    }
  }
  return qc;
}

TEST(Transpile, RandomCircuitsPreserveUnitary) {
  Pcg64 rng(101);
  for (int rep = 0; rep < 8; ++rep) {
    const QuantumCircuit qc = random_circuit(4, 25, rng);
    const TranspileReport report = transpile(qc);
    EXPECT_TRUE(is_basis_circuit(report.circuit));
    EXPECT_TRUE(
        report.circuit.to_unitary().approx_equal(qc.to_unitary(), 1e-7))
        << "rep " << rep;
  }
}

TEST(Transpile, OptimizationNeverIncreasesCounts) {
  Pcg64 rng(202);
  for (int rep = 0; rep < 5; ++rep) {
    const QuantumCircuit qc = random_circuit(4, 30, rng);
    const GateCounts decomposed = decompose_to_basis(qc).counts();
    const GateCounts optimized = transpile(qc).counts;
    EXPECT_LE(optimized.total(), decomposed.total());
    EXPECT_LE(optimized.two_qubit, decomposed.two_qubit);
  }
}

TEST(Optimize, MergesAdjacentRz) {
  QuantumCircuit qc(2);
  qc.rz(0, 0.3);
  qc.rz(0, 0.4);
  const OptimizeStats stats = optimize_basis_circuit(qc);
  EXPECT_EQ(stats.rz_merged, 1u);
  ASSERT_EQ(qc.gates().size(), 1u);
  EXPECT_NEAR(qc.gates()[0].param, 0.7, 1e-12);
}

TEST(Optimize, MergesRzOnlyAcrossOtherWires) {
  // Level 1 merges a run of RZ on one wire: gates on other wires do not
  // interrupt it, but a CX that touches the wire does, even on its
  // control, where the RZ would commute through (Qiskit 0.31's level 1
  // does not look through commuting gates; Table I's counts rely on it).
  QuantumCircuit qc(3);
  qc.rz(0, 0.3);
  qc.cx(1, 2);  // other wires: the run continues
  qc.rz(0, 0.4);
  qc.cx(0, 1);  // q0 is control: ends the run
  qc.rz(0, 0.5);
  const QuantumCircuit before = qc;
  const OptimizeStats stats = optimize_basis_circuit(qc);
  EXPECT_EQ(stats.rz_merged, 1u);
  EXPECT_EQ(qc.counts().by_name.at("rz"), 2u);
  EXPECT_TRUE(qc.to_unitary().approx_equal(before.to_unitary(), 1e-10));
}

TEST(Optimize, DoesNotMergeRzAcrossCxTarget) {
  QuantumCircuit qc(2);
  qc.rz(1, 0.3);
  qc.cx(0, 1);  // q1 is target: blocks
  qc.rz(1, 0.4);
  optimize_basis_circuit(qc);
  EXPECT_EQ(qc.counts().by_name.at("rz"), 2u);
}

TEST(Optimize, DropsFullTurnsWithPhase) {
  QuantumCircuit qc(1);
  qc.rz(0, 2 * kPi);
  const QuantumCircuit before = qc;
  const OptimizeStats stats = optimize_basis_circuit(qc);
  EXPECT_EQ(stats.rz_removed, 1u);
  EXPECT_TRUE(qc.gates().empty());
  // RZ(2π) = -I: phase must be tracked.
  EXPECT_TRUE(qc.to_unitary().approx_equal(before.to_unitary(), 1e-10));
}

TEST(Optimize, CancelsCxPairs) {
  QuantumCircuit qc(3);
  qc.cx(0, 1);
  qc.rz(2, 0.5);   // on another wire: the pair stays adjacent
  qc.cx(0, 1);     // cancels with the first
  const QuantumCircuit before = qc;
  const OptimizeStats stats = optimize_basis_circuit(qc);
  EXPECT_EQ(stats.cx_cancelled, 2u);
  EXPECT_TRUE(qc.to_unitary().approx_equal(before.to_unitary(), 1e-10));
  EXPECT_EQ(qc.counts().two_qubit, 0u);
}

TEST(Optimize, DoesNotCancelBlockedCxPairs) {
  QuantumCircuit qc(2);
  qc.cx(0, 1);
  qc.sx(1);  // on target: blocks
  qc.cx(0, 1);
  optimize_basis_circuit(qc);
  EXPECT_EQ(qc.counts().two_qubit, 2u);
}

TEST(Optimize, FoldsSxPairsToX) {
  QuantumCircuit qc(1);
  qc.sx(0);
  qc.sx(0);
  const QuantumCircuit before = qc;
  optimize_basis_circuit(qc);
  ASSERT_EQ(qc.gates().size(), 1u);
  EXPECT_EQ(qc.gates()[0].kind, GateKind::kX);
  EXPECT_TRUE(qc.to_unitary().approx_equal(before.to_unitary(), 1e-10));
}

TEST(Optimize, FoldsXPairsToIdentity) {
  QuantumCircuit qc(1);
  qc.x(0);
  qc.x(0);
  optimize_basis_circuit(qc);
  EXPECT_TRUE(qc.gates().empty());
}

TEST(Optimize, RandomBasisCircuitsPreserved) {
  Pcg64 rng(303);
  for (int rep = 0; rep < 8; ++rep) {
    QuantumCircuit qc(3);
    for (int i = 0; i < 40; ++i) {
      const int q = static_cast<int>(rng.uniform_int(3));
      const int r = static_cast<int>((q + 1 + rng.uniform_int(2)) % 3);
      switch (rng.uniform_int(4)) {
        case 0: qc.rz(q, rng.uniform() * 12.0 - 6.0); break;
        case 1: qc.sx(q); break;
        case 2: qc.x(q); break;
        default: qc.cx(q, r); break;
      }
    }
    const QuantumCircuit before = qc;
    optimize_basis_circuit(qc);
    EXPECT_TRUE(qc.to_unitary().approx_equal(before.to_unitary(), 1e-8))
        << "rep " << rep;
  }
}

TEST(Transpile, ReportCountsMatchCircuit) {
  QuantumCircuit qc(2);
  qc.h(0);
  qc.cp(0, 1, 0.7);
  const TranspileReport report = transpile(qc);
  EXPECT_EQ(report.counts.total(), report.circuit.gates().size());
  EXPECT_EQ(report.counts.two_qubit, 2u);  // one CP -> two CX
}

}  // namespace
}  // namespace qfab
