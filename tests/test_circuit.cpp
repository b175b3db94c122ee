#include <gtest/gtest.h>

#include <numbers>

#include "circuit/circuit.h"
#include "linalg/gates.h"

namespace qfab {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Gate, ArityAndNames) {
  EXPECT_EQ(gate_arity(GateKind::kH), 1);
  EXPECT_EQ(gate_arity(GateKind::kCP), 2);
  EXPECT_EQ(gate_arity(GateKind::kCCP), 3);
  EXPECT_EQ(gate_name(GateKind::kCX), "cx");
  EXPECT_EQ(gate_name(GateKind::kCCP), "ccp");
  EXPECT_EQ(gate_param_count(GateKind::kH), 0);
}

TEST(Gate, DiagonalClassification) {
  EXPECT_TRUE(gate_is_diagonal(GateKind::kRZ));
  EXPECT_TRUE(gate_is_diagonal(GateKind::kCCP));
  EXPECT_FALSE(gate_is_diagonal(GateKind::kH));
  EXPECT_FALSE(gate_is_diagonal(GateKind::kCX));
}

TEST(Gate, InverseMatricesMultiplyToIdentity) {
  const Gate samples[] = {
      make_gate1(GateKind::kH, 0),
      make_gate1(GateKind::kSX, 0),
      make_gate1(GateKind::kRZ, 0, 0.7),
      make_gate2(GateKind::kCP, 0, 1, 0.9),
      make_gate2(GateKind::kCH, 0, 1),
      make_gate3(GateKind::kCCP, 0, 1, 2, 1.1),
  };
  for (const Gate& g : samples) {
    EXPECT_TRUE((g.matrix() * g.inverse().matrix())
                    .approx_equal(Matrix::identity(g.matrix().rows())))
        << g.to_string();
  }
}

TEST(Gate, RepeatedQubitsRejected) {
  EXPECT_THROW(make_gate2(GateKind::kCX, 1, 1), CheckError);
  EXPECT_THROW(make_gate3(GateKind::kCCP, 0, 1, 1, 0.5), CheckError);
}

TEST(Circuit, RegistersAreContiguous) {
  QuantumCircuit qc(0);
  const QubitRange x = qc.add_register("x", 3);
  const QubitRange y = qc.add_register("y", 2);
  EXPECT_EQ(qc.num_qubits(), 5);
  EXPECT_EQ(x.start, 0);
  EXPECT_EQ(y.start, 3);
  EXPECT_EQ(y[1], 4);
  EXPECT_TRUE(qc.has_register("x"));
  EXPECT_FALSE(qc.has_register("z"));
  EXPECT_THROW(qc.add_register("x", 1), CheckError);
  EXPECT_THROW(qc.reg("nope"), CheckError);
}

TEST(Circuit, AppendValidatesQubits) {
  QuantumCircuit qc(2);
  qc.h(0);
  qc.cx(0, 1);
  EXPECT_THROW(qc.h(2), CheckError);
  EXPECT_THROW(qc.cx(0, 5), CheckError);
}

TEST(Circuit, CountsByArity) {
  QuantumCircuit qc(3);
  qc.h(0);
  qc.h(1);
  qc.cx(0, 1);
  qc.ccp(0, 1, 2, 0.3);
  const GateCounts c = qc.counts();
  EXPECT_EQ(c.one_qubit, 2u);
  EXPECT_EQ(c.two_qubit, 1u);
  EXPECT_EQ(c.three_qubit, 1u);
  EXPECT_EQ(c.total(), 4u);
  EXPECT_EQ(c.by_name.at("h"), 2u);
}

TEST(Circuit, DepthComputation) {
  QuantumCircuit qc(3);
  EXPECT_EQ(qc.depth(), 0);
  qc.h(0);        // level 1 on q0
  qc.h(1);        // level 1 on q1
  EXPECT_EQ(qc.depth(), 1);
  qc.cx(0, 1);    // level 2 on q0,q1
  EXPECT_EQ(qc.depth(), 2);
  qc.h(2);        // level 1 on q2 — parallel
  EXPECT_EQ(qc.depth(), 2);
  qc.cx(1, 2);    // level 3
  EXPECT_EQ(qc.depth(), 3);
}

TEST(Circuit, ToUnitaryBellCircuit) {
  QuantumCircuit qc(2);
  qc.h(0);
  qc.cx(0, 1);
  const Matrix u = qc.to_unitary();
  // |00> -> (|00> + |11>)/√2.
  const auto col0 = std::vector<cplx>{u.at(0, 0), u.at(1, 0), u.at(2, 0),
                                      u.at(3, 0)};
  EXPECT_NEAR(std::abs(col0[0]), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(col0[3]), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(col0[1]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(col0[2]), 0.0, 1e-12);
}

TEST(Circuit, GlobalPhaseInUnitary) {
  QuantumCircuit qc(1);
  qc.add_global_phase(kPi / 3);
  const Matrix u = qc.to_unitary();
  EXPECT_NEAR(std::arg(u.at(0, 0)), kPi / 3, 1e-12);
}

TEST(Circuit, InverseIsExactInverse) {
  QuantumCircuit qc(3);
  qc.h(0);
  qc.cp(0, 1, 0.7);
  qc.cx(1, 2);
  qc.rz(2, -0.4);
  qc.sx(1);
  qc.add_global_phase(0.2);
  QuantumCircuit both(3);
  both.compose(qc);
  both.compose(qc.inverse());
  EXPECT_TRUE(both.to_unitary().approx_equal(Matrix::identity(8), 1e-10));
}

TEST(Circuit, ComposeMappedRelabelsQubits) {
  QuantumCircuit sub(2);
  sub.h(0);
  sub.cx(0, 1);
  QuantumCircuit qc(4);
  qc.compose_mapped(sub, {3, 1});
  ASSERT_EQ(qc.gates().size(), 2u);
  EXPECT_EQ(qc.gates()[0].qubits[0], 3);
  EXPECT_EQ(qc.gates()[1].qubits[0], 1);  // target
  EXPECT_EQ(qc.gates()[1].qubits[1], 3);  // control
}

TEST(Circuit, ControlledOnMatchesReference) {
  // Build a small circuit with the QFT/adder alphabet and compare its
  // controlled version against controlled(U) built from dense matrices.
  QuantumCircuit sub(2);
  sub.h(0);
  sub.cp(0, 1, 0.9);
  sub.p(1, 0.3);
  sub.x(0);
  sub.rz(1, -0.8);
  sub.add_global_phase(0.15);

  QuantumCircuit whole(3);
  whole.compose_mapped(sub, {0, 1});
  // Controlled version with control = qubit 2.
  QuantumCircuit sub3(3);
  sub3.compose_mapped(sub, {0, 1});
  const QuantumCircuit controlled = sub3.controlled_on(2);

  // Reference: embed controlled(U_sub) with control as the highest bit.
  const Matrix u_sub = sub.to_unitary();
  const Matrix expected = embed_gate(gates::controlled(u_sub), {0, 1, 2}, 3);
  EXPECT_TRUE(controlled.to_unitary().approx_equal(expected, 1e-9));
}

TEST(Circuit, ControlledOnRejectsOverlap) {
  QuantumCircuit qc(2);
  qc.h(0);
  qc.h(1);
  EXPECT_THROW(qc.controlled_on(1), CheckError);
}

TEST(Circuit, ControlledOnRejectsUnsupportedGates) {
  // Only {id, x, h, p, rz, cp} have a controlled form; any other gate
  // throws a CheckError naming it.
  for (const Gate& g :
       {make_gate2(GateKind::kSWAP, 0, 1), make_gate1(GateKind::kSX, 1)}) {
    QuantumCircuit qc(3);
    qc.h(0);
    qc.append(g);
    try {
      const QuantumCircuit controlled = qc.controlled_on(2);
      ADD_FAILURE() << g.to_string() << " controlled into "
                    << controlled.gates().size() << " gates";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported gate " +
                                           g.to_string()),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Circuit, SameShapeCopiesRegisters) {
  QuantumCircuit qc(0);
  qc.add_register("a", 2);
  qc.add_register("b", 3);
  qc.h(0);
  const QuantumCircuit shaped = QuantumCircuit::same_shape(qc);
  EXPECT_EQ(shaped.num_qubits(), 5);
  EXPECT_TRUE(shaped.gates().empty());
  EXPECT_EQ(shaped.reg("b").start, 2);
}

}  // namespace
}  // namespace qfab
