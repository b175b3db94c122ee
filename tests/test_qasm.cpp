// OpenQASM 2.0 round-trip: export must parse back to a unitarily identical
// circuit (global phase excepted — QASM 2 has no global-phase statement).
#include <gtest/gtest.h>

#include <numbers>

#include "circuit/qasm.h"
#include "common/rng.h"
#include "qfb/adder.h"
#include "qfb/qft.h"
#include "transpile/transpile.h"

namespace qfab {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(QasmExport, HeaderAndRegisters) {
  QuantumCircuit qc(0);
  qc.add_register("x", 2);
  qc.add_register("y", 3);
  qc.h(0);
  qc.cx(1, 4);
  const std::string text = to_qasm(qc);
  EXPECT_NE(text.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(text.find("qreg x[2];"), std::string::npos);
  EXPECT_NE(text.find("qreg y[3];"), std::string::npos);
  EXPECT_NE(text.find("h x[0];"), std::string::npos);
  EXPECT_NE(text.find("cx x[1],y[2];"), std::string::npos);
}

TEST(QasmExport, SymbolicAngles) {
  QuantumCircuit qc(1);
  qc.rz(0, kPi / 2);
  qc.rz(0, -kPi);
  qc.rz(0, 3 * kPi / 4);
  qc.rz(0, 0.1234);
  const std::string text = to_qasm(qc);
  EXPECT_NE(text.find("rz(pi/2)"), std::string::npos);
  EXPECT_NE(text.find("rz(-pi)"), std::string::npos);
  EXPECT_NE(text.find("rz(3*pi/4)"), std::string::npos);
  EXPECT_NE(text.find("0.1234"), std::string::npos);
}

TEST(QasmExport, AnonymousCircuitGetsDefaultRegister) {
  QuantumCircuit qc(2);
  qc.h(1);
  EXPECT_NE(to_qasm(qc).find("qreg q[2];"), std::string::npos);
  EXPECT_NE(to_qasm(qc).find("h q[1];"), std::string::npos);
}

TEST(QasmImport, ParsesBasics) {
  const std::string text = R"(
    OPENQASM 2.0;
    include "qelib1.inc";
    // a comment
    qreg a[2];
    qreg b[1];
    h a[0];
    cx a[0],b[0];
    rz(pi/4) a[1];
    u1(-pi/2) b[0];
    barrier a;
    ch a[0],b[0];
  )";
  const QuantumCircuit qc = from_qasm(text);
  EXPECT_EQ(qc.num_qubits(), 3);
  EXPECT_EQ(qc.gates().size(), 5u);
  EXPECT_EQ(qc.gates()[0].kind, GateKind::kH);
  EXPECT_EQ(qc.gates()[2].kind, GateKind::kRZ);
  EXPECT_NEAR(qc.gates()[2].param, kPi / 4, 1e-12);
  EXPECT_EQ(qc.gates()[4].kind, GateKind::kCH);
}

TEST(QasmImport, AngleExpressions) {
  const std::string text = R"(OPENQASM 2.0;
qreg q[1];
rz(2*pi/8) q[0];
rz(pi/2 + pi/4) q[0];
rz(-(pi/3)) q[0];
rz(1.5) q[0];
)";
  const QuantumCircuit qc = from_qasm(text);
  EXPECT_NEAR(qc.gates()[0].param, kPi / 4, 1e-12);
  EXPECT_NEAR(qc.gates()[1].param, 3 * kPi / 4, 1e-12);
  EXPECT_NEAR(qc.gates()[2].param, -kPi / 3, 1e-12);
  EXPECT_NEAR(qc.gates()[3].param, 1.5, 1e-12);
}

TEST(QasmImport, SAndTShorthands) {
  const QuantumCircuit qc = from_qasm(
      "OPENQASM 2.0;\nqreg q[1];\ns q[0];\ntdg q[0];\n");
  EXPECT_EQ(qc.gates()[0].kind, GateKind::kP);
  EXPECT_NEAR(qc.gates()[0].param, kPi / 2, 1e-12);
  EXPECT_NEAR(qc.gates()[1].param, -kPi / 4, 1e-12);
}

TEST(QasmImport, Diagnostics) {
  EXPECT_THROW(from_qasm("qreg q[1];"), CheckError);  // missing header
  EXPECT_THROW(from_qasm("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];"),
               CheckError);
  EXPECT_THROW(from_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[3];"), CheckError);
  EXPECT_THROW(from_qasm("OPENQASM 2.0;\nqreg q[1];\nh r[0];"), CheckError);
  EXPECT_THROW(from_qasm("OPENQASM 2.0;\nqreg q[0];"), CheckError);
  // qelib1 gates the circuit IR has no kind for get the unsupported-gate
  // line diagnostic.
  for (const std::string gate :
       {"cz q[0],q[1]", "u3(0.1,0.2,0.3) q[0]", "ccx q[0],q[1],q[2]"}) {
    const std::string name = gate.substr(0, gate.find_first_of(" ("));
    try {
      from_qasm("OPENQASM 2.0;\nqreg q[3];\n" + gate + ";\n");
      ADD_FAILURE() << gate << " parsed";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("(line 3): unsupported gate " +
                                           name),
                std::string::npos)
          << e.what();
    }
  }
}

class QasmRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QasmRoundTrip, PreservesUnitaryUpToPhase) {
  Pcg64 rng(900 + static_cast<std::uint64_t>(GetParam()));
  const int n = 3;
  QuantumCircuit qc(0);
  qc.add_register("q", n);
  for (int i = 0; i < 20; ++i) {
    const int q = static_cast<int>(rng.uniform_int(n));
    const int r = static_cast<int>((q + 1 + rng.uniform_int(n - 1)) % n);
    const int s = 3 - q - r;
    switch (rng.uniform_int(12)) {
      case 0: qc.h(q); break;
      case 1: qc.x(q); break;
      case 2: qc.sxdg(q); break;
      case 3: qc.sx(q); break;
      case 4: qc.rz(q, rng.uniform() * 6 - 3); break;
      case 5: qc.p(q, rng.uniform() * 6); break;
      case 6: qc.id(q); break;
      case 7: qc.cx(q, r); break;
      case 8: qc.cp(q, r, rng.uniform() * 3); break;
      case 9: qc.swap(q, r); break;
      case 10: qc.ccp(q, r, s, rng.uniform() * 3); break;
      default: qc.ch(q, r); break;
    }
  }
  const QuantumCircuit back = from_qasm(to_qasm(qc));
  EXPECT_EQ(back.num_qubits(), n);
  EXPECT_TRUE(back.to_unitary().equal_up_to_phase(qc.to_unitary(), 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QasmRoundTrip, ::testing::Values(0, 1, 2, 3));

TEST(QasmRoundTripNamed, TranspiledQfaSurvives) {
  const QuantumCircuit qfa = transpile_to_basis(make_qfa(3, 3, {}));
  const QuantumCircuit back = from_qasm(to_qasm(qfa));
  EXPECT_EQ(back.gates().size(), qfa.gates().size());
  EXPECT_TRUE(back.to_unitary().equal_up_to_phase(qfa.to_unitary(), 1e-8));
  // Register names survive.
  EXPECT_TRUE(back.has_register("x"));
  EXPECT_TRUE(back.has_register("y"));
}

TEST(QasmRoundTripNamed, AbstractQftSurvives) {
  const QuantumCircuit qft = make_qft(4, kFullDepth, true);
  const QuantumCircuit back = from_qasm(to_qasm(qft));
  EXPECT_TRUE(back.to_unitary().equal_up_to_phase(qft.to_unitary(), 1e-8));
}

}  // namespace
}  // namespace qfab
