#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "linalg/gates.h"
#include "linalg/matrix.h"

namespace qfab {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Matrix, IdentityAndMultiply) {
  const Matrix i2 = Matrix::identity(2);
  const Matrix x = gates::X();
  EXPECT_TRUE((i2 * x).approx_equal(x));
  EXPECT_TRUE((x * x).approx_equal(i2));
}

TEST(Matrix, AdjointOfProduct) {
  const Matrix a = gates::H() * gates::SX();
  EXPECT_TRUE((a * a.adjoint()).approx_equal(Matrix::identity(2)));
}

TEST(Matrix, ApplyVector) {
  const std::vector<cplx> v = {1.0, 0.0};
  const auto hv = gates::H().apply(v);
  EXPECT_NEAR(std::abs(hv[0]), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(hv[1]), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(Matrix, KronDimensionsAndValues) {
  const Matrix k = gates::X().kron(gates::I());
  EXPECT_EQ(k.rows(), 4u);
  // X ⊗ I flips the high-order bit: |00> -> |10>.
  EXPECT_EQ(k.at(2, 0), cplx(1.0, 0.0));
  EXPECT_EQ(k.at(0, 0), cplx(0.0, 0.0));
}

TEST(Matrix, EqualUpToPhase) {
  const Matrix h = gates::H();
  const Matrix rotated = h * cplx{std::cos(1.2), std::sin(1.2)};
  EXPECT_TRUE(h.equal_up_to_phase(rotated));
  EXPECT_FALSE(h.equal_up_to_phase(gates::X()));
  EXPECT_FALSE(h.approx_equal(rotated));
}

class GateUnitarity : public ::testing::TestWithParam<const char*> {};

TEST(Gates, AllUnitary) {
  const Matrix all[] = {gates::I(),    gates::X(),      gates::Y(),
                        gates::Z(),    gates::H(),      gates::SX(),
                        gates::SXdg(), gates::RZ(0.7),  gates::P(2.2),
                        gates::CX(),   gates::CP(0.9),  gates::CH(),
                        gates::SWAP(), gates::CCP(1.3)};
  for (const Matrix& m : all) EXPECT_TRUE(m.is_unitary());
}

TEST(Gates, SxSquaredIsX) {
  EXPECT_TRUE((gates::SX() * gates::SX()).approx_equal(gates::X()));
  EXPECT_TRUE((gates::SX() * gates::SXdg()).approx_equal(Matrix::identity(2)));
}

TEST(Gates, PauliAlgebra) {
  const cplx i{0.0, 1.0};
  EXPECT_TRUE((gates::X() * gates::Y()).approx_equal(gates::Z() * i));
  EXPECT_TRUE((gates::Y() * gates::Z()).approx_equal(gates::X() * i));
  EXPECT_TRUE((gates::Z() * gates::X()).approx_equal(gates::Y() * i));
}

TEST(Gates, RzIsPhaseUpToGlobal) {
  // P(θ) = e^{iθ/2} RZ(θ).
  const double theta = 0.83;
  const cplx ph{std::cos(theta / 2), std::sin(theta / 2)};
  EXPECT_TRUE((gates::RZ(theta) * ph).approx_equal(gates::P(theta)));
}

TEST(Gates, RlAngles) {
  // R_1 = P(π) = Z, R_2 = P(π/2) = S.
  EXPECT_TRUE(gates::R_l(1).approx_equal(gates::Z()));
  EXPECT_NEAR(std::arg(gates::R_l(2).at(1, 1)), kPi / 2, 1e-12);
  EXPECT_NEAR(std::arg(gates::R_l(3).at(1, 1)), kPi / 4, 1e-12);
}

TEST(Gates, ControlledStructure) {
  // CX: control is the high gate-local bit (basis order |control target>).
  const Matrix cx = gates::CX();
  EXPECT_EQ(cx.at(0, 0), cplx(1.0, 0.0));  // |00> fixed
  EXPECT_EQ(cx.at(1, 1), cplx(1.0, 0.0));  // |01> fixed (control=0)
  EXPECT_EQ(cx.at(3, 2), cplx(1.0, 0.0));  // |10> -> |11>
  EXPECT_EQ(cx.at(2, 3), cplx(1.0, 0.0));  // |11> -> |10>
}

TEST(Gates, CcpOnlyPhasesAllOnes) {
  const Matrix ccp = gates::CCP(0.77);
  for (std::size_t i = 0; i < 8; ++i) {
    const cplx d = ccp.at(i, i);
    if (i == 7)
      EXPECT_NEAR(std::arg(d), 0.77, 1e-12);
    else
      EXPECT_EQ(d, cplx(1.0, 0.0));
  }
}

TEST(EmbedGate, SingleQubitPlacement) {
  // X on qubit 1 of 3: |000> -> |010>.
  const Matrix u = embed_gate(gates::X(), {1}, 3);
  EXPECT_EQ(u.at(0b010, 0b000), cplx(1.0, 0.0));
  EXPECT_EQ(u.at(0b101, 0b111), cplx(1.0, 0.0));
  EXPECT_TRUE(u.is_unitary());
}

TEST(EmbedGate, TwoQubitOrdering) {
  // CX with target=qubit 0, control=qubit 2 in a 3-qubit system.
  const Matrix u = embed_gate(gates::CX(), {0, 2}, 3);
  EXPECT_EQ(u.at(0b101, 0b100), cplx(1.0, 0.0));  // control set: flips bit 0
  EXPECT_EQ(u.at(0b001, 0b001), cplx(1.0, 0.0));  // control clear: identity
  EXPECT_TRUE(u.is_unitary());
}

TEST(EmbedGate, MatchesKronForAdjacentQubits) {
  // Gate on qubits {0,1} of 2 qubits is the gate itself.
  EXPECT_TRUE(embed_gate(gates::CP(0.5), {0, 1}, 2)
                  .approx_equal(gates::CP(0.5)));
  // H on qubit 1 of 2 = H ⊗ I (high bit ⊗ low bit).
  EXPECT_TRUE(
      embed_gate(gates::H(), {1}, 2).approx_equal(gates::H().kron(gates::I())));
}

TEST(EmbedGate, ThreeQubitPermuted) {
  // CCX with target on qubit 2, controls on 0 and 1: |011> -> |111>.
  const Matrix ccx = gates::controlled(gates::controlled(gates::X()));
  const Matrix u = embed_gate(ccx, {2, 0, 1}, 3);
  EXPECT_EQ(u.at(0b111, 0b011), cplx(1.0, 0.0));
  EXPECT_EQ(u.at(0b011, 0b111), cplx(1.0, 0.0));
  EXPECT_EQ(u.at(0b010, 0b010), cplx(1.0, 0.0));
  EXPECT_TRUE(u.is_unitary());
}

}  // namespace
}  // namespace qfab
