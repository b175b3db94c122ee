// QFM correctness: exhaustive classical products for both constructions,
// accumulation semantics, superposed operands, and approximation behavior.
#include <gtest/gtest.h>

#include <cmath>

#include "arith/qint.h"
#include "qfb/multiplier.h"
#include "sim/statevector.h"

namespace qfab {
namespace {

u64 run_classical_mult(int n, int m, u64 x, u64 y, u64 z0, bool fused,
                       const MultiplierOptions& opt = {}) {
  const QuantumCircuit qc = make_qfm(n, m, opt, fused);
  StateVector sv(2 * (n + m));
  sv.set_basis_state(x | (y << n) | (z0 << (n + m)));
  sv.apply_circuit(qc);
  const auto probs = sv.probabilities();
  u64 best = 0;
  double best_p = -1.0;
  for (u64 i = 0; i < probs.size(); ++i)
    if (probs[i] > best_p) {
      best_p = probs[i];
      best = i;
    }
  EXPECT_NEAR(best_p, 1.0, 1e-8) << "state not classical";
  EXPECT_EQ(best & (pow2(n) - 1), x) << "x modified";
  EXPECT_EQ((best >> n) & (pow2(m) - 1), y) << "y modified";
  return best >> (n + m);
}

class MultExhaustive : public ::testing::TestWithParam<bool> {};

TEST_P(MultExhaustive, TwoBitAllPairs) {
  const bool fused = GetParam();
  for (u64 x = 0; x < 4; ++x)
    for (u64 y = 0; y < 4; ++y)
      EXPECT_EQ(run_classical_mult(2, 2, x, y, 0, fused), x * y)
          << x << "*" << y;
}

TEST_P(MultExhaustive, ThreeBitAllPairs) {
  const bool fused = GetParam();
  for (u64 x = 0; x < 8; ++x)
    for (u64 y = 0; y < 8; ++y)
      EXPECT_EQ(run_classical_mult(3, 3, x, y, 0, fused), x * y);
}

TEST_P(MultExhaustive, MixedWidths) {
  const bool fused = GetParam();
  for (u64 x = 0; x < 4; ++x)      // n=2
    for (u64 y = 0; y < 8; ++y)    // m=3
      EXPECT_EQ(run_classical_mult(2, 3, x, y, 0, fused), x * y);
}

INSTANTIATE_TEST_SUITE_P(Constructions, MultExhaustive,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "fused" : "cascade";
                         });

TEST(Multiplier, FusedAccumulatesIntoArbitraryZ) {
  // The fused (single-QFT) form is a true accumulator: exhaustive over all
  // nonzero starting z.
  for (u64 x = 0; x < 4; ++x)
    for (u64 y = 0; y < 4; ++y)
      for (u64 z0 = 0; z0 < 16; z0 += 3)
        EXPECT_EQ(run_classical_mult(2, 2, x, y, z0, true),
                  (z0 + x * y) % 16);
}

TEST(Multiplier, CascadeRequiresZeroedProductRegister) {
  // The paper's cQFA cascade adds y into sliding (m+1)-qubit windows; a
  // carry out of an *interior* window is silently dropped, so the cascade
  // is only exact when the no-overflow invariant holds — guaranteed from
  // z = 0 (partial sums stay below the window top), not for arbitrary z.
  // Witness: z=7, x=1, y=1 should give 8 but the step-1 window [0,3)
  // wraps 7+1 to 0.
  EXPECT_EQ(run_classical_mult(2, 2, 1, 1, 7, false), 0u);
  EXPECT_EQ(run_classical_mult(2, 2, 1, 1, 7, true), 8u);
}

TEST(Multiplier, FusedAndCascadeAgreeFromZeroedZ) {
  // With z = 0 (the paper's configuration) the constructions agree on
  // superposed x/y inputs, including output phases up to global phase.
  const int n = 2, m = 2;
  const QuantumCircuit a = make_qfm(n, m, {}, false);
  const QuantumCircuit b = make_qfm(n, m, {}, true);
  const QInt qx = QInt::uniform(n, {0, 1, 2, 3});
  const QInt qy = QInt::uniform(m, {1, 2, 3});
  StateVector sa = prepare_product_state(
      2 * (n + m), {{QubitRange{0, n}, qx}, {QubitRange{n, m}, qy}});
  StateVector sb = sa;
  sa.apply_circuit(a);
  sb.apply_circuit(b);
  const auto pa = sa.probabilities();
  const auto pb = sb.probabilities();
  double d = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) d += std::abs(pa[i] - pb[i]);
  EXPECT_LT(d, 1e-8);
}

TEST(Multiplier, SuperposedOperandsGiveAllProducts) {
  const int n = 2, m = 2;
  const QuantumCircuit qc = make_qfm(n, m, {});
  const QInt x = QInt::uniform(n, {1, 3});
  const QInt y = QInt::uniform(m, {2, 3});
  StateVector sv = prepare_product_state(
      2 * (n + m), {{QubitRange{0, n}, x}, {QubitRange{n, m}, y}});
  sv.apply_circuit(qc);
  const auto marg = sv.marginal_probabilities({4, 5, 6, 7});
  // Products: 2, 3, 6, 9 — all distinct, each with probability 1/4.
  for (u64 p : {2, 3, 6, 9}) EXPECT_NEAR(marg[p], 0.25, 1e-9) << p;
  EXPECT_NEAR(marg[0], 0.0, 1e-12);
}

TEST(Multiplier, CascadeUsesOnlyControlledAlphabet) {
  const QuantumCircuit qc = make_qfm(2, 2, {});
  for (const Gate& g : qc.gates()) {
    const bool ok = g.kind == GateKind::kCH || g.kind == GateKind::kCCP ||
                    g.kind == GateKind::kCP || g.kind == GateKind::kP;
    EXPECT_TRUE(ok) << g.to_string();
  }
}

TEST(Multiplier, GateCountsGrowWithDepth) {
  MultiplierOptions d1, d2;
  d1.qft_depth = 1;
  d2.qft_depth = 2;
  const auto c1 = make_qfm(4, 4, d1).counts();
  const auto c2 = make_qfm(4, 4, d2).counts();
  const auto cf = make_qfm(4, 4, {}).counts();
  EXPECT_LT(c1.total(), c2.total());
  EXPECT_LT(c2.total(), cf.total());
  // Depth step adds 3 CCPs per cQFT: 8 cQFT/icQFT blocks -> 24.
  EXPECT_EQ(c2.by_name.at("ccp") - c1.by_name.at("ccp"), 24u);
}

TEST(Multiplier, WindowStructure) {
  // The paper's cascade: window cQFT of m+1 qubits, full depth m.
  // ccp count per cQFA = 2*qft_rotation_count(m+1, full) + cadd(14 for
  // m=4); total for n=4: 4 * (2*10 + 14) = 136.
  const auto counts = make_qfm(4, 4, {}).counts();
  EXPECT_EQ(counts.by_name.at("ccp"), 136u);
  EXPECT_EQ(counts.by_name.at("ch"), 40u);  // 5 qubits * 2 * 4 cQFAs
}

TEST(Multiplier, RejectsWrongProductWidth) {
  QuantumCircuit qc(7);
  EXPECT_THROW(append_qfm(qc, {0, 1}, {2, 3}, {4, 5, 6}), CheckError);
}

TEST(Multiplier, ApproximateDepthOneStillOftenCorrectAtTinySizes) {
  // With n=m=2 windows are 3 qubits; depth 1 truncates one rotation per
  // cQFT. The result is not guaranteed exact — this documents behavior:
  // measure argmax and count how many of the 16 products survive.
  MultiplierOptions opt;
  opt.qft_depth = 1;
  int correct = 0;
  for (u64 x = 0; x < 4; ++x)
    for (u64 y = 0; y < 4; ++y) {
      const QuantumCircuit qc = make_qfm(2, 2, opt);
      StateVector sv(8);
      sv.set_basis_state(x | (y << 2));
      sv.apply_circuit(qc);
      const auto marg = sv.marginal_probabilities({4, 5, 6, 7});
      u64 best = 0;
      for (u64 i = 1; i < 16; ++i)
        if (marg[i] > marg[best]) best = i;
      correct += (best == x * y);
    }
  EXPECT_GE(correct, 10);  // most survive; the paper sees d=1 degrade
  EXPECT_LE(correct, 16);
}

}  // namespace
}  // namespace qfab
