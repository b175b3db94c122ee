// Cross-module integration: the exact circuits the experiment harness
// simulates (transpiled, capped, basis-gate QFA/QFM) must compute correct
// arithmetic end-to-end, and the whole evaluation pipeline must be
// deterministic in its seeds.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/qasm.h"
#include "exp/sweep.h"
#include "transpile/transpile.h"

namespace qfab {
namespace {

double distribution_distance(const std::vector<double>& a,
                             const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

TEST(Integration, TranspiledQfaMatchesAbstractOnSuperposedStates) {
  CircuitSpec spec;
  spec.n = 4;
  const QuantumCircuit abstract = build_arith_circuit(spec);
  const QuantumCircuit basis = build_transpiled_circuit(spec);
  Pcg64 gen(7);
  for (int rep = 0; rep < 4; ++rep) {
    const auto insts = generate_instances(1, 4, 4, {2, 2}, gen);
    StateVector a = make_initial_state(spec, insts[0]);
    StateVector b = a;
    a.apply_circuit(abstract);
    b.apply_circuit(basis);
    EXPECT_LT(distribution_distance(a.probabilities(), b.probabilities()),
              1e-9);
  }
}

TEST(Integration, ExperimentQfaCircuitExhaustivelyCorrect) {
  // The exact circuit the harness runs (including the paper's R_{n-1}
  // rotation cap) still computes every 4-bit modular sum exactly.
  CircuitSpec spec;
  spec.n = 4;
  const QuantumCircuit basis = build_transpiled_circuit(spec);
  for (u64 x = 0; x < 16; ++x)
    for (u64 y = 0; y < 16; ++y) {
      StateVector sv(8);
      sv.set_basis_state(x | (y << 4));
      sv.apply_circuit(basis);
      const auto marg = sv.marginal_probabilities({4, 5, 6, 7});
      u64 best = 0;
      for (u64 i = 1; i < 16; ++i)
        if (marg[i] > marg[best]) best = i;
      ASSERT_EQ(best, (x + y) % 16) << x << "+" << y;
      // The paper's rotation cap (drops R_n) costs a few percent of
      // amplitude at this small n but never flips the argmax.
      ASSERT_GT(marg[best], 0.90);
    }
}

TEST(Integration, ExperimentQfmCircuitExhaustivelyCorrect) {
  CircuitSpec spec;
  spec.op = Operation::kMultiply;
  spec.n = 2;
  const QuantumCircuit basis = build_transpiled_circuit(spec);
  for (u64 x = 0; x < 4; ++x)
    for (u64 y = 0; y < 4; ++y) {
      StateVector sv(8);
      sv.set_basis_state(x | (y << 2));
      sv.apply_circuit(basis);
      const auto marg = sv.marginal_probabilities({4, 5, 6, 7});
      u64 best = 0;
      for (u64 i = 1; i < 16; ++i)
        if (marg[i] > marg[best]) best = i;
      ASSERT_EQ(best, x * y);
      ASSERT_GT(marg[best], 0.99);
    }
}

TEST(Integration, EvaluationIsSeedDeterministic) {
  CircuitSpec spec;
  spec.n = 5;
  const QuantumCircuit circuit = build_transpiled_circuit(spec);
  Pcg64 gen(123);
  const auto insts = generate_instances(1, 5, 5, {2, 2}, gen);
  RunOptions run;
  run.shots = 512;
  run.error_trajectories = 6;
  NoiseModel nm;
  nm.p2q = 0.01;
  const InstanceContext ctx(circuit, spec, insts[0], run);
  std::vector<Pcg64> r1{Pcg64(999)}, r2{Pcg64(999)}, r3{Pcg64(1000)};
  const InstanceOutcome o1 = ctx.evaluate({nm}, run, r1)[0];
  const InstanceOutcome o2 = ctx.evaluate({nm}, run, r2)[0];
  EXPECT_EQ(o1.margin, o2.margin);
  EXPECT_EQ(o1.success, o2.success);
  // Different seed is allowed to differ (and usually does in margin).
  const InstanceOutcome o3 = ctx.evaluate({nm}, run, r3)[0];
  (void)o3;
}

TEST(Integration, ExperimentCircuitSurvivesQasmRoundTrip) {
  CircuitSpec spec;
  spec.n = 3;
  const QuantumCircuit basis = build_transpiled_circuit(spec);
  const QuantumCircuit back = from_qasm(to_qasm(basis));
  StateVector a(6), b(6);
  a.set_basis_state(3 | (5 << 3));
  b.set_basis_state(3 | (5 << 3));
  a.apply_circuit(basis);
  b.apply_circuit(back);
  EXPECT_LT(distribution_distance(a.probabilities(), b.probabilities()),
            1e-9);
}

TEST(Integration, DeeperAqftIsMoreAccurateOnAverage) {
  // Ideal (noise-free) correct-output mass averaged over random instances
  // must not decrease from d=1 to full depth.
  CircuitSpec shallow, full;
  shallow.n = full.n = 5;
  shallow.depth = 1;
  const QuantumCircuit c_shallow = build_transpiled_circuit(shallow);
  const QuantumCircuit c_full = build_transpiled_circuit(full);
  Pcg64 gen(5);
  const auto insts = generate_instances(6, 5, 5, {1, 1}, gen);
  double mass_shallow = 0.0, mass_full = 0.0;
  for (const auto& inst : insts) {
    const auto correct = correct_outputs(shallow, inst);
    StateVector a = make_initial_state(shallow, inst);
    StateVector b = a;
    a.apply_circuit(c_shallow);
    b.apply_circuit(c_full);
    const auto ma = a.marginal_probabilities(output_qubits(shallow));
    const auto mb = b.marginal_probabilities(output_qubits(full));
    for (u64 v : correct) {
      mass_shallow += ma[v];
      mass_full += mb[v];
    }
  }
  EXPECT_GT(mass_full, mass_shallow);
  // Not exactly 1: the experiment spec keeps the paper's R_{n-1} cap.
  EXPECT_GT(mass_full / 6.0, 0.99);
}

}  // namespace
}  // namespace qfab
