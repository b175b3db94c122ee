// Extension-noise validation: readout confusion matrices and
// Pauli-twirled thermal relaxation (the paper's deferred future work).
#include <gtest/gtest.h>

#include <cmath>

#include "exp/experiment.h"
#include "noise/estimator.h"
#include "noise/readout.h"
#include "noise/thermal.h"
#include "transpile/transpile.h"

namespace qfab {
namespace {

// ---------- readout ----------

TEST(Readout, DisabledIsIdentity) {
  std::vector<double> dist = {0.25, 0.25, 0.5, 0.0};
  const std::vector<double> before = dist;
  apply_readout_error(dist, ReadoutError{});
  EXPECT_EQ(dist, before);
}

TEST(Readout, SingleBitConfusion) {
  // P(1|0)=0.1, P(0|1)=0.2 on a deterministic |0>.
  std::vector<double> dist = {1.0, 0.0};
  apply_readout_error(dist, ReadoutError{0.1, 0.2});
  EXPECT_NEAR(dist[0], 0.9, 1e-12);
  EXPECT_NEAR(dist[1], 0.1, 1e-12);
  // ... and on |1>.
  dist = {0.0, 1.0};
  apply_readout_error(dist, ReadoutError{0.1, 0.2});
  EXPECT_NEAR(dist[0], 0.2, 1e-12);
  EXPECT_NEAR(dist[1], 0.8, 1e-12);
}

TEST(Readout, TwoBitTensorStructure) {
  // |01> (bit0 = 1, bit1 = 0) through symmetric p = 0.1 flips.
  std::vector<double> dist = {0.0, 1.0, 0.0, 0.0};
  apply_readout_error(dist, ReadoutError{0.1, 0.1});
  EXPECT_NEAR(dist[0b01], 0.81, 1e-12);
  EXPECT_NEAR(dist[0b00], 0.09, 1e-12);
  EXPECT_NEAR(dist[0b11], 0.09, 1e-12);
  EXPECT_NEAR(dist[0b10], 0.01, 1e-12);
}

TEST(Readout, PreservesNormalization) {
  std::vector<double> dist = {0.1, 0.2, 0.3, 0.15, 0.05, 0.1, 0.05, 0.05};
  apply_readout_error(dist, ReadoutError{0.07, 0.13});
  double total = 0.0;
  for (double p : dist) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Readout, HeterogeneousPerQubit) {
  std::vector<double> dist = {1.0, 0.0, 0.0, 0.0};
  // Bit 0 perfect, bit 1 always misread as 1.
  apply_readout_error(dist, std::vector<ReadoutError>{{0.0, 0.0}, {1.0, 0.0}});
  EXPECT_NEAR(dist[0b10], 1.0, 1e-12);
  EXPECT_THROW(apply_readout_error(dist, std::vector<ReadoutError>{{}}),
               CheckError);
}

TEST(Readout, PerShotAndDistributionModesAgree) {
  // Per-shot bit flipping and confusion-matrix application must produce
  // statistically identical counts.
  const QuantumCircuit qc = transpile_to_basis(make_qfa(3, 3, {}));
  StateVector init(6);
  init.set_basis_state(2 | (3 << 3));
  const CleanRun clean(qc, init, 16);
  const ErrorLocations no_noise(qc, NoiseModel{});
  const ReadoutError ro{0.05, 0.1};
  Pcg64 rng1(1), rng2(2);

  const std::uint64_t shots = 40000;
  const auto per_shot =
      sample_counts_per_shot(clean, no_noise, {3, 4, 5}, shots, rng1, ro);
  std::vector<double> dist = clean.ideal_marginal({3, 4, 5});
  apply_readout_error(dist, ro);
  double tv = 0.0;
  for (std::size_t i = 0; i < dist.size(); ++i)
    tv += std::abs(dist[i] - static_cast<double>(per_shot[i]) /
                                 static_cast<double>(shots));
  EXPECT_LT(tv / 2, 0.01);
}

TEST(Readout, DegradesSuccessInHarness) {
  CircuitSpec spec;
  spec.n = 4;
  const QuantumCircuit circuit = build_transpiled_circuit(spec);
  RunOptions run;
  run.shots = 512;
  run.readout = ReadoutError{0.25, 0.25};  // heavy misreads
  Pcg64 gen(3);
  const auto insts = generate_instances(6, 4, 4, {2, 2}, gen);
  int successes = 0;
  for (const auto& inst : insts) {
    const InstanceContext ctx(circuit, spec, inst, run);
    std::vector<Pcg64> rngs{Pcg64(7)};
    successes += ctx.evaluate({NoiseModel{}}, run, rngs)[0].success;
  }
  EXPECT_LT(successes, 6);
}

// ---------- thermal relaxation (PTA) ----------

TEST(Thermal, ZeroDurationIsNoiseless) {
  const PauliProbs p = thermal_pauli_twirl(100.0, 50.0, 0.0);
  EXPECT_EQ(p.total(), 0.0);
}

TEST(Thermal, PureDephasingLimit) {
  // T1 disabled: p_z = (1 - e^{-t/T2})/2, no X/Y component.
  const double t2 = 80.0, t = 10.0;
  const PauliProbs p = thermal_pauli_twirl(0.0, t2, t);
  EXPECT_DOUBLE_EQ(p.px, 0.0);
  EXPECT_DOUBLE_EQ(p.py, 0.0);
  EXPECT_NEAR(p.pz, 0.5 * (1.0 - std::exp(-t / t2)), 1e-12);
}

TEST(Thermal, AmplitudeDampingLimit) {
  // T2 = 2 T1 (no pure dephasing): twirled AD formulas.
  const double t1 = 100.0, t = 25.0;
  const double gamma = 1.0 - std::exp(-t / t1);
  const PauliProbs p = thermal_pauli_twirl(t1, 2 * t1, t);
  EXPECT_NEAR(p.px, gamma / 4, 1e-12);
  EXPECT_NEAR(p.py, gamma / 4, 1e-12);
  EXPECT_NEAR(p.pz, 0.5 * (1.0 - gamma / 2 - std::sqrt(1.0 - gamma)), 1e-12);
}

TEST(Thermal, MonotoneInDuration) {
  double prev = 0.0;
  for (double t : {1.0, 5.0, 20.0, 100.0}) {
    const double total = thermal_pauli_twirl(100.0, 70.0, t).total();
    EXPECT_GT(total, prev);
    prev = total;
  }
  EXPECT_LT(prev, 1.0);
}

TEST(Thermal, RejectsInvalidT2) {
  // T2 > 2 T1 is unphysical.
  EXPECT_THROW(thermal_pauli_twirl(10.0, 30.0, 1.0), CheckError);
}

TEST(Thermal, NoiseModelAttachesPerQubit) {
  NoiseModel nm;
  nm.t1 = 100.0;
  nm.t2 = 80.0;
  nm.time_1q = 0.1;
  nm.time_2q = 0.4;
  EXPECT_TRUE(nm.thermal_enabled());
  EXPECT_TRUE(nm.enabled());
  // RZ is virtual: no relaxation.
  EXPECT_DOUBLE_EQ(nm.gate_duration(make_gate1(GateKind::kRZ, 0, 0.1)), 0.0);
  EXPECT_DOUBLE_EQ(nm.gate_duration(make_gate1(GateKind::kSX, 0)), 0.1);
  EXPECT_DOUBLE_EQ(nm.gate_duration(make_gate2(GateKind::kCX, 0, 1)), 0.4);

  // A circuit of 1 sx + 1 cx gets 1 + 2 thermal locations.
  QuantumCircuit qc(2);
  qc.sx(0);
  qc.cx(0, 1);
  const ErrorLocations locs(transpile_to_basis(qc), nm);
  EXPECT_EQ(locs.noisy_gate_count(), 3u);
}

TEST(Thermal, ExpectedEventsScaleWithCircuit) {
  NoiseModel nm;
  nm.t1 = 200.0;
  nm.t2 = 150.0;
  nm.time_1q = 0.05;
  nm.time_2q = 0.3;
  const QuantumCircuit small = transpile_to_basis(make_qfa(3, 3, {}));
  const QuantumCircuit large = transpile_to_basis(make_qfa(4, 4, {}));
  const ErrorLocations ls(small, nm);
  const ErrorLocations ll(large, nm);
  EXPECT_GT(ll.expected_events(), ls.expected_events());
  EXPECT_LT(ls.clean_probability(), 1.0);
}

TEST(Thermal, TrajectorySamplingRespectsWeights) {
  // Pure dephasing -> every thermal event must be a Z.
  NoiseModel nm;
  nm.t2 = 10.0;
  nm.time_1q = 1.0;
  nm.time_2q = 1.0;
  QuantumCircuit qc(2);
  qc.sx(0);
  qc.cx(0, 1);
  qc.sx(1);
  const QuantumCircuit basis = transpile_to_basis(qc);
  const ErrorLocations locs(basis, nm);
  Pcg64 rng(9);
  int events = 0;
  for (int rep = 0; rep < 400; ++rep)
    for (const ErrorEvent& ev : locs.sample_at_least_one(rng)) {
      ++events;
      EXPECT_TRUE(ev.pauli0 == Pauli::kZ || ev.pauli0 == Pauli::kI);
      EXPECT_TRUE(ev.pauli1 == Pauli::kZ || ev.pauli1 == Pauli::kI);
    }
  EXPECT_GT(events, 400);
}

TEST(Thermal, DegradesArithmeticSuccess) {
  CircuitSpec spec;
  spec.n = 4;
  const QuantumCircuit circuit = build_transpiled_circuit(spec);
  RunOptions run;
  run.shots = 512;
  run.error_trajectories = 8;
  NoiseModel hot;
  hot.t1 = 50.0;
  hot.t2 = 40.0;
  hot.time_1q = 0.5;
  hot.time_2q = 2.0;  // absurdly slow gates vs T1
  Pcg64 gen(11);
  const auto insts = generate_instances(6, 4, 4, {2, 2}, gen);
  int successes = 0;
  for (const auto& inst : insts) {
    const InstanceContext ctx(circuit, spec, inst, run);
    std::vector<Pcg64> rngs{Pcg64(13)};
    successes += ctx.evaluate({hot}, run, rngs)[0].success;
  }
  EXPECT_LT(successes, 5);
}

}  // namespace
}  // namespace qfab
