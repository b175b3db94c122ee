// Experiment-harness validation: the success metric, error bars, operand
// generation, circuit specs, and a tiny end-to-end sweep.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "exp/sweep.h"

namespace qfab {
namespace {

TEST(Success, CorrectDominatesIsSuccess) {
  //          0    1    2    3
  const std::vector<std::uint64_t> counts = {10, 1000, 5, 3};
  const auto out = evaluate_counts(counts, {1});
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.margin, 990);
}

TEST(Success, AnyIncorrectAboveAnyCorrectFails) {
  // Correct {1,2}: count(2)=5 < count(3)=8 -> fail even though 1 leads.
  const std::vector<std::uint64_t> counts = {0, 1000, 5, 8};
  const auto out = evaluate_counts(counts, {1, 2});
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.margin, -3);
}

TEST(Success, TiesCountAsSuccess) {
  const std::vector<std::uint64_t> counts = {7, 7, 0, 0};
  const auto out = evaluate_counts(counts, {0});
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.margin, 0);
}

TEST(Success, AllOutputsCorrect) {
  // No incorrect output at all: margin = min correct count - 0.
  const std::vector<std::uint64_t> counts = {3, 5};
  const auto out = evaluate_counts(counts, {0, 1});
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.margin, 3);
}

TEST(Success, CorrectOutputBeyondRangeThrows) {
  EXPECT_THROW(evaluate_counts({1, 2}, {5}), CheckError);
}

TEST(Success, AggregateStats) {
  std::vector<InstanceOutcome> outs;
  outs.push_back({true, 100});
  outs.push_back({true, 2});
  outs.push_back({false, -1});
  outs.push_back({false, -50});
  const PointStats s = aggregate_outcomes(outs);
  EXPECT_EQ(s.instances, 4);
  EXPECT_EQ(s.successes, 2);
  EXPECT_DOUBLE_EQ(s.success_rate, 0.5);
  // margins {100, 2, -1, -50}: mean 12.75, population sigma ≈ 54.44.
  EXPECT_NEAR(s.sigma, 54.44, 0.01);
  // lower: successes with margin < sigma -> {2} -> 1.
  EXPECT_EQ(s.lower_flips, 1);
  // upper: failures with margin > -sigma -> {-1, -50} -> both -> 2.
  EXPECT_EQ(s.upper_flips, 2);
}

TEST(Success, AggregateEmptyAndUniform) {
  EXPECT_EQ(aggregate_outcomes({}).instances, 0);
  std::vector<InstanceOutcome> outs(5, InstanceOutcome{true, 10});
  const PointStats s = aggregate_outcomes(outs);
  EXPECT_DOUBLE_EQ(s.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(s.sigma, 0.0);
  EXPECT_EQ(s.lower_flips, 0);  // margin 10 < sigma 0 is false
}

TEST(Instances, CountOrdersAndDeterminism) {
  Pcg64 rng1(77), rng2(77);
  const auto a = generate_instances(20, 8, 8, {2, 2}, rng1);
  const auto b = generate_instances(20, 8, 8, {2, 2}, rng2);
  ASSERT_EQ(a.size(), 20u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x.order(), 2);
    EXPECT_EQ(a[i].y.order(), 2);
    EXPECT_EQ(a[i].x.support(), b[i].x.support());
    EXPECT_EQ(a[i].y.support(), b[i].y.support());
  }
}

TEST(Instances, MostlyUniquePairs) {
  Pcg64 rng(78);
  const auto insts = generate_instances(50, 8, 8, {1, 1}, rng);
  std::set<std::pair<u64, u64>> seen;
  for (const auto& inst : insts)
    seen.insert({inst.x.support()[0], inst.y.support()[0]});
  EXPECT_EQ(seen.size(), 50u);
}

TEST(Instances, TinySpaceAllowsRepeats) {
  Pcg64 rng(79);
  // 1-bit operands: only 4 distinct pairs; asking for 10 must not hang.
  const auto insts = generate_instances(10, 1, 1, {1, 1}, rng);
  EXPECT_EQ(insts.size(), 10u);
}

TEST(Spec, RotationCapDefaults) {
  CircuitSpec add;
  add.op = Operation::kAdd;
  add.n = 8;
  EXPECT_EQ(resolve_rotation_cap(add), 7);
  CircuitSpec mult;
  mult.op = Operation::kMultiply;
  mult.n = 4;
  EXPECT_EQ(resolve_rotation_cap(mult), 0);
}

TEST(Spec, OutputQubitsAndBits) {
  CircuitSpec add;
  add.n = 8;
  EXPECT_EQ(output_bits(add), 8);
  EXPECT_EQ(output_qubits(add).front(), 8);
  EXPECT_EQ(output_qubits(add).back(), 15);
  CircuitSpec mult;
  mult.op = Operation::kMultiply;
  mult.n = 4;
  EXPECT_EQ(output_bits(mult), 8);
  EXPECT_EQ(output_qubits(mult).front(), 8);
  EXPECT_EQ(output_qubits(mult).back(), 15);
}

TEST(Spec, CorrectOutputsMatchOperation) {
  CircuitSpec add;
  add.n = 4;
  const ArithInstance inst{QInt::classical(4, 9), QInt::classical(4, 12)};
  EXPECT_EQ(correct_outputs(add, inst), std::vector<u64>{(9 + 12) % 16});
  CircuitSpec mult;
  mult.op = Operation::kMultiply;
  mult.n = 4;
  EXPECT_EQ(correct_outputs(mult, inst), std::vector<u64>{9 * 12});
}

TEST(Spec, InitialStateLayout) {
  CircuitSpec mult;
  mult.op = Operation::kMultiply;
  mult.n = 2;
  const ArithInstance inst{QInt::classical(2, 3), QInt::classical(2, 2)};
  const StateVector sv = make_initial_state(mult, inst);
  EXPECT_EQ(sv.num_qubits(), 8);
  EXPECT_NEAR(std::norm(sv.amplitude(3 | (2 << 2))), 1.0, 1e-12);
}

TEST(Context, NoiselessExactAdditionAlwaysSucceeds) {
  CircuitSpec spec;
  spec.n = 4;
  const QuantumCircuit circuit = build_transpiled_circuit(spec);
  RunOptions run;
  run.shots = 256;
  std::vector<Pcg64> rngs{Pcg64(5)};
  for (int rep = 0; rep < 5; ++rep) {
    Pcg64 gen(100 + static_cast<std::uint64_t>(rep));
    const auto insts = generate_instances(1, 4, 4, {1, 2}, gen);
    const InstanceContext ctx(circuit, spec, insts[0], run);
    const InstanceOutcome out = ctx.evaluate({NoiseModel{}}, run, rngs)[0];
    EXPECT_TRUE(out.success);
    EXPECT_GT(out.margin, 0);
  }
}

TEST(Context, HeavyNoiseDegradesSuccess) {
  CircuitSpec spec;
  spec.n = 4;
  const QuantumCircuit circuit = build_transpiled_circuit(spec);
  RunOptions run;
  run.shots = 256;
  run.error_trajectories = 8;
  NoiseModel heavy;
  heavy.p2q = 0.2;  // absurdly noisy
  Pcg64 gen(200);
  const auto insts = generate_instances(8, 4, 4, {2, 2}, gen);
  int successes = 0;
  for (const auto& inst : insts) {
    const InstanceContext ctx(circuit, spec, inst, run);
    std::vector<Pcg64> rngs{Pcg64(300)};
    successes += ctx.evaluate({heavy}, run, rngs)[0].success;
  }
  EXPECT_LT(successes, 6);
}

TEST(Sweep, EndToEndTinyAndDeterministic) {
  SweepConfig cfg;
  cfg.base.op = Operation::kAdd;
  cfg.base.n = 3;
  cfg.depths = {1, kFullDepth};
  cfg.rates_percent = {5.0};
  cfg.vary_2q = true;
  cfg.orders = {1, 1};
  cfg.instances = 4;
  cfg.run.shots = 128;
  cfg.run.error_trajectories = 4;
  cfg.seed = 42;

  Pcg64 gen1(cfg.seed), gen2(cfg.seed);
  const auto insts1 = generate_instances(cfg.instances, 3, 3, cfg.orders, gen1);
  const auto insts2 = generate_instances(cfg.instances, 3, 3, cfg.orders, gen2);
  const SweepResult r1 = run_sweep(cfg, insts1);
  const SweepResult r2 = run_sweep(cfg, insts2);

  // depths × (noise-free + 1 rate) = 4 points.
  ASSERT_EQ(r1.points.size(), 4u);
  for (std::size_t i = 0; i < r1.points.size(); ++i) {
    EXPECT_EQ(r1.points[i].stats.successes, r2.points[i].stats.successes);
    EXPECT_EQ(r1.points[i].stats.instances, 4);
  }
  // Noise-free full-depth addition is exact.
  EXPECT_DOUBLE_EQ(r1.at(kFullDepth, 0.0).stats.success_rate, 1.0);

  // Table renders without throwing and has one row per rate cluster.
  const TextTable table = sweep_table(r1);
  EXPECT_EQ(table.rows(), 2u);
  std::ostringstream os;
  print_sweep(os, r1, "tiny panel");
  EXPECT_NE(os.str().find("noise-free"), std::string::npos);
  EXPECT_NE(os.str().find("d=full"), std::string::npos);
}


TEST(Spec, MeasureAllChangesOutputLayout) {
  CircuitSpec add;
  add.n = 4;
  add.measure_all = true;
  EXPECT_EQ(output_bits(add), 8);
  EXPECT_EQ(output_qubits(add).front(), 0);
  EXPECT_EQ(output_qubits(add).back(), 7);
  CircuitSpec mult;
  mult.op = Operation::kMultiply;
  mult.n = 2;
  mult.measure_all = true;
  EXPECT_EQ(output_bits(mult), 8);
}

TEST(Spec, MeasureAllCorrectOutputsJoinOperands) {
  CircuitSpec add;
  add.n = 3;
  add.measure_all = true;
  const ArithInstance inst{QInt::uniform(3, {1, 2}), QInt::classical(3, 6)};
  // Joint outcomes: (x=1, y=7) and (x=2, y=0): 1 | 7<<3 = 57, 2 | 0<<3 = 2.
  EXPECT_EQ(correct_outputs(add, inst), (std::vector<u64>{2, 57}));

  CircuitSpec mult;
  mult.op = Operation::kMultiply;
  mult.n = 2;
  mult.measure_all = true;
  const ArithInstance mi{QInt::classical(2, 3), QInt::classical(2, 2)};
  // x=3, y=2, z=6: 3 | 2<<2 | 6<<4 = 3 + 8 + 96 = 107.
  EXPECT_EQ(correct_outputs(mult, mi), std::vector<u64>{107});
}

TEST(Context, MeasureAllNoiselessStillSucceeds) {
  CircuitSpec spec;
  spec.n = 3;
  spec.measure_all = true;
  const QuantumCircuit circuit = build_transpiled_circuit(spec);
  RunOptions run;
  run.shots = 256;
  Pcg64 gen(55);
  const auto insts = generate_instances(4, 3, 3, {2, 1}, gen);
  for (const auto& inst : insts) {
    const InstanceContext ctx(circuit, spec, inst, run);
    std::vector<Pcg64> rngs{Pcg64(66)};
    EXPECT_TRUE(ctx.evaluate({NoiseModel{}}, run, rngs)[0].success);
  }
}

TEST(Sweep, CsvRoundTripShape) {
  SweepConfig cfg;
  cfg.base.n = 3;
  cfg.depths = {kFullDepth};
  cfg.rates_percent = {};
  cfg.include_noise_free = true;
  cfg.instances = 2;
  cfg.run.shots = 64;
  Pcg64 gen(1);
  const auto insts = generate_instances(2, 3, 3, {1, 1}, gen);
  const SweepResult r = run_sweep(cfg, insts);
  ASSERT_EQ(r.points.size(), 1u);
  EXPECT_EQ(r.points[0].rate_percent, 0.0);
  EXPECT_EQ(r.points[0].stats.instances, 2);
}

TEST(Sweep, PerShotModeMatchesStratifiedAtZeroNoise) {
  SweepConfig cfg;
  cfg.base.n = 3;
  cfg.depths = {kFullDepth};
  cfg.rates_percent = {};
  cfg.instances = 3;
  cfg.run.shots = 128;
  Pcg64 g1(9), g2(9);
  const auto i1 = generate_instances(3, 3, 3, {1, 1}, g1);
  const auto i2 = generate_instances(3, 3, 3, {1, 1}, g2);
  SweepConfig per_shot = cfg;
  per_shot.run.per_shot = true;
  const SweepResult a = run_sweep(cfg, i1);
  const SweepResult b = run_sweep(per_shot, i2);
  // Noise-free evaluation ignores per_shot (no errors to unravel).
  EXPECT_EQ(a.points[0].stats.successes, b.points[0].stats.successes);
}

TEST(Sweep, DepthLabel) {
  EXPECT_EQ(depth_label(kFullDepth), "full");
  EXPECT_EQ(depth_label(3), "3");
}

}  // namespace
}  // namespace qfab
