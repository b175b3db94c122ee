// Tests of the benchmark's own machinery: the output gate and the traced
// mirror, on panels small enough to run in seconds.
#include <gtest/gtest.h>

#include "gate.h"
#include "mirror.h"
#include "workloads.h"

namespace panelbench {
namespace {

using namespace qfab;

/// A small QFA panel with a multi-rate cluster (so the shared estimator
/// reweights and sometimes falls back) and a ragged last block.
SweepConfig tiny_config(Precision precision) {
  SweepConfig cfg;
  cfg.base.op = Operation::kAdd;
  cfg.base.n = 4;
  cfg.depths = {1, kFullDepth};
  cfg.rates_percent = {0.5, 2.0, 5.0};
  cfg.vary_2q = true;
  cfg.orders = {1, 2};
  cfg.instances = 6;
  cfg.run.shots = 512;
  cfg.run.error_trajectories = 6;
  cfg.run.batch_lanes = 4;
  cfg.run.precision = precision;
  cfg.seed = 17;
  return cfg;
}

std::vector<ArithInstance> tiny_instances(const SweepConfig& cfg) {
  Pcg64 rng(cfg.seed);
  return generate_instances(cfg.instances, cfg.base.n, cfg.base.n, cfg.orders,
                            rng);
}

SweepResult assemble(const SweepExecution& exec,
                     const std::vector<UnitResult>& units) {
  SweepAssembler assembler(exec.config(), exec.grid());
  for (std::size_t u = 0; u < units.size(); ++u)
    assembler.add_computed(u, UnitResult(units[u]));
  return assembler.finish(0.0, 0, 0);
}

TEST(Gate, FailsWhenOneInstanceOutcomeIsFlipped) {
  const SweepConfig cfg = tiny_config(Precision::kDouble);
  SweepExecution exec(cfg, tiny_instances(cfg));
  std::vector<UnitResult> units;
  for (std::size_t u = 0; u < exec.grid().n_units; ++u)
    units.push_back(exec.run_unit(u));
  const std::string dir = testing::TempDir();
  const std::string good = panel_csv(assemble(exec, units), dir + "good.csv");
  const std::string ref = panel_csv(
      run_sweep(scalar_reference(cfg), tiny_instances(cfg)), dir + "ref.csv");
  EXPECT_TRUE(compare_to_reference(good, ref, cfg.run.shots).empty());

  // Flip one instance's outcome in a copy of the unit results.
  std::vector<UnitResult> corrupted = units;
  InstanceOutcome& o = corrupted[1].outcomes[2][0];
  o.success = !o.success;
  o.margin = -o.margin - 1;
  const std::string bad = panel_csv(assemble(exec, corrupted), dir + "bad.csv");
  EXPECT_FALSE(compare_to_reference(bad, ref, cfg.run.shots).empty());
  EXPECT_FALSE(compare_csv(bad, good, "csv").empty());

  SweepResult flipped = assemble(exec, units);
  flip_one_outcome(flipped, 3);
  EXPECT_FALSE(
      compare_to_reference(panel_csv(flipped, dir + "flip.csv"), ref,
                           cfg.run.shots).empty());
  EXPECT_FALSE(compare_to_reference(good, "", cfg.run.shots).empty());
}

TEST(Gate, AllowsOnlyTheSigmaShiftOfOneRedrawnInstance) {
  // 2048 shots, 8 instances: sigma may move by sqrt(2048 / 8) = 16 counts.
  EXPECT_DOUBLE_EQ(sigma_tolerance(2048, 8), 16.0);
  const std::string ref =
      "depth,rate_percent,success_rate,sigma,lower_flips,upper_flips,"
      "instances\n1,0.500,0.750000,200.000,1,0,8\n";
  std::string near = ref, far = ref, flips = ref;
  near.replace(near.find("200.000"), 7, "215.500");
  far.replace(far.find("200.000"), 7, "216.500");
  flips.replace(flips.find(",1,0,8"), 6, ",2,0,8");
  EXPECT_TRUE(compare_to_reference(near, ref, 2048).empty());
  EXPECT_FALSE(compare_to_reference(far, ref, 2048).empty());
  EXPECT_FALSE(compare_to_reference(flips, ref, 2048).empty());
}

TEST(Gate, HoldsOnlyFloat32PanelsToTheGoldenWithSigmaTolerance) {
  const std::string golden =
      "depth,rate_percent,success_rate,sigma,lower_flips,upper_flips,"
      "instances\n1,0.500,0.750000,200.000,1,0,8\n";
  std::string sigma = golden, success = golden;
  sigma.replace(sigma.find("200.000"), 7, "204.200");
  success.replace(success.find("0.750000"), 8, "0.625000");
  RunOptions run;
  run.shots = 2048;
  run.precision = Precision::kDouble;
  EXPECT_TRUE(compare_to_golden(golden, golden, "g.csv", run).empty());
  EXPECT_FALSE(compare_to_golden(sigma, golden, "g.csv", run).empty());
  for (const Precision p : {Precision::kFloat32, Precision::kAuto}) {
    run.precision = p;
    EXPECT_TRUE(compare_to_golden(sigma, golden, "g.csv", run).empty());
    EXPECT_FALSE(compare_to_golden(success, golden, "g.csv", run).empty());
  }
}

TEST(Gate, ReportsIncompleteAndPoisonedPanels) {
  SweepResult r;
  EXPECT_TRUE(health_problems(r).empty());
  r.complete = false;
  r.unit_errors.push_back("instance 0 failed");
  EXPECT_EQ(health_problems(r).size(), 2u);
}

class Mirror : public testing::TestWithParam<Precision> {};

TEST_P(Mirror, EqualsRunUnitBitForBit) {
  const SweepConfig cfg = tiny_config(GetParam());
  const std::vector<ArithInstance> instances = tiny_instances(cfg);
  SweepExecution exec(cfg, instances);
  Tracer tracer;
  const MirrorSetup setup = mirror_setup(cfg, tracer);
  ReplayProbe probe;
  SharedEstimateStats total;
  for (std::size_t u = 0; u < exec.grid().n_units; ++u) {
    const UnitResult want = exec.run_unit(u);
    const UnitResult got =
        mirror_unit(cfg, instances, exec.grid(), setup, u, tracer, &probe);
    EXPECT_TRUE(same_unit_result(got, want)) << "unit " << u;
    total.merge(got.stats);
  }
  // The cluster exercised reweighting and the ESS fallback.
  EXPECT_GT(total.unique_trajectories, 0);
  EXPECT_GT(total.fallback_columns, 0);
  EXPECT_GT(probe.trajectories, 0);
  EXPECT_LE(probe.trajectories, probe.lane_slots);

  // Every unit span has the layer spans as children, and nothing in the
  // unit runs outside them but bookkeeping.
  const std::vector<double> self = tracer.self_times();
  double unit_total = 0.0, unit_self = 0.0;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    if (std::string(s.name) != "exp.unit") continue;
    EXPECT_EQ(s.parent, -1);
    unit_total += s.end - s.start;
    unit_self += self[i];
  }
  EXPECT_GT(unit_total, 0.0);
  EXPECT_LT(unit_self, 0.2 * unit_total);
}

TEST_P(Mirror, DetectsADifferentUnit) {
  const SweepConfig cfg = tiny_config(GetParam());
  const std::vector<ArithInstance> instances = tiny_instances(cfg);
  SweepExecution exec(cfg, instances);
  Tracer tracer;
  const MirrorSetup setup = mirror_setup(cfg, tracer);
  UnitResult got = mirror_unit(cfg, instances, exec.grid(), setup, 0, tracer);
  got.outcomes[1][1].margin += 1;
  EXPECT_FALSE(same_unit_result(got, exec.run_unit(0)));
}

INSTANTIATE_TEST_SUITE_P(Precisions, Mirror,
                         testing::Values(Precision::kDouble,
                                         Precision::kFloat32));

TEST(Workloads, MatchTheFigureBenchDefaults) {
  const Workload a = make_workload("qfa8-1q", kDefaultSeed);
  EXPECT_EQ(points_per_panel(a.config), 12u * 5u * 8u);
  EXPECT_EQ(a.cpus, 0);
  const Workload b = make_workload("qfa8-2to2-2cpu", kDefaultSeed);
  EXPECT_EQ(b.cpus, 2);
  EXPECT_TRUE(b.journal);
  EXPECT_EQ(SweepGrid(b.config, b.instances.size()).n_units, 15u);
  const Workload c = make_workload("qfm4-2q-auto", 7);
  EXPECT_EQ(c.config.run.precision, Precision::kAuto);
  EXPECT_EQ(scalar_reference(c.config).run.batch_lanes, 1);
  EXPECT_EQ(scalar_reference(c.config).run.precision, Precision::kDouble);
  // The seed draws the operands; the sweep streams stay fixed.
  EXPECT_EQ(c.config.seed, kDefaultSeed);
  const Workload d = make_workload("qfm4-2q-auto", 8);
  bool operands_differ = false;
  for (std::size_t i = 0; i < c.instances.size(); ++i)
    operands_differ |= c.instances[i].x.terms()[0].value !=
                           d.instances[i].x.terms()[0].value ||
                       c.instances[i].y.terms()[0].value !=
                           d.instances[i].y.terms()[0].value;
  EXPECT_TRUE(operands_differ);
  EXPECT_THROW(make_workload("nope", 1), std::invalid_argument);
}

}  // namespace
}  // namespace panelbench
