// Ablation B: validates the stratified channel estimator (DESIGN.md
// substitution #2) against paper-faithful per-shot trajectory simulation,
// and reports the speedup that makes the figure sweeps tractable.
#include <cmath>
#include <iostream>

#include "common/cli.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "exp/experiment.h"
#include "noise/estimator.h"
#include "transpile/transpile.h"

int main(int argc, char** argv) try {
  using namespace qfab;
  const CliFlags flags(argc, argv);
  const int n = static_cast<int>(flags.get_int("n", 5));
  const int instances = static_cast<int>(flags.get_int("instances", 6));
  const auto shots =
      static_cast<std::uint64_t>(flags.get_int("shots", 2048));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  if (!flags.validate()) return 2;

  std::cout << "=== Ablation: stratified estimator vs per-shot simulation "
               "(QFA n = " << n << ") ===\n\n";

  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = n;
  const QuantumCircuit circuit = build_transpiled_circuit(spec);
  const std::vector<int> out_qubits = output_qubits(spec);

  TextTable table({"P2q%", "TV(strat,per-shot)", "succ strat", "succ shot",
                   "t strat (ms)", "t shot (ms)", "speedup"});

  Pcg64 gen(seed);
  const auto insts = generate_instances(instances, n, n, {2, 2}, gen);
  RunOptions run;
  run.shots = shots;
  run.error_trajectories = 48;

  for (double rate : {0.5, 1.0, 2.0}) {
    NoiseModel nm;
    nm.p2q = rate / 100.0;
    double tv_sum = 0.0, t_strat = 0.0, t_shot = 0.0;
    int succ_strat = 0, succ_shot = 0;
    for (int i = 0; i < instances; ++i) {
      const InstanceContext ctx(circuit, spec, insts[static_cast<std::size_t>(i)], run);
      // Recreate the pieces to time the raw estimators head-to-head.
      const CleanRun clean(circuit, make_initial_state(spec, insts[static_cast<std::size_t>(i)]),
                           run.checkpoint_interval);
      const ErrorLocations locs(circuit, nm);
      Pcg64 rng1(seed + static_cast<std::uint64_t>(i));
      Pcg64 rng2(seed + 1000 + static_cast<std::uint64_t>(i));

      Stopwatch w1;
      const auto strat = estimate_channel_marginal(
          clean, locs, out_qubits, {run.error_trajectories}, rng1);
      const auto strat_counts = sample_shot_counts(strat, shots, rng1);
      t_strat += w1.seconds();

      Stopwatch w2;
      const auto shot_counts =
          sample_counts_per_shot(clean, locs, out_qubits, shots, rng2);
      t_shot += w2.seconds();

      double tv = 0.0;
      for (std::size_t k = 0; k < strat.size(); ++k)
        tv += std::abs(strat[k] - static_cast<double>(shot_counts[k]) /
                                      static_cast<double>(shots));
      tv_sum += tv / 2.0;

      const auto correct = correct_outputs(spec, insts[static_cast<std::size_t>(i)]);
      succ_strat += evaluate_counts(strat_counts, correct).success;
      succ_shot += evaluate_counts(shot_counts, correct).success;
    }
    table.add_row(
        {fmt_double(rate, 2), fmt_double(tv_sum / instances, 4),
         std::to_string(succ_strat) + "/" + std::to_string(instances),
         std::to_string(succ_shot) + "/" + std::to_string(instances),
         fmt_double(1000 * t_strat / instances, 1),
         fmt_double(1000 * t_shot / instances, 1),
         fmt_double(t_shot / std::max(t_strat, 1e-9), 1) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nTV = total-variation distance between the stratified\n"
            << "channel estimate and the per-shot empirical distribution\n"
            << "(includes per-shot sampling noise ~ sqrt(outcomes/shots)).\n";
  return 0;
} catch (const qfab::UsageError& e) {
  return qfab::usage_error(argv[0], e);
}
