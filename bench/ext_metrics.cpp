// Extension experiment: the paper's win/lose success metric vs graded
// metrics (Hellinger fidelity to the ideal distribution, probability mass
// on correct outputs) — the "more advanced success metric, such as
// evaluating the quantum state fidelity" suggested in the paper's
// conclusions. Shows where the majority-vote metric saturates (reads 100%
// while fidelity already degrades) and where it collapses to 0% while
// fidelity still carries signal.
#include <iostream>

#include "bench_common.h"
#include "common/cli.h"
#include "common/stopwatch.h"
#include "exp/metrics.h"
#include "exp/sweep.h"
#include "transpile/transpile.h"

int main(int argc, char** argv) try {
  using namespace qfab;
  using namespace qfab::bench;
  const CliFlags flags(argc, argv);
  const long n_flag = flags.get_int("n", 8);
  const long inst_flag = flags.get_int("instances", 8);
  const long traj_flag = flags.get_int("traj", 12);
  const long shots_flag = flags.get_int("shots", 2048);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 41));
  if (!flags.validate()) return 2;
  const int n = require_count("n", n_flag);
  const int instances = require_count("instances", inst_flag);
  const int traj = require_count("traj", traj_flag);
  require(shots_flag >= 1, "shots", "at least 1", shots_flag);
  const auto shots = static_cast<std::uint64_t>(shots_flag);

  std::cout << "=== Extension: success metrics compared (QFA n = " << n
            << ", 2:2 operands, AQFT depth 3) ===\n\n";

  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = n;
  spec.depth = 3;
  const QuantumCircuit circuit = build_transpiled_circuit(spec);
  const std::vector<int> out_qubits = output_qubits(spec);

  Pcg64 gen(seed);
  const auto insts = generate_instances(instances, n, n, {2, 2}, gen);

  TextTable table({"P2q%", "paper success", "mean Hellinger fid",
                   "mean correct mass", "mean TV to ideal"});
  Stopwatch watch;
  for (double rate : {0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0}) {
    NoiseModel noise;
    noise.p2q = rate / 100.0;
    int successes = 0;
    double fid_sum = 0.0, mass_sum = 0.0, tv_sum = 0.0;
    for (std::size_t i = 0; i < insts.size(); ++i) {
      const CleanRun clean(circuit, make_initial_state(spec, insts[i]), 64);
      const ErrorLocations locs(circuit, noise);
      Pcg64 rng(seed ^ (i * 977 + static_cast<std::uint64_t>(rate * 100)));
      const auto channel =
          estimate_channel_marginal(clean, locs, out_qubits, {traj}, rng);
      const auto counts = sample_shot_counts(channel, shots, rng);
      const auto correct = correct_outputs(spec, insts[i]);
      successes += evaluate_counts(counts, correct).success;

      const auto ideal = clean.ideal_marginal(out_qubits);
      const auto empirical = normalize_counts(counts);
      fid_sum += hellinger_fidelity(empirical, ideal);
      mass_sum += success_mass(empirical, correct);
      tv_sum += total_variation(empirical, ideal);
    }
    const double inv = 1.0 / static_cast<double>(insts.size());
    table.add_row({fmt_double(rate, 2),
                   fmt_percent(successes * inv, 1) + "%",
                   fmt_double(fid_sum * inv, 3),
                   fmt_double(mass_sum * inv, 3),
                   fmt_double(tv_sum * inv, 3)});
  }
  table.print(std::cout);
  std::cout << "\n(" << fmt_double(watch.seconds(), 1)
            << " s) The majority-vote metric is a step function of the\n"
            << "graded quantities: flat at 100% until correct-output mass\n"
            << "approaches the largest noise peak, then collapsing —\n"
            << "matching the sharp-threshold behavior the paper reports.\n";
  return 0;
} catch (const qfab::UsageError& e) {
  return qfab::usage_error(argv[0], e);
}
