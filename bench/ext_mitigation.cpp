// Extension experiment: error mitigation (deferred by the paper, Sec. I).
// Zero-noise extrapolation over exactly-scaled depolarizing rates, and
// readout-error inversion, evaluated with the paper's success metric.
#include <iostream>

#include "common/cli.h"
#include "common/stopwatch.h"
#include "exp/metrics.h"
#include "exp/sweep.h"
#include "noise/mitigation.h"
#include "transpile/transpile.h"

namespace {

using namespace qfab;

std::vector<double> channel_at_scale(const CleanRun& clean,
                                     const std::vector<int>& out_qubits,
                                     double p2q, int traj, Pcg64& rng) {
  NoiseModel nm;
  nm.p2q = p2q;
  const ErrorLocations locs(clean.circuit(), nm);
  return estimate_channel_marginal(clean, locs, out_qubits, {traj}, rng);
}

}  // namespace

int main(int argc, char** argv) try {
  const CliFlags flags(argc, argv);
  const int n = static_cast<int>(flags.get_int("n", 6));
  const int instances = static_cast<int>(flags.get_int("instances", 8));
  const int traj = static_cast<int>(flags.get_int("traj", 24));
  const auto shots = static_cast<std::uint64_t>(flags.get_int("shots", 2048));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 47));
  if (!flags.validate()) return 2;

  std::cout << "=== Extension: error mitigation (QFA n = " << n
            << ", 2:2 operands) ===\n\n";

  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = n;
  const QuantumCircuit circuit = build_transpiled_circuit(spec);
  const std::vector<int> out_qubits = output_qubits(spec);

  Pcg64 gen(seed);
  const auto insts = generate_instances(instances, n, n, {2, 2}, gen);

  Stopwatch watch;
  // ZNE is an expectation-value technique: extrapolate the *correct-output
  // probability mass* (the observable behind the success metric) from
  // scales {1x, 2x} back to zero noise, per instance, and compare with the
  // true noise-free mass. Extrapolating full 2^n-bin distributions into a
  // count-based majority vote would only amplify estimator noise.
  std::cout << "zero-noise extrapolation of the correct-output mass "
               "(scales 1x, 2x):\n";
  TextTable zne_table(
      {"P2q%", "ideal mass", "raw mass", "ZNE mass", "ZNE error"});
  for (double rate : {0.5, 1.0, 1.5, 2.0, 3.0}) {
    double ideal_sum = 0.0, raw_sum = 0.0, zne_sum = 0.0;
    for (std::size_t i = 0; i < insts.size(); ++i) {
      const CleanRun clean(circuit, make_initial_state(spec, insts[i]), 64);
      Pcg64 rng(seed ^ (i * 131 + static_cast<std::uint64_t>(rate * 10)));
      const auto correct = correct_outputs(spec, insts[i]);

      const auto d1 = channel_at_scale(clean, out_qubits, rate / 100.0,
                                       traj, rng);
      const auto d2 = channel_at_scale(clean, out_qubits, 2 * rate / 100.0,
                                       2 * traj, rng);
      const double m_ideal =
          success_mass(clean.ideal_marginal(out_qubits), correct);
      const double m1 = success_mass(d1, correct);
      const double m2 = success_mass(d2, correct);
      ideal_sum += m_ideal;
      raw_sum += m1;
      zne_sum += 2 * m1 - m2;  // linear Richardson to scale 0
    }
    const double inv = 1.0 / double(insts.size());
    zne_table.add_row({fmt_double(rate, 2), fmt_double(ideal_sum * inv, 3),
                       fmt_double(raw_sum * inv, 3),
                       fmt_double(zne_sum * inv, 3),
                       fmt_double(std::abs(zne_sum - ideal_sum) * inv, 3)});
  }
  zne_table.print(std::cout);

  std::cout << "\nreadout-error inversion (no gate noise):\n";
  TextTable ro_table({"p01=p10", "raw success", "mitigated success"});
  for (double p : {0.05, 0.1, 0.15, 0.2}) {
    const ReadoutError ro{p, p};
    int raw_ok = 0, fix_ok = 0;
    for (std::size_t i = 0; i < insts.size(); ++i) {
      const CleanRun clean(circuit, make_initial_state(spec, insts[i]), 64);
      Pcg64 rng(seed ^ (i * 517 + static_cast<std::uint64_t>(p * 1000)));
      std::vector<double> dist = clean.ideal_marginal(out_qubits);
      apply_readout_error(dist, ro);
      const auto counts = sample_shot_counts(dist, shots, rng);
      const auto correct = correct_outputs(spec, insts[i]);
      raw_ok += evaluate_counts(counts, correct).success;
      // Mitigate the *empirical* distribution, as real experiments must.
      std::vector<double> empirical(counts.size());
      for (std::size_t k = 0; k < counts.size(); ++k)
        empirical[k] = double(counts[k]) / double(shots);
      const auto fixed = invert_readout(empirical, ro);
      // Re-discretize for the counting metric.
      std::vector<std::uint64_t> fixed_counts(fixed.size());
      for (std::size_t k = 0; k < fixed.size(); ++k)
        fixed_counts[k] =
            static_cast<std::uint64_t>(std::round(fixed[k] * double(shots)));
      fix_ok += evaluate_counts(fixed_counts, correct).success;
    }
    ro_table.add_row({fmt_percent(p, 0) + "%",
                      fmt_percent(raw_ok / double(insts.size()), 1) + "%",
                      fmt_percent(fix_ok / double(insts.size()), 1) + "%"});
  }
  ro_table.print(std::cout);

  std::cout << "\n(" << fmt_double(watch.seconds(), 1)
            << " s) Linear ZNE recovers most of the correct-output mass\n"
            << "lost to moderate noise (raw -> ZNE moves toward the ideal\n"
            << "column) and degrades gracefully deep in the mixed regime.\n"
            << "Readout inversion is exactly invertible in expectation and\n"
            << "restores the count-based metric directly.\n";
  return 0;
} catch (const qfab::UsageError& e) {
  return qfab::usage_error(argv[0], e);
}
