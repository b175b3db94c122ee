// Ablation C: the paper's cQFA-cascade multiplier vs the fused Ruiz-Perez
// single-QFT construction — gate counts and noisy success rates. The fused
// form needs one QFT over the whole product register instead of 2n
// controlled window QFTs, trading CCP rotations for far fewer CH gates.
#include <iostream>

#include "common/cli.h"
#include "common/stopwatch.h"
#include "exp/sweep.h"
#include "transpile/transpile.h"

int main(int argc, char** argv) try {
  using namespace qfab;
  const CliFlags flags(argc, argv);
  const int n = static_cast<int>(flags.get_int("n", 4));
  const int instances = static_cast<int>(flags.get_int("instances", 6));
  const int traj = static_cast<int>(flags.get_int("traj", 8));
  const auto shots =
      static_cast<std::uint64_t>(flags.get_int("shots", 2048));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 17));
  if (!flags.validate()) return 2;

  std::cout << "=== Ablation: QFM construction (cascade vs fused, n = " << n
            << ") ===\n\n";

  TextTable counts_table(
      {"construction", "1q", "2q", "depth", "abstract ccp"});
  for (bool fused : {false, true}) {
    CircuitSpec spec;
    spec.op = Operation::kMultiply;
    spec.n = n;
    spec.fused_multiplier = fused;
    const QuantumCircuit abstract = build_arith_circuit(spec);
    const TranspileReport report = transpile(abstract);
    counts_table.add_row(
        {fused ? "fused (Ruiz-Perez)" : "cascade (paper Fig. 3)",
         std::to_string(report.counts.one_qubit),
         std::to_string(report.counts.two_qubit),
         std::to_string(report.circuit.depth()),
         std::to_string(abstract.counts().by_name.count("ccp")
                            ? abstract.counts().by_name.at("ccp")
                            : 0)});
  }
  counts_table.print(std::cout);
  std::cout << '\n';

  Pcg64 gen(seed);
  const auto insts = generate_instances(instances, n, n, {1, 2}, gen);
  TextTable succ_table({"P2q%", "cascade succ", "fused succ"});
  Stopwatch watch;
  for (double rate : {0.25, 0.5, 1.0}) {
    std::vector<std::string> row = {fmt_double(rate, 2)};
    for (bool fused : {false, true}) {
      SweepConfig cfg;
      cfg.base.op = Operation::kMultiply;
      cfg.base.n = n;
      cfg.base.fused_multiplier = fused;
      cfg.depths = {kFullDepth};
      cfg.rates_percent = {rate};
      cfg.vary_2q = true;
      cfg.include_noise_free = false;
      cfg.instances = instances;
      cfg.run.shots = shots;
      cfg.run.error_trajectories = traj;
      cfg.seed = seed;
      const SweepResult r = run_sweep(cfg, insts);
      row.push_back(fmt_percent(r.points[0].stats.success_rate, 1) + "%");
    }
    succ_table.add_row(std::move(row));
  }
  succ_table.print(std::cout);
  std::cout << "\n(" << fmt_double(watch.seconds(), 1)
            << " s) Expected: the fused form's ~3x fewer 2q gates buy a\n"
            << "substantially higher success rate at equal error rates —\n"
            << "quantifying what the paper's cascade layout leaves on the\n"
            << "table.\n";
  return 0;
} catch (const qfab::UsageError& e) {
  return qfab::usage_error(argv[0], e);
}
