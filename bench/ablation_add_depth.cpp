// Ablation A: approximating the *addition step* itself (the paper defers
// this to future work, predicting smaller benefit than the AQFT because
// the cutoff directly perturbs the applied phase shifts and removes half
// as many gates). We sweep the add-step depth alongside the AQFT depth.
#include <iostream>

#include "common/cli.h"
#include "common/stopwatch.h"
#include "exp/sweep.h"
#include "transpile/transpile.h"

int main(int argc, char** argv) try {
  using namespace qfab;
  const CliFlags flags(argc, argv);
  const int n = static_cast<int>(flags.get_int("n", 8));
  const int instances = static_cast<int>(flags.get_int("instances", 10));
  const int traj = static_cast<int>(flags.get_int("traj", 8));
  const auto shots =
      static_cast<std::uint64_t>(flags.get_int("shots", 2048));
  const double rate2q = flags.get_double("rate2q", 1.0);  // percent
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 99));
  if (!flags.validate()) return 2;

  std::cout << "=== Ablation: approximate addition step (QFA n = " << n
            << ", P2q = " << rate2q << "%) ===\n"
            << "add-depth 0 = exact addition step; AQFT depth varied per "
               "column.\n\n";

  Pcg64 gen(seed);
  const auto insts = generate_instances(instances, n, n, {2, 2}, gen);

  TextTable table({"add_depth", "aqft d=2", "aqft d=3", "aqft d=full",
                   "2q gates (d=3)"});
  Stopwatch watch;
  for (int add_depth : {0, 1, 2, 3, 4}) {
    std::vector<std::string> row = {add_depth == 0
                                        ? std::string("exact")
                                        : std::to_string(add_depth)};
    std::size_t gates_2q = 0;
    for (int depth : {2, 3, kFullDepth}) {
      SweepConfig cfg;
      cfg.base.op = Operation::kAdd;
      cfg.base.n = n;
      cfg.base.add_depth = add_depth;
      cfg.depths = {depth};
      cfg.rates_percent = {rate2q};
      cfg.vary_2q = true;
      cfg.include_noise_free = false;
      cfg.instances = instances;
      cfg.run.shots = shots;
      cfg.run.error_trajectories = traj;
      cfg.seed = seed;
      const SweepResult r = run_sweep(cfg, insts);
      row.push_back(fmt_percent(r.points[0].stats.success_rate, 1) + "%");
      if (depth == 3) {
        CircuitSpec spec = cfg.base;
        spec.depth = 3;
        gates_2q = build_transpiled_circuit(spec).counts().two_qubit;
      }
    }
    row.push_back(std::to_string(gates_2q));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(" << fmt_double(watch.seconds(), 1) << " s; instances="
            << instances << " shots=" << shots << " traj=" << traj << ")\n"
            << "Expected: shallow add-depth removes gates but corrupts the\n"
            << "encoded sums; only mild cutoffs can pay off, and less than\n"
            << "the AQFT (paper Sec. III).\n";
  return 0;
} catch (const qfab::UsageError& e) {
  return qfab::usage_error(argv[0], e);
}
