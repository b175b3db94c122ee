// Regenerates paper Fig. 1: success rate of 8-qubit Quantum Fourier
// Addition vs 1q/2q gate error rate, for AQFT depths {1,2,3,4,full} and
// operand superposition orders 1:1, 1:2, 2:2 (six panels).
//
// Default scale is reduced for a single-core host; pass --paper-scale (or
// --instances/--shots/--traj) to approach the paper's 200x2048 grid, and
// --per-shot for Aer-faithful per-shot trajectory sampling.
#include <iostream>

#include "common/shutdown.h"
#include "figure_common.h"

int main(int argc, char** argv) try {
  using namespace qfab;
  using namespace qfab::bench;

  install_shutdown_latch();
  const CliFlags flags(argc, argv);
  FigureScale scale;
  scale.instances = 12;
  scale.trajectories = 10;
  scale.depths = default_depths_qfa();
  scale.rates_1q_percent = default_rates_1q();
  scale.rates_2q_percent = default_rates_2q();
  if (!parse_scale(flags, scale, /*paper_instances=*/200)) return 2;

  CircuitSpec base;
  base.op = Operation::kAdd;
  base.n = 8;

  std::cout << "=== Fig. 1: QFA success rates (n = " << base.n << ") ===\n"
            << "Reference lines: current IBM hardware ~0.2% (1q), ~1.0% (2q)."
            << "\n\n";

  const bool complete = run_figure_row(scale, base, {1, 1}, "1to1",
                                       "panels a,b") &&
                        run_figure_row(scale, base, {1, 2}, "1to2",
                                       "panels c,d") &&
                        run_figure_row(scale, base, {2, 2}, "2to2",
                                       "panels e,f");
  if (!complete) {
    std::cout << "interrupted; partial results are journaled"
              << (scale.checkpoint.empty() ? " only with --checkpoint" : "")
              << ".\n";
    return kResumableExitCode;
  }

  std::cout << "Expected shape (paper): 1:1 insensitive except d=1; higher\n"
            << "orders degrade with rate; optimal depth near log2(n)=3 with\n"
            << "cluster-to-cluster variation; d=1 consistently poor.\n";
  return 0;
} catch (const qfab::UsageError& e) {
  return qfab::usage_error(argv[0], e);
}
