#include "workloads.h"

#include <stdexcept>

namespace panelbench {

using namespace qfab;

namespace {

// bench/figure_common.cpp: default_rates_1q / default_rates_2q.
const std::vector<double> kQfaRates1q = {0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0};
const std::vector<double> kQfaRates2q = {0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.0};
// bench/fig2_qfm_sweep.cpp: the 2q rate axis.
const std::vector<double> kQfmRates2q = {0.1, 0.25, 0.5, 1.0, 1.5, 2.0};

SweepConfig figure_config(Operation op, int n, std::vector<int> depths,
                          std::vector<double> rates, bool vary_2q,
                          OperandOrders orders, int instances, int traj) {
  SweepConfig cfg;
  cfg.base.op = op;
  cfg.base.n = n;
  cfg.depths = std::move(depths);
  cfg.rates_percent = std::move(rates);
  cfg.vary_2q = vary_2q;
  cfg.orders = orders;
  cfg.instances = instances;
  cfg.run.shots = 2048;
  cfg.run.error_trajectories = traj;
  cfg.seed = kDefaultSeed;
  return cfg;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "qfa8-1q") {
    // Fig. 1 panel (a): QFA n=8, operands 1:1, 1q rates.
    w.config = figure_config(Operation::kAdd, 8, {1, 2, 3, 4, kFullDepth},
                             kQfaRates1q, false, {1, 1}, 12, 10);
  } else if (name == "qfm4-2q-auto") {
    // Fig. 2 panel (b): QFM n=4, operands 1:1, 2q rates, float32 replay
    // chosen by the precision policy. Depths trimmed to {1, full} so one
    // run holds several panels.
    w.config = figure_config(Operation::kMultiply, 4, {1, kFullDepth},
                             kQfmRates2q, true, {1, 1}, 8, 6);
    w.config.run.precision = Precision::kAuto;
  } else if (name == "qfa8-2to2-2cpu") {
    // Fig. 1 panel (f): QFA n=8, operands 2:2, 2q rates; 24 instances make
    // three full 8-lane blocks, so 15 units share two CPUs.
    w.config = figure_config(Operation::kAdd, 8, {1, 2, 3, 4, kFullDepth},
                             kQfaRates2q, true, {2, 2}, 24, 10);
    w.journal = true;
    w.cpus = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // One operand set per figure row, drawn from the row seed exactly as
  // bench/figure_common.cpp run_figure_row does.
  const OperandOrders& o = w.config.orders;
  Pcg64 row_rng(seed ^ (static_cast<std::uint64_t>(o.order_x) << 8) ^
                static_cast<std::uint64_t>(o.order_y));
  w.instances = generate_instances(w.config.instances, w.config.base.n,
                                   w.config.base.n, o, row_rng);
  return w;
}

std::size_t points_per_panel(const SweepConfig& config) {
  return static_cast<std::size_t>(config.instances) * config.depths.size() *
         config.expanded_rates().size();
}

SweepConfig scalar_reference(const SweepConfig& config) {
  SweepConfig ref = config;
  ref.run.batch_lanes = 1;
  ref.run.precision = Precision::kDouble;
  return ref;
}

}  // namespace panelbench
