#include "figure_common.h"

#include <iostream>

#include "bench_common.h"

namespace qfab::bench {

std::vector<double> default_rates_1q() {
  return {0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0};
}

std::vector<double> default_rates_2q() {
  return {0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.0};
}

std::vector<long> default_depths_qfa() { return {1, 2, 3, 4, kFullDepth}; }

std::vector<long> default_depths_qfm() { return {1, 2, 3, kFullDepth}; }

bool parse_precision_name(const std::string& name, Precision& out) {
  if (name == "double") {
    out = Precision::kDouble;
  } else if (name == "float32") {
    out = Precision::kFloat32;
  } else if (name == "auto") {
    out = Precision::kAuto;
  } else {
    return false;
  }
  return true;
}

bool parse_scale(const CliFlags& flags, FigureScale& scale,
                 int paper_instances) {
  if (flags.get_bool("paper-scale", false)) {
    scale.instances = paper_instances;
    scale.trajectories = 64;
  }
  const long instances = flags.get_int("instances", scale.instances);
  const long shots = flags.get_int("shots", static_cast<long>(scale.shots));
  const long trajectories = flags.get_int("traj", scale.trajectories);
  scale.per_shot = flags.get_bool("per-shot", scale.per_shot);
  scale.shared_trajectories =
      flags.get_bool("shared-trajectories", scale.shared_trajectories);
  scale.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<long>(scale.seed)));
  scale.depths = flags.get_int_list("depths", scale.depths);
  scale.rates_1q_percent =
      flags.get_double_list("rates1q", scale.rates_1q_percent);
  scale.rates_2q_percent =
      flags.get_double_list("rates2q", scale.rates_2q_percent);
  scale.csv_prefix = flags.get_string("csv", scale.csv_prefix);
  scale.checkpoint = flags.get_string("checkpoint", scale.checkpoint);
  scale.resume = flags.get_bool("resume", scale.resume);
  scale.noisy_rz = !flags.get_bool("rz-noiseless", !scale.noisy_rz);
  scale.measure_all = flags.get_bool("measure-all", scale.measure_all);
  scale.progress = !flags.get_bool("quiet", !scale.progress);
  const std::string prec =
      flags.get_string("precision", precision_name(scale.precision));
  if (!parse_precision_name(prec, scale.precision)) {
    std::cerr << "--precision must be double, float32, or auto (got " << prec
              << ")\n";
    return false;
  }
  if (!flags.validate()) return false;
  // Range checks come after every flag and --paper-scale are in. A count
  // below 1, a depth below -1 or a rate outside (0, 100] would abort inside
  // the sweep or print a meaningless panel: --shots 0 reads as 100%
  // success everywhere, and a 0% rate repeats the noise-free row.
  scale.instances = require_count("instances", instances);
  scale.trajectories = require_count("traj", trajectories);
  require(shots >= 1, "shots", "at least 1", shots);
  for (long depth : scale.depths)
    require(depth >= 0 || depth == kFullDepth, "depths",
            ">= 0, or -1 for full depth", depth);
  for (double rate : scale.rates_1q_percent) require_rate("rates1q", rate);
  for (double rate : scale.rates_2q_percent) require_rate("rates2q", rate);
  scale.shots = static_cast<std::uint64_t>(shots);
  return true;
}

namespace {

std::vector<int> to_depths(const std::vector<long>& in) {
  std::vector<int> out;
  out.reserve(in.size());
  for (long d : in) out.push_back(static_cast<int>(d));
  return out;
}

void maybe_write_csv(const SweepResult& result, const std::string& prefix,
                     const std::string& row_name, const char* axis) {
  if (prefix.empty()) return;
  const std::string path = prefix + "_" + row_name + "_" + axis + ".csv";
  sweep_csv_table(result).write_csv(path);
  std::cout << "  wrote " << path << '\n';
}

}  // namespace

bool run_figure_row(const FigureScale& scale, const CircuitSpec& base,
                    const OperandOrders& orders, const std::string& row_name,
                    const std::string& reference_note) {
  SweepConfig cfg;
  cfg.base = base;
  cfg.base.measure_all = scale.measure_all;
  cfg.depths = to_depths(scale.depths);
  cfg.orders = orders;
  cfg.instances = scale.instances;
  cfg.run.shots = scale.shots;
  cfg.run.error_trajectories = scale.trajectories;
  cfg.run.per_shot = scale.per_shot;
  cfg.run.shared_trajectories = scale.shared_trajectories;
  cfg.run.noisy_rz = scale.noisy_rz;
  cfg.run.precision = scale.precision;
  cfg.seed = scale.seed;
  cfg.progress = scale.progress;

  // One operand set per row, shared by both error-rate columns (paper
  // Sec. IV). The row seed folds in the operand orders.
  Pcg64 row_rng(scale.seed ^ (static_cast<std::uint64_t>(orders.order_x) << 8)
                           ^ static_cast<std::uint64_t>(orders.order_y));
  const auto instances = generate_instances(
      scale.instances, base.n, base.n, orders, row_rng);

  auto run_panel = [&](const char* axis) {
    const long fallbacks_before = precision_fallback_count();
    DurableOptions durable;
    if (!scale.checkpoint.empty()) {
      durable.journal_path =
          scale.checkpoint + "_" + row_name + "_" + axis + ".journal";
      durable.resume = scale.resume;
    }
    const SweepResult result = run_sweep_durable(cfg, instances, durable);
    if (!result.complete) {
      std::cout << "panel " << row_name << " (" << axis << ") drained after "
                << result.units_done << '/' << result.units_total
                << " work units";
      if (!scale.checkpoint.empty())
        std::cout << "; resume with --checkpoint=" << scale.checkpoint
                  << " --resume";
      std::cout << '\n';
      return false;
    }
    print_sweep(std::cout, result,
                "panel " + row_name + " | varying " + axis + " gate error (" +
                    reference_note + ")");
    if (scale.precision != Precision::kDouble)
      std::cout << "  precision=" << precision_name(scale.precision)
                << " drift-sentinel fallbacks: "
                << precision_fallback_count() - fallbacks_before << '\n';
    maybe_write_csv(result, scale.csv_prefix, row_name, axis);
    return true;
  };

  cfg.vary_2q = false;
  cfg.rates_percent = scale.rates_1q_percent;
  if (!run_panel("1q")) return false;

  cfg.vary_2q = true;
  cfg.rates_percent = scale.rates_2q_percent;
  return run_panel("2q");
}

}  // namespace qfab::bench
