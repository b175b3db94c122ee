// Shared-trajectory vs per-rate (stratified) sweep wall-clock.
//
// Runs the same figure panel — transpiled QFA(n=8), depths {1,2,3}, a
// 5-rate 1q error cluster {0.2..0.6}% — twice at equal instance /
// trajectory / shot counts: once with run.shared_trajectories off (every
// rate column samples and replays its own T trajectories) and once with it
// on (T trajectories sampled from the proposal rate, deduplicated, replayed
// once, and importance-reweighted into every column). Reports the panel
// wall-clock for both, the speedup, replay counts (per-rate vs unique +
// fallback), the dedup ratio, ESS statistics, and the max per-point
// success-rate delta between the two modes. Writes machine-readable
// BENCH_sweep.json.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/host_info.h"
#include "common/io.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "exp/instances.h"
#include "exp/sweep.h"

namespace qfab::bench {
namespace {

struct BenchRow {
  std::string mode;           // "stratified" | "shared"
  double panel_ms = 0.0;      // one full panel (all depths x rates x inst)
  double replays = 0.0;       // trajectory replays spent on the panel
  double speedup = 0.0;       // vs stratified
};

/// Median-of-reps wall time in milliseconds.
template <typename Fn>
double time_ms(Fn&& body, int reps) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    body();
    ms.push_back(watch.seconds() * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

double max_success_delta(const SweepResult& a, const SweepResult& b) {
  QFAB_CHECK(a.points.size() == b.points.size());
  double dev = 0.0;
  for (std::size_t i = 0; i < a.points.size(); ++i)
    dev = std::max(dev, std::abs(a.points[i].stats.success_rate -
                                 b.points[i].stats.success_rate));
  return dev;
}

void write_json(const std::vector<BenchRow>& rows, const SweepConfig& config,
                const SharedEstimateStats& stats, double stratified_replays,
                double success_delta, const std::string& path) {
  std::ostringstream out;
  const double dedup =
      stats.proposal_trajectories > 0
          ? static_cast<double>(stats.unique_trajectories) /
                static_cast<double>(stats.proposal_trajectories)
          : 1.0;
  const double ess_mean =
      stats.ess_fraction_count > 0
          ? stats.ess_fraction_sum / static_cast<double>(stats.ess_fraction_count)
          : 1.0;
  out << "{\n  \"benchmark\": \"sweep\",\n"
      << "  \"host\": " << host_info_json(kernel_tier_name<double>()) << ",\n"
      << "  \"panel\": {\"op\": \"qfa\", \"n\": " << config.base.n
      << ", \"depths\": " << config.depths.size()
      << ", \"rates\": " << config.rates_percent.size()
      << ", \"instances\": " << config.instances
      << ", \"trajectories\": " << config.run.error_trajectories
      << ", \"shots\": " << config.run.shots
      << ", \"lanes\": " << config.run.batch_lanes << "},\n"
      << "  \"max_success_rate_delta\": " << success_delta << ",\n"
      << "  \"shared_stats\": {"
      << "\"proposal_trajectories\": " << stats.proposal_trajectories
      << ", \"unique_trajectories\": " << stats.unique_trajectories
      << ", \"dedup_ratio\": " << dedup
      << ", \"fallback_trajectories\": " << stats.fallback_trajectories
      << ", \"rate_columns\": " << stats.rate_columns
      << ", \"fallback_columns\": " << stats.fallback_columns
      << ", \"ess_fraction_min\": " << stats.ess_fraction_min
      << ", \"ess_fraction_mean\": " << ess_mean
      << ", \"stratified_replays\": " << stratified_replays << "},\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"mode\": \"" << r.mode << "\""
        << ", \"panel_ms\": " << r.panel_ms
        << ", \"replays\": " << r.replays
        << ", \"speedup_vs_stratified\": " << r.speedup << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  atomic_write_file(path, out.str());
}

int run(int argc, const char* const* argv) {
  CliFlags flags(argc, argv);
  const int reps = static_cast<int>(flags.get_int("reps", 3));
  const int n_inst = static_cast<int>(flags.get_int("instances", 8));
  const int traj = static_cast<int>(flags.get_int("traj", 12));
  const long shots = flags.get_int("shots", 2048);
  const int lanes = static_cast<int>(flags.get_int("lanes", 8));
  const std::string out_path = flags.get_string("out", "BENCH_sweep.json");
  if (!flags.validate()) return 2;

  SweepConfig config;
  config.base.op = Operation::kAdd;
  config.base.n = 8;
  config.depths = {1, 2, 3};
  config.rates_percent = {0.2, 0.3, 0.4, 0.5, 0.6};
  config.include_noise_free = false;  // pure rate-cluster comparison
  config.instances = n_inst;
  config.run.shots = static_cast<std::uint64_t>(shots);
  config.run.error_trajectories = traj;
  config.run.batch_lanes = lanes;
  config.seed = 0xBE7C5ULL;
  config.progress = false;

  Pcg64 inst_rng(config.seed, 7);
  const auto instances = generate_instances(n_inst, config.base.n,
                                            config.base.n, OperandOrders{},
                                            inst_rng);

  // The per-rate baseline replays T trajectories per (instance, depth, rate)
  // point; shared replays come out of the measured run's own stats.
  const double stratified_replays =
      static_cast<double>(n_inst) * static_cast<double>(config.depths.size()) *
      static_cast<double>(config.rates_percent.size()) *
      static_cast<double>(traj);

  // One untimed pass per mode for the equivalence check and the stats.
  config.run.shared_trajectories = false;
  const SweepResult strat_result = run_sweep(config, instances);
  config.run.shared_trajectories = true;
  const SweepResult shared_result = run_sweep(config, instances);
  const SharedEstimateStats stats = shared_result.shared_stats;
  const double success_delta = max_success_delta(strat_result, shared_result);
  QFAB_CHECK_MSG(success_delta < 0.35,
                 "shared vs stratified success rates diverged by "
                     << success_delta);

  std::vector<BenchRow> rows;
  double strat_ms = 0.0;
  for (bool shared : {false, true}) {
    config.run.shared_trajectories = shared;
    const double ms =
        time_ms([&] { (void)run_sweep(config, instances); }, reps);
    BenchRow row;
    row.mode = shared ? "shared" : "stratified";
    row.replays = shared ? static_cast<double>(stats.unique_trajectories +
                                               stats.fallback_trajectories)
                         : stratified_replays;
    row.panel_ms = ms;
    if (!shared) strat_ms = ms;
    row.speedup = strat_ms / ms;
    rows.push_back(row);
  }

  TextTable table({"mode", "panel_ms", "replays", "speedup"});
  for (const BenchRow& r : rows)
    table.add_row({r.mode, fmt_double(r.panel_ms, 1),
                   fmt_double(r.replays, 0), fmt_double(r.speedup, 2)});
  table.print(std::cout);
  const double dedup =
      stats.proposal_trajectories > 0
          ? static_cast<double>(stats.unique_trajectories) /
                static_cast<double>(stats.proposal_trajectories)
          : 1.0;
  std::cout << "max |d success_rate| shared vs stratified: "
            << fmt_double(success_delta, 4) << "\n"
            << "dedup: " << stats.unique_trajectories << "/"
            << stats.proposal_trajectories << " unique ("
            << fmt_double(100.0 * dedup, 1) << "%), fallback columns: "
            << stats.fallback_columns << "/" << stats.rate_columns << "\n";
  write_json(rows, config, stats, stratified_replays, success_delta,
             out_path);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace qfab::bench

int main(int argc, char** argv) try {
  return qfab::bench::run(argc, argv);
} catch (const qfab::UsageError& e) {
  return qfab::usage_error(argv[0], e);
}
