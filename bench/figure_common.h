// Shared driver for the figure-regeneration benches: flag handling, the
// paper's rate grids, row execution (same operand set for both error-rate
// columns, as in the paper), and CSV output.
#pragma once

#include <string>
#include <vector>

#include "common/cli.h"
#include "exp/sweep.h"

namespace qfab::bench {

struct FigureScale {
  int instances = 0;            // per-operation default filled by caller
  std::uint64_t shots = 2048;
  int trajectories = 0;
  bool per_shot = false;
  bool shared_trajectories = true;  // --shared-trajectories=0: per-rate mode
  std::uint64_t seed = 2112'09349;  // arXiv id of the paper
  std::vector<long> depths;     // kFullDepth sentinel allowed (-1)
  std::vector<double> rates_1q_percent;
  std::vector<double> rates_2q_percent;
  std::string csv_prefix;       // empty = no CSV
  bool progress = true;
  bool noisy_rz = true;         // --rz-noiseless: treat RZ as virtual
  bool measure_all = false;     // --measure-all: joint-bitstring success
  /// --checkpoint=PREFIX: journal every panel to
  /// PREFIX_<row>_<axis>.journal (exp/journal.h) so an interrupted run can
  /// be resumed. Empty = no checkpointing.
  std::string checkpoint;
  bool resume = false;          // --resume: restore journaled units first
  double unit_deadline_seconds = 0.0;  // --unit-deadline: watchdog (s)
  /// --precision=double|float32|auto: batched replay precision
  /// (RunOptions::precision). Non-double panels report their drift-
  /// sentinel fallback count after the sweep table.
  Precision precision = Precision::kDouble;
};

/// Map "double" / "float32" / "auto" to a Precision. Returns false on any
/// other name.
bool parse_precision_name(const std::string& name, Precision& out);

/// Parse common flags (--instances, --shots, --traj, --per-shot,
/// --shared-trajectories, --seed, --depths, --rates1q, --rates2q, --csv,
/// --checkpoint, --resume, --unit-deadline, --precision, --paper-scale,
/// --quiet) on top of the given defaults. Returns false (after printing
/// usage or the error) on an unknown flag or precision name; the figure
/// benches then exit 2. A malformed value throws UsageError (common/cli.h),
/// which their main() reports with the same exit status.
bool parse_scale(const CliFlags& flags, FigureScale& scale,
                 int paper_instances);

/// Run one figure row (fixed operand orders): generates the row's operand
/// set once from the row seed, runs the 1q-rate panel then the 2q-rate
/// panel, prints both, and optionally writes CSVs. Returns false when a
/// drain request (Ctrl-C / SIGTERM) stopped a panel early — the caller
/// should skip the remaining rows and exit with kResumableExitCode; with
/// --checkpoint set, re-running with --resume picks up where it left off.
bool run_figure_row(const FigureScale& scale, const CircuitSpec& base,
                    const OperandOrders& orders, const std::string& row_name,
                    const std::string& reference_note);

/// Paper defaults: vertical dashed lines at 0.2% (1q) and 1.0% (2q).
std::vector<double> default_rates_1q();
std::vector<double> default_rates_2q();
std::vector<long> default_depths_qfa();  // {1,2,3,4,full}
std::vector<long> default_depths_qfm();  // {1,2,3,full}

}  // namespace qfab::bench
