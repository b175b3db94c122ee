// The benchmark's workloads: whole figure panels at the figure benches'
// defaults (bench/fig1_qfa_sweep, bench/fig2_qfm_sweep). The seed draws the
// operand instances the way bench/figure_common.cpp draws a figure row's;
// the sweep's trajectory and shot streams stay at the figure benches'
// default seed. Those streams alone decide how many trajectories are
// unique and which rate columns fall back on the ESS guard, so every seed
// costs the same work and run-to-run spread measures the host, not the
// draw. At kDefaultSeed a panel is exactly the one the figure bench prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace panelbench {

/// The figure benches' default seed (the paper's arXiv id).
constexpr std::uint64_t kDefaultSeed = 211209349;

struct Workload {
  std::string name;
  qfab::SweepConfig config;
  std::vector<qfab::ArithInstance> instances;
  /// Panels append every unit to an fsync'd checkpoint journal.
  bool journal = false;
  /// Size of the CPU affinity mask the process is pinned to (0 = not
  /// pinned). The process runs with QFAB_THREADS = max(cpus, 1).
  int cpus = 0;
};

/// The workload `name` with its operands drawn from `seed`. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Sweep points in one panel: instances x depths x rate columns (the
/// noise-free column included).
std::size_t points_per_panel(const qfab::SweepConfig& config);

/// The same panel on the scalar double path (batch_lanes = 1,
/// precision = double): the reference the output gate compares against.
qfab::SweepConfig scalar_reference(const qfab::SweepConfig& config);

}  // namespace panelbench
