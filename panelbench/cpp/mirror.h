// The traced mirror of SweepExecution::run_unit: the same work unit
// computed by calling each layer's public functions in the order
// compute_unit (src/exp/sweep.cpp) calls them, with a span around every
// call. Its outcomes must equal run_unit's bit for bit; the traced run
// checks that for every unit it mirrors.
#pragma once

#include <memory>
#include <vector>

#include "exp/sweep.h"
#include "trace.h"

namespace panelbench {

/// Per-depth circuits and fused plans, built from the public layer calls
/// (build_arith_circuit, transpile_to_basis, FusedPlan) under spans
/// "qfb.build", "transpile" and "sim.fuse".
struct MirrorSetup {
  std::vector<qfab::QuantumCircuit> circuits;
  std::vector<std::shared_ptr<const qfab::FusedPlan>> plans;
};

MirrorSetup mirror_setup(const qfab::SweepConfig& config, Tracer& tracer);

/// Timing of the sim layer alone on one unit's proposal trajectories:
/// BatchedCleanRun::load_states_at + run_trajectories_batched +
/// all_lane_marginal_probabilities, lanes-at-a-time as the shared
/// estimator packs them.
struct ReplayProbe {
  double seconds = 0.0;
  long trajectories = 0;  // unique proposal trajectories replayed
  long lane_slots = 0;    // batched passes x lanes available per pass
};

/// Compute work unit `u` of the sweep under span "exp.unit", with child
/// spans "arith.prep", "noise.clean", "noise.locations", "noise.estimate"
/// and "exp.shots". Only the batched unit path (grid.block > 1) is
/// mirrored. When `probe` is non-null the unit's proposal trajectories are
/// replayed again afterwards under a top-level "sim.replay" span and timed
/// into *probe; that replay is outside the unit span.
qfab::UnitResult mirror_unit(const qfab::SweepConfig& config,
                             const std::vector<qfab::ArithInstance>& instances,
                             const qfab::SweepGrid& grid,
                             const MirrorSetup& setup, std::size_t u,
                             Tracer& tracer, ReplayProbe* probe = nullptr);

/// True when two unit results carry identical outcomes (success and
/// margin of every member at every rate) and identical estimator counts.
bool same_unit_result(const qfab::UnitResult& a, const qfab::UnitResult& b);

}  // namespace panelbench
