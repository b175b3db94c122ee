// Fused tile-walk driver validation: every lane of run_trajectories_batched
// (the walk) against the scalar run_trajectory of that lane's own
// trajectory, replayed gate by gate from a CleanRun on the same initial
// state. The walk decomposes op-interior splits PER LANE (only the event
// lane slices the host op; bystanders take it fused), so a lane's
// arithmetic follows its own trajectory alone; fused ops and the per-gate
// path round differently, so the double tier is pinned to 1e-12 and
// float32 to the tier's replay drift bound (lane states are compared with
// each lane's pending phase folded in). What IS bitwise by construction is
// packing invariance: a lane's replay is identical whatever trajectories
// share the batch (pinned below against solo single-lane walks). Site
// classes the walk decomposes differently from a plain fused pass are each
// pinned: splits inside collapsed diagonal ops, splits on op boundaries,
// runs broken by non-tileable ops, and dense same-site multi-lane
// injections.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine_helpers.h"
#include "exp/experiment.h"
#include "noise/trajectory.h"
#include "sim/batch.h"
#include "sim/fusion.h"

namespace qfab {
namespace {

/// max |a_i - b_i| — zero iff the two states are bitwise equal (no NaNs
/// occur in these circuits).
double max_abs_diff(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

/// Random per-lane event lists over [0, total), arity-respecting Paulis;
/// returns the replay start (first site, or 0 when no lane has events).
std::size_t random_lane_events(const QuantumCircuit& qc, int lanes,
                               int max_events_per_lane, Pcg64& rng,
                               std::vector<std::vector<ErrorEvent>>& out) {
  const std::size_t total = qc.gates().size();
  out.assign(static_cast<std::size_t>(lanes), {});
  std::size_t min_site = total;
  for (int l = 0; l < lanes; ++l) {
    const auto n_events = rng.uniform_int(
        static_cast<std::uint64_t>(max_events_per_lane) + 1);
    std::vector<std::size_t> sites;
    for (std::uint64_t e = 0; e < n_events; ++e)
      sites.push_back(rng.uniform_int(total));
    std::sort(sites.begin(), sites.end());
    for (std::size_t site : sites) {
      ErrorEvent ev;
      ev.gate_index = site;
      ev.pauli0 = static_cast<Pauli>(1 + rng.uniform_int(3));
      if (qc.gates()[site].arity() >= 2 && rng.bernoulli(0.5))
        ev.pauli1 = static_cast<Pauli>(1 + rng.uniform_int(3));
      out[static_cast<std::size_t>(l)].push_back(ev);
    }
    if (!sites.empty()) min_site = std::min(min_site, sites.front() + 1);
  }
  return min_site == total ? 0 : min_site;
}

/// Largest per-amplitude difference between one lane of a batched state,
/// with the lane's pending phase folded in (the raw planes alone are only
/// defined up to that factor — see lane_pending_phase), and a scalar state.
/// Reads the planes directly, so a float32 lane is compared as is instead
/// of being renormalized into a StateVector; rows whose live-mask bit is
/// clear are exact zeros (the vectors here are in the identity layout).
template <typename Real>
double lane_vs_state(const BatchedStateVectorT<Real>& bsv, int lane,
                     const StateVector& sv) {
  const cplx phase = std::polar(1.0, bsv.lane_pending_phase(lane));
  const std::vector<cplx>& ref = sv.amplitudes();
  const u64 lanes = static_cast<u64>(bsv.lanes());
  double d = 0.0;
  for (u64 r = 0; r < bsv.dim(); ++r) {
    const std::size_t i = r * lanes + static_cast<u64>(lane);
    const bool live = (bsv.live_masks()[r >> bsv.tile_log2()] >> lane) & 1;
    const cplx v = live ? phase * cplx{static_cast<double>(bsv.re()[i]),
                                       static_cast<double>(bsv.im()[i])}
                        : cplx{0.0, 0.0};
    d = std::max(d, std::abs(v - ref[r]));
  }
  return d;
}

/// Run the walk from the ideal state after `start_gates` gates of a
/// CleanRun on `initial`, and return the largest amplitude difference
/// between any walk lane and the scalar run_trajectory of that lane's own
/// events from the same CleanRun.
template <typename Real>
double walk_vs_scalar(const FusedPlan& plan, const StateVector& initial,
                      int lanes, std::size_t start_gates,
                      const std::vector<std::vector<ErrorEvent>>& lane_events) {
  const CleanRun clean(plan.circuit(), initial, 64);
  BatchedStateVectorT<Real> walk(plan.circuit().num_qubits(), lanes);
  walk.broadcast(clean.state_at(start_gates));
  run_trajectories_batched(plan, walk, start_gates, lane_events);
  double d = 0.0;
  for (int l = 0; l < lanes; ++l) {
    const StateVector ref =
        run_trajectory(clean, lane_events[static_cast<std::size_t>(l)]);
    d = std::max(d, lane_vs_state(walk, l, ref));
  }
  return d;
}

TEST(TrajectoryWalk, DoubleLanesMatchScalarTrajectory) {
  // Transpiled random circuits, lane counts spanning the replay
  // tiers, random schedules: every double walk lane must match its scalar
  // run_trajectory to 1e-12 with pending phases folded in. The deviation
  // is kernel rounding, invisible to the marginal-based Fig. 1/2 CSVs.
  for_each_kernel_tier([](const char* mode) {
    Pcg64 rng(20260809, 1);
    for (const int lanes : {2, 8, 16}) {
      for (int trial = 0; trial < 6; ++trial) {
        const int n = 4 + static_cast<int>(rng.uniform_int(2));  // 4..5
        const QuantumCircuit qc = random_basis_circuit(n, 40, rng);
        const FusedPlan plan(qc);
        std::vector<std::vector<ErrorEvent>> lane_events;
        const std::size_t g0 =
            random_lane_events(qc, lanes, 3, rng, lane_events);
        EXPECT_LT(walk_vs_scalar<double>(plan, StateVector(n), lanes, g0,
                                         lane_events),
                  1e-12)
            << mode << " lanes=" << lanes << " trial=" << trial;
      }
    }
  });
}

TEST(TrajectoryWalk, Float32LanesStayWithinReplayDrift) {
  // Same comparison on the float32 tier against the double scalar
  // reference: the pinned bound is the tier's documented drift budget.
  for_each_kernel_tier([](const char* mode) {
    Pcg64 rng(20260809, 2);
    for (const int lanes : {2, 8, 16}) {
      for (int trial = 0; trial < 4; ++trial) {
        const QuantumCircuit qc = random_basis_circuit(5, 40, rng);
        const FusedPlan plan(qc);
        std::vector<std::vector<ErrorEvent>> lane_events;
        const std::size_t g0 =
            random_lane_events(qc, lanes, 3, rng, lane_events);
        EXPECT_LT(walk_vs_scalar<float>(plan, StateVector(5), lanes, g0,
                                        lane_events),
                  1e-4)
            << mode << " lanes=" << lanes << " trial=" << trial;
      }
    }
  });
}

TEST(TrajectoryWalk, SitesInsideCollapsedDiagonalOps) {
  // Transpiled QFA fuses long diagonal runs; injection sites interior to
  // a collapsed diagonal op force the walk through subrange plans on both
  // sides of the Pauli. Every interior site of every multi-gate diagonal
  // op is hit by some lane.
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 3;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const FusedPlan plan(qc);
  std::vector<std::size_t> interior_sites;
  for (std::size_t i = 0; i < plan.op_count(); ++i) {
    const FusedOp& op = plan.ops()[i];
    if (op.kind != FusedOp::Kind::kDiagonal || op.gate_count() < 3) continue;
    for (std::size_t g = op.gate_begin + 1; g + 1 < op.gate_end; ++g)
      interior_sites.push_back(g);
  }
  ASSERT_FALSE(interior_sites.empty())
      << "transpiled QFA no longer fuses multi-gate diagonal ops";

  Pcg64 rng(20260809, 3);
  const int lanes = 8;
  std::vector<std::vector<ErrorEvent>> lane_events(lanes);
  for (std::size_t k = 0; k < interior_sites.size(); ++k) {
    ErrorEvent ev;
    ev.gate_index = interior_sites[k];
    ev.pauli0 = static_cast<Pauli>(1 + rng.uniform_int(3));
    lane_events[k % lanes].push_back(ev);
  }
  for (auto& evs : lane_events)
    std::sort(evs.begin(), evs.end(),
              [](const ErrorEvent& a, const ErrorEvent& b) {
                return a.gate_index < b.gate_index;
              });
  const StateVector start(qc.num_qubits());
  EXPECT_LT(walk_vs_scalar<double>(plan, start, lanes, 0, lane_events), 1e-12);
  EXPECT_LT(walk_vs_scalar<float>(plan, start, lanes, 0, lane_events), 1e-4);
}

TEST(TrajectoryWalk, SitesOnEveryOpBoundary) {
  // Sites landing exactly on fused-op boundaries: the walk's segments are
  // whole-op runs with no subrange plans, alternating with Paulis.
  Pcg64 rng(20260809, 4);
  const QuantumCircuit qc = random_basis_circuit(4, 40, rng);
  const FusedPlan plan(qc);
  const int lanes = 8;
  std::vector<std::vector<ErrorEvent>> lane_events(lanes);
  int k = 0;
  for (std::size_t i = 0; i < plan.op_count(); ++i) {
    ErrorEvent ev;
    // Site = gate_index + 1, so the boundary gate is gate_end - 1.
    ev.gate_index = plan.ops()[i].gate_end - 1;
    ev.pauli0 = static_cast<Pauli>(1 + rng.uniform_int(3));
    lane_events[k++ % lanes].push_back(ev);
  }
  const StateVector start = StateVector::from_amplitudes(random_state(4, rng));
  EXPECT_LT(walk_vs_scalar<double>(plan, start, lanes, 0, lane_events), 1e-12);
}

TEST(TrajectoryWalk, NonTileableOpsBreakRunsCorrectly) {
  // A small tile puts non-diagonal ops on high qubits (and X/Y Paulis
  // there) across tiles mid-walk, and cuts a sparse start state into live
  // and dead tiles. tile_bits=3 with 6 qubits puts the tile well under the
  // state size at every lane count.
  FusionOptions options;
  options.tile_bits = 3;
  Pcg64 rng(20260809, 5);
  for (const int lanes : {2, 16}) {
    for (int trial = 0; trial < 4; ++trial) {
      const QuantumCircuit qc = random_basis_circuit(6, 50, rng);
      const FusedPlan plan(qc, options);
      // Sanity: the tiny tile actually puts some non-diagonal op's
      // qubits above the tile.
      const int tb = batched_tile_rows_log2(options, lanes, 6, sizeof(double));
      bool any_non_tileable = false;
      for (const FusedOp& op : plan.ops())
        if (op.kind != FusedOp::Kind::kDiagonal && op.max_qubit >= tb)
          any_non_tileable = true;
      ASSERT_TRUE(any_non_tileable);

      std::vector<std::vector<ErrorEvent>> lane_events;
      const std::size_t g0 =
          random_lane_events(qc, lanes, 4, rng, lane_events);
      EXPECT_LT(walk_vs_scalar<double>(plan, StateVector(6), lanes, g0,
                                       lane_events),
                1e-12)
          << "lanes=" << lanes << " trial=" << trial;
    }
  }
}

TEST(TrajectoryWalk, DenseSameSiteMultiLaneInjections) {
  // Every lane fires at the same few sites — the merged schedule has long
  // same-site runs, which the walk folds into a single tile pass per run.
  Pcg64 rng(20260809, 6);
  const int lanes = 16;
  const QuantumCircuit qc = random_basis_circuit(5, 40, rng);
  const std::size_t total = qc.gates().size();
  const FusedPlan plan(qc);
  std::vector<std::size_t> sites = {total / 4, total / 2, 3 * total / 4};
  std::sort(sites.begin(), sites.end());
  std::vector<std::vector<ErrorEvent>> lane_events(lanes);
  for (int l = 0; l < lanes; ++l) {
    for (std::size_t site : sites) {
      ErrorEvent ev;
      ev.gate_index = site;
      ev.pauli0 = static_cast<Pauli>(1 + rng.uniform_int(3));
      if (qc.gates()[site].arity() >= 2)
        ev.pauli1 = static_cast<Pauli>(1 + rng.uniform_int(3));
      lane_events[static_cast<std::size_t>(l)].push_back(ev);
    }
  }
  const StateVector start = StateVector::from_amplitudes(random_state(5, rng));
  EXPECT_LT(walk_vs_scalar<double>(plan, start, lanes, 0, lane_events), 1e-12);
  EXPECT_LT(walk_vs_scalar<float>(plan, start, lanes, 0, lane_events), 1e-4);
}

TEST(TrajectoryWalk, LaneReplayIsPackingInvariantBitwise) {
  // The per-lane schedule's defining property: a lane's replay depends
  // only on its own trajectory, never on which trajectories share the
  // batch. Each lane of a 8-wide group walk must be BITWISE identical —
  // raw planes and pending phase — to a solo 1-lane walk of that lane's
  // events from the same resume point. (The group splits the lane's clean
  // segments at other lanes' sites, but only ever on fused-op boundaries,
  // so the per-lane step arithmetic is unchanged.)
  Pcg64 rng(20260809, 9);
  const int lanes = 8;
  for (int trial = 0; trial < 4; ++trial) {
    const QuantumCircuit qc = random_basis_circuit(5, 40, rng);
    const FusedPlan plan(qc);
    std::vector<std::vector<ErrorEvent>> lane_events;
    const std::size_t g0 = random_lane_events(qc, lanes, 3, rng, lane_events);
    StateVector start(5);
    start.apply_circuit_range(qc, 0, g0);

    BatchedStateVector group(5, lanes);
    group.broadcast(start);
    run_trajectories_batched(plan, group, g0, lane_events);

    for (int l = 0; l < lanes; ++l) {
      BatchedStateVector solo(5, 1);
      solo.broadcast(start);
      const std::vector<std::vector<ErrorEvent>> one = {
          lane_events[static_cast<std::size_t>(l)]};
      run_trajectories_batched(plan, solo, g0, one);
      EXPECT_EQ(group.lane_pending_phase(l), solo.lane_pending_phase(0))
          << "trial=" << trial << " lane=" << l;
      double d = 0.0;
      for (u64 r = 0; r < group.dim(); ++r) {
        const std::size_t gi =
            r * static_cast<u64>(lanes) + static_cast<u64>(l);
        d = std::max(d, std::abs(group.re()[gi] - solo.re()[r]));
        d = std::max(d, std::abs(group.im()[gi] - solo.im()[r]));
      }
      EXPECT_EQ(d, 0.0) << "trial=" << trial << " lane=" << l;
    }
  }
}

TEST(ApplyPlanRange, EmptyRangeIsANoOp) {
  // gate_begin == gate_end must leave the batched state bitwise untouched,
  // at 0, at an interior gate, and at gate_count.
  Pcg64 rng(20260809, 7);
  const QuantumCircuit qc = random_basis_circuit(4, 30, rng);
  const FusedPlan plan(qc);
  const std::size_t total = qc.gates().size();
  BatchedStateVector bsv(4, 3);
  for (int l = 0; l < 3; ++l)
    bsv.set_lane(l, nonzero_terms(StateVector::from_amplitudes(
                        random_state(4, rng))));
  std::vector<std::vector<cplx>> before;
  for (int l = 0; l < 3; ++l) before.push_back(bsv.lane_state(l).amplitudes());
  for (const std::size_t g : {std::size_t{0}, total / 2, total}) {
    apply_plan_range(plan, bsv, g, g);
    for (int l = 0; l < 3; ++l)
      EXPECT_EQ(max_abs_diff(bsv.lane_state(l).amplitudes(),
                             before[static_cast<std::size_t>(l)]),
                0.0)
          << "empty range at " << g << " lane " << l;
  }
}

TEST(ApplyPlanRange, SplitAtZeroAndGateCountMatchesSinglePass) {
  // Splitting at the extreme boundaries (0 and gate_count) must be
  // bitwise identical to one uninterrupted pass.
  Pcg64 rng(20260809, 8);
  const QuantumCircuit qc = random_basis_circuit(4, 30, rng);
  const FusedPlan plan(qc);
  const std::size_t total = qc.gates().size();
  const StateVector init = StateVector::from_amplitudes(random_state(4, rng));

  BatchedStateVector ref(4, 2);
  ref.broadcast(init);
  apply_plan_range(plan, ref, 0, total);

  for (const std::size_t s : {std::size_t{0}, total}) {
    BatchedStateVector bsv(4, 2);
    bsv.broadcast(init);
    apply_plan_range(plan, bsv, 0, s);
    apply_plan_range(plan, bsv, s, total);
    for (int l = 0; l < 2; ++l)
      EXPECT_EQ(max_abs_diff(bsv.lane_state(l).amplitudes(),
                             ref.lane_state(l).amplitudes()),
                0.0)
          << "split at " << s << " lane " << l;
  }
}

}  // namespace
}  // namespace qfab
