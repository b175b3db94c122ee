// Batched-engine validation: BatchedStateVector must match the per-gate
// StateVector path to <= 1e-12 on transpiled random circuits over every
// op kind — including mid-plan per-lane Pauli injections at every
// gate index, ragged lane counts, and both double kernel builds (portable
// and, on AVX2 hosts, AVX2, which must agree bit for bit). Float32 lanes
// are pinned against double to a bounded drift, and the precision-policy
// fallback must reproduce the double path bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "engine_helpers.h"
#include "exp/experiment.h"
#include "exp/instances.h"
#include "exp/sweep.h"
#include "noise/estimator.h"
#include "sim/batch.h"
#include "sim/fusion.h"
#include "sim/invariants.h"

namespace qfab {
namespace {

constexpr double kTol = 1e-12;

/// Cross-tier check: on the AVX2 build, `make()` run again on the portable
/// double build gives `got`'s bits — the live masks, every live row of the
/// raw planes, each lane's pending phase, and each lane's marginals over
/// `out_q`. A no-op on the portable build.
template <typename Make>
void expect_portable_bits(const BatchedStateVector& got, const Make& make,
                          const std::vector<int>& out_q,
                          const std::string& what) {
  if (std::strcmp(kernel_tier_name<double>(), "scalar") == 0) return;
  detail::set_portable_kernels(true);
  const BatchedStateVector portable = make();
  detail::set_portable_kernels(false);
  ASSERT_EQ(got.live_masks(), portable.live_masks()) << what;
  const u64 L = static_cast<u64>(got.lanes());
  std::size_t differ = 0;
  for (u64 row = 0; row < got.dim(); ++row) {
    const u64 mask = got.live_masks()[row >> got.tile_log2()];
    for (u64 j = 0; j < L; ++j) {
      const u64 k = row * L + j;
      differ += ((mask >> j) & 1) &&
                (std::memcmp(&got.re()[k], &portable.re()[k],
                             sizeof(double)) != 0 ||
                 std::memcmp(&got.im()[k], &portable.im()[k],
                             sizeof(double)) != 0);
    }
  }
  EXPECT_EQ(differ, 0u) << what << ": raw planes differ from portable";
  for (int j = 0; j < got.lanes(); ++j)
    EXPECT_EQ(got.lane_pending_phase(j), portable.lane_pending_phase(j))
        << what << " lane " << j << ": pending phase differs from portable";
  const auto gm = got.all_lane_marginal_probabilities(out_q);
  const auto pm = portable.all_lane_marginal_probabilities(out_q);
  for (std::size_t j = 0; j < gm.size(); ++j)
    EXPECT_EQ(std::memcmp(gm[j].data(), pm[j].data(),
                          gm[j].size() * sizeof(double)),
              0)
        << what << " lane " << j << ": marginal differs from portable";
}

TEST(BatchedStateVector, LaneRoundTripAndInitialState) {
  Pcg64 rng(20260805, 10);
  BatchedStateVector bsv(4, 3);
  // Default lanes are |0...0>.
  const auto zero = bsv.lane_state(1).amplitudes();
  EXPECT_NEAR(std::abs(zero[0] - cplx{1.0, 0.0}), 0.0, kTol);

  std::vector<StateVector> states;
  for (int l = 0; l < 3; ++l) {
    states.push_back(StateVector::from_amplitudes(random_state(4, rng)));
    bsv.set_lane(l, nonzero_terms(states.back()));
  }
  for (int l = 0; l < 3; ++l) {
    EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(),
                             states[static_cast<std::size_t>(l)].amplitudes()),
              kTol);
    EXPECT_NEAR(bsv.lane_norm(l), 1.0, 1e-12);
  }
}

TEST(BatchedStateVector, PerLanePauliTouchesOnlyItsLane) {
  Pcg64 rng(20260805, 11);
  const int n = 3, L = 4;
  std::vector<StateVector> states;
  BatchedStateVector bsv(n, L);
  for (int l = 0; l < L; ++l) {
    states.push_back(StateVector::from_amplitudes(random_state(n, rng)));
    bsv.set_lane(l, nonzero_terms(states.back()));
  }
  bsv.apply_pauli(2, Pauli::kY, 1);
  states[2].apply_pauli(Pauli::kY, 1);
  for (int l = 0; l < L; ++l)
    EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(),
                             states[static_cast<std::size_t>(l)].amplitudes()),
              kTol)
        << "lane " << l;
}

TEST(BatchedStateVector, AllLaneMarginalsBitwiseMatchPerLane) {
  Pcg64 rng(20260805, 17);
  const int n = 5, lanes = 6;
  BatchedStateVector bsv(n, lanes);
  for (int l = 0; l < lanes; ++l)
    bsv.set_lane(l, nonzero_terms(StateVector::from_amplitudes(
                        random_state(n, rng))));
  // Contiguous, scattered, and single-qubit subsets: both key paths.
  const std::vector<std::vector<int>> qubit_sets = {{1, 2, 3}, {0, 2, 4}, {4}};
  for (const auto& qs : qubit_sets) {
    const auto all = bsv.all_lane_marginal_probabilities(qs);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      const auto ref = bsv.lane_marginal_probabilities(l, qs);
      ASSERT_EQ(all[static_cast<std::size_t>(l)].size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(all[static_cast<std::size_t>(l)][i], ref[i])
            << "lane " << l << " bin " << i;
    }
  }
}

TEST(BatchedStateVector, AssignPermutedCopiesMappedLanes) {
  Pcg64 rng(20260805, 18);
  const int n = 4;
  BatchedStateVector src(n, 3);
  for (int l = 0; l < 3; ++l)
    src.set_lane(l, nonzero_terms(StateVector::from_amplitudes(
                        random_state(n, rng))));
  src.apply_lane_global_phase(1, 0.7);  // pending phase must follow its lane
  BatchedStateVector dst(1, 1);  // wrong shape on purpose: assign resizes
  const std::vector<int> map = {1, 1, 2, 0, 1};
  dst.assign_permuted(src, map);
  ASSERT_EQ(dst.lanes(), 5);
  ASSERT_EQ(dst.num_qubits(), n);
  for (std::size_t j = 0; j < map.size(); ++j)
    EXPECT_LT(state_distance(dst.lane_state(static_cast<int>(j)).amplitudes(),
                             src.lane_state(map[j]).amplitudes()),
              kTol)
        << "dst lane " << j;
}

TEST(BatchedEngine, MatchesScalarOnRandomCircuits) {
  // All op kinds, several lane counts (including non-power-of-two "ragged"
  // widths), both kernel tables.
  for_each_kernel_tier([](const char* mode) {
    Pcg64 rng(20260805, 12);
    for (int lanes : {1, 3, 4, 8}) {
      for (int trial = 0; trial < 10; ++trial) {
        const int n = 3 + static_cast<int>(rng.uniform_int(3));  // 3..5
        const QuantumCircuit qc = random_basis_circuit(n, 40, rng);
        const FusedPlan plan(qc);

        BatchedStateVector bsv(n, lanes, plan.row_layout());
        std::vector<StateVector> refs;
        for (int l = 0; l < lanes; ++l) {
          const auto init = random_state(n, rng);
          bsv.set_lane(l, nonzero_terms(StateVector::from_amplitudes(init)));
          refs.push_back(StateVector::from_amplitudes(init));
          refs.back().apply_circuit(qc);
        }
        apply_plan(plan, bsv);
        for (int l = 0; l < lanes; ++l)
          EXPECT_LT(
              state_distance(bsv.lane_state(l).amplitudes(),
                             refs[static_cast<std::size_t>(l)].amplitudes()),
              kTol)
              << mode << " lanes=" << lanes << " trial=" << trial
              << " lane=" << l;
      }
    }
  });
}

TEST(BatchedEngine, MatchesScalarAcrossTiles) {
  // Ten qubits at five lanes hold four tiles (2^8 rows each), so ops and
  // their cross-tile groups run the batched multi-tile path.
  for_each_kernel_tier([](const char* mode) {
    Pcg64 rng(20260805, 13);
    const int n = 10, lanes = 5;
    for (int trial = 0; trial < 5; ++trial) {
      const QuantumCircuit qc = random_basis_circuit(n, 60, rng);
      const FusedPlan plan(qc);
      BatchedStateVector bsv(n, lanes, plan.row_layout());
      ASSERT_EQ(bsv.live_masks().size(), 4u);
      std::vector<StateVector> refs;
      for (int l = 0; l < lanes; ++l) {
        const auto init = random_state(n, rng);
        bsv.set_lane(l, nonzero_terms(StateVector::from_amplitudes(init)));
        refs.push_back(StateVector::from_amplitudes(init));
        refs.back().apply_circuit(qc);
      }
      apply_plan(plan, bsv);
      for (int l = 0; l < lanes; ++l)
        EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(),
                                 refs[static_cast<std::size_t>(l)].amplitudes()),
                  kTol)
            << mode << " trial=" << trial << " lane=" << l;
    }
  });
}

TEST(BatchedEngine, PerLaneInjectionAtEveryGateIndex) {
  // The divergence protocol: shared segments batched, per-lane Paulis at
  // the split, batched execution resumes — checked at every gate index,
  // with each lane getting a different Pauli on a different qubit.
  Pcg64 rng(20260805, 14);
  const int n = 4, lanes = 4;
  const QuantumCircuit qc = random_basis_circuit(n, 30, rng);
  const std::size_t total = qc.gates().size();
  const FusedPlan plan(qc);
  std::vector<std::vector<cplx>> inits;
  for (int l = 0; l < lanes; ++l) inits.push_back(random_state(n, rng));

  for (std::size_t s = 0; s <= total; ++s) {
    Pauli p[lanes];
    int q[lanes];
    for (int l = 0; l < lanes; ++l) {
      p[l] = static_cast<Pauli>(1 + rng.uniform_int(3));
      q[l] = static_cast<int>(rng.uniform_int(n));
    }

    BatchedStateVector bsv(n, lanes, plan.row_layout());
    for (int l = 0; l < lanes; ++l)
      bsv.set_lane(l, nonzero_terms(StateVector::from_amplitudes(inits[l])));
    apply_plan_range(plan, bsv, 0, s);
    for (int l = 0; l < lanes; ++l) bsv.apply_pauli(l, p[l], q[l]);
    apply_plan_range(plan, bsv, s, total);

    for (int l = 0; l < lanes; ++l) {
      StateVector ref = StateVector::from_amplitudes(inits[l]);
      ref.apply_circuit_range(qc, 0, s);
      ref.apply_pauli(p[l], q[l]);
      ref.apply_circuit_range(qc, s, total);
      EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(),
                               ref.amplitudes()),
                kTol)
          << "split " << s << " lane " << l;
    }
  }
}

TEST(BatchedEngine, SplitsInsideTranspiledQfaOpsMatchScalar) {
  // Transpiled QFA fuses long diagonal gate runs into single ops; a split
  // inside one now executes through a cached subrange plan
  // (FusedPlan::subrange_plan) instead of gate-at-a-time. Pin the batched
  // split execution against the per-gate path at strided split points.
  for_each_kernel_tier([](const char* mode) {
    CircuitSpec spec;
    spec.op = Operation::kAdd;
    spec.n = 3;
    const QuantumCircuit qc = build_transpiled_circuit(spec);
    const FusedPlan plan(qc);
    const std::size_t total = qc.gates().size();
    Pcg64 rng(20260805, 19);
    const auto init = random_state(qc.num_qubits(), rng);
    StateVector ref = StateVector::from_amplitudes(init);
    ref.apply_circuit_range(qc, 0, total);
    for (std::size_t s = 0; s <= total; s += 3) {
      BatchedStateVector bsv(qc.num_qubits(), 2, plan.row_layout());
      for (int l = 0; l < 2; ++l)
        bsv.set_lane(l, nonzero_terms(StateVector::from_amplitudes(init)));
      apply_plan_range(plan, bsv, 0, s);
      apply_plan_range(plan, bsv, s, total);
      for (int l = 0; l < 2; ++l)
        EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(),
                                 ref.amplitudes()),
                  kTol)
            << mode << " split " << s << " lane " << l;
    }
  });
}

TEST(BatchedTrajectories, MatchScalarRunTrajectory) {
  // Hand-crafted per-lane event lists (0-3 events each, arity-respecting
  // Paulis) through run_trajectories_batched vs the scalar run_trajectory.
  Pcg64 rng(20260805, 15);
  const int n = 4, lanes = 5;
  const QuantumCircuit qc = random_basis_circuit(n, 40, rng);
  const std::size_t total = qc.gates().size();
  const FusedPlan plan(qc);
  const StateVector init = StateVector::from_amplitudes(random_state(n, rng));
  const CleanRun clean(qc, init, 8);

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<ErrorEvent>> lane_events(lanes);
    std::size_t min_site = total;
    for (int l = 0; l < lanes; ++l) {
      const int n_events = static_cast<int>(rng.uniform_int(4));  // 0..3
      std::vector<std::size_t> sites;
      for (int e = 0; e < n_events; ++e) sites.push_back(rng.uniform_int(total));
      std::sort(sites.begin(), sites.end());
      for (std::size_t site : sites) {
        ErrorEvent ev;
        ev.gate_index = site;
        ev.pauli0 = static_cast<Pauli>(1 + rng.uniform_int(3));
        if (qc.gates()[site].arity() >= 2 && rng.bernoulli(0.5))
          ev.pauli1 = static_cast<Pauli>(1 + rng.uniform_int(3));
        lane_events[static_cast<std::size_t>(l)].push_back(ev);
      }
      if (!sites.empty()) min_site = std::min(min_site, sites.front() + 1);
    }
    const std::size_t g0 = min_site == total ? 0 : min_site;

    BatchedStateVector bsv(n, lanes, plan.row_layout());
    bsv.broadcast(clean.state_at(g0));
    run_trajectories_batched(plan, bsv, g0, lane_events);

    for (int l = 0; l < lanes; ++l) {
      const StateVector ref =
          run_trajectory(clean, lane_events[static_cast<std::size_t>(l)]);
      EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(),
                               ref.amplitudes()),
                kTol)
          << "trial " << trial << " lane " << l;
    }
  }
}

TEST(BatchedCleanRunTest, LaneQueriesMatchScalarCleanRuns) {
  // A batched group of clean runs must agree lane-for-lane with
  // independently computed scalar CleanRuns, at every checkpoint boundary
  // and in between.
  Pcg64 rng(20260805, 16);
  const int n = 4, lanes = 3;
  const QuantumCircuit qc = random_basis_circuit(n, 50, rng);
  const auto plan = std::make_shared<const FusedPlan>(qc);

  std::vector<StateVector> initials;
  std::vector<CleanRun> scalar_runs;
  for (int l = 0; l < lanes; ++l) {
    initials.push_back(StateVector::from_amplitudes(random_state(n, rng)));
    scalar_runs.emplace_back(qc, initials.back(), 16);
  }
  const BatchedCleanRun batched(plan, initials, 16);
  ASSERT_EQ(batched.lanes(), lanes);

  for (int l = 0; l < lanes; ++l)
    EXPECT_LT(
        state_distance(batched.final_states().lane_state(l).amplitudes(),
                       scalar_runs[static_cast<std::size_t>(l)].final_state()
                           .amplitudes()),
        kTol);

  // load_states_at: batched resume states match the scalar replays
  // lane-for-lane, for the identity lane map and for a
  // permuted-with-repeats one loaded into reused storage.
  BatchedStateVector at(n, 1), reuse(n, 1);
  const std::vector<int> identity = {0, 1, 2};
  const std::vector<int> map = {2, 0, 0, 1};
  for (std::size_t g = 0; g <= qc.gates().size(); g += 7) {
    batched.load_states_at(g, identity, at);
    for (int l = 0; l < lanes; ++l)
      EXPECT_LT(state_distance(
                    at.lane_state(l).amplitudes(),
                    scalar_runs[static_cast<std::size_t>(l)].state_at(g)
                        .amplitudes()),
                kTol)
          << "identity lane " << l << " g " << g;
    batched.load_states_at(g, map, reuse);
    ASSERT_EQ(reuse.lanes(), static_cast<int>(map.size()));
    for (std::size_t j = 0; j < map.size(); ++j)
      EXPECT_LT(
          state_distance(reuse.lane_state(static_cast<int>(j)).amplitudes(),
                         scalar_runs[static_cast<std::size_t>(map[j])]
                             .state_at(g)
                             .amplitudes()),
          kTol)
          << "load_states_at lane " << j << " g " << g;
  }
}

TEST(BatchedEstimator, MatchesScalarEstimatorAndIsPackingIndependent) {
  // Every lane of a 3-member run, packed max_lanes trajectories per group:
  // groups wider than the run (8, 16) and ragged last groups (T = 10) must
  // all give the scalar estimate of that member from the same stream.
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 3;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const auto plan = std::make_shared<const FusedPlan>(qc);
  Pcg64 inst_rng(5, 1);
  const auto insts = generate_instances(3, 3, 3, OperandOrders{}, inst_rng);
  std::vector<std::vector<BasisTerm>> initials;
  std::vector<CleanRun> scalar_runs;
  for (const ArithInstance& inst : insts) {
    initials.push_back(initial_state_terms(spec, inst));
    scalar_runs.emplace_back(qc, make_initial_state(spec, inst), 32);
  }
  const BatchedCleanRun clean(plan, initials, 32);
  const ErrorLocations errors(qc, NoiseModel{.p1q = 0.002, .p2q = 0.004});
  const std::vector<int> out_q = output_qubits(spec);
  EstimatorOptions est;
  est.error_trajectories = 10;

  for (int lane = 0; lane < clean.lanes(); ++lane) {
    const Pcg64 stream = Pcg64(77, 3).split(static_cast<std::uint64_t>(lane));
    Pcg64 rng_scalar = stream;
    const auto scalar = estimate_channel_marginal(
        scalar_runs[static_cast<std::size_t>(lane)], errors, out_q, est,
        rng_scalar);
    for (int max_lanes : {1, 2, 3, 8, 16}) {
      Pcg64 rng_batched = stream;
      const auto batched = estimate_channel_marginal_batched(
          clean, lane, errors, out_q, est, max_lanes, rng_batched);
      ASSERT_EQ(batched.size(), scalar.size());
      // Same pre-sampled trajectories, same accumulation order: agreement
      // to replay rounding regardless of how lanes were packed.
      for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_NEAR(batched[i], scalar[i], 1e-12)
            << "lane " << lane << " max_lanes=" << max_lanes << " bin " << i;
      // And the stream ends where the scalar estimator's ends.
      Pcg64 rng_ref = rng_scalar;
      EXPECT_EQ(rng_batched(), rng_ref())
          << "lane " << lane << " max_lanes=" << max_lanes;
    }
  }
}

TEST(BatchedEstimator, MultiMemberMatchesPerMemberEstimates) {
  // estimate_channel_marginals_batched pools all members' trajectories
  // into cross-member groups; each member's estimate must still match the
  // per-member batched estimator (same event samples, same accumulation
  // order) to simulation rounding, and consume the same rng stream.
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 3;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const auto plan = std::make_shared<const FusedPlan>(qc);
  Pcg64 inst_rng(6, 2);
  const auto insts = generate_instances(3, 3, 3, OperandOrders{}, inst_rng);
  std::vector<StateVector> initials;
  for (const ArithInstance& inst : insts)
    initials.push_back(make_initial_state(spec, inst));
  const BatchedCleanRun clean(plan, initials, 32);
  const ErrorLocations errors(qc, NoiseModel{.p1q = 0.002, .p2q = 0.004});
  const std::vector<int> out_q = output_qubits(spec);
  EstimatorOptions est;
  est.error_trajectories = 10;

  std::vector<Pcg64> rngs;
  for (std::size_t m = 0; m < insts.size(); ++m)
    rngs.push_back(Pcg64(88, 4).split(m));
  const auto all =
      estimate_channel_marginals_batched(clean, errors, out_q, est, rngs);
  ASSERT_EQ(all.size(), insts.size());
  for (std::size_t m = 0; m < insts.size(); ++m) {
    Pcg64 rng_ref = Pcg64(88, 4).split(m);
    const auto ref = estimate_channel_marginal_batched(
        clean, static_cast<int>(m), errors, out_q, est, 8, rng_ref);
    ASSERT_EQ(all[m].size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(all[m][i], ref[i], 1e-9) << "member " << m << " bin " << i;
    EXPECT_EQ(rngs[m](), rng_ref()) << "member " << m;
  }
}

TEST(BatchedSweep, RaggedGroupsMatchScalarSweep) {
  // run_sweep's batched path packs instances into lane groups; the ragged
  // cases — n_inst % lanes != 0 (5 % 2, 5 % 3) and lanes > n_inst (8 > 5)
  // — must reproduce the scalar (batch_lanes = 1) sweep point for point,
  // including the noise-free cluster.
  SweepConfig cfg;
  cfg.base.op = Operation::kAdd;
  cfg.base.n = 3;
  cfg.depths = {2, kFullDepth};
  cfg.rates_percent = {4.0};
  cfg.vary_2q = true;
  cfg.orders = {1, 1};
  cfg.instances = 5;
  cfg.run.shots = 128;
  cfg.run.error_trajectories = 6;
  cfg.include_noise_free = true;
  cfg.seed = 77;

  Pcg64 gen(cfg.seed);
  const auto insts = generate_instances(cfg.instances, 3, 3, cfg.orders, gen);

  SweepConfig scalar_cfg = cfg;
  scalar_cfg.run.batch_lanes = 1;
  const SweepResult ref = run_sweep(scalar_cfg, insts);
  ASSERT_EQ(ref.points.size(), 4u);  // 2 depths x (noise-free + 1 rate)

  for (int lanes : {2, 3, 8}) {
    SweepConfig batched_cfg = cfg;
    batched_cfg.run.batch_lanes = lanes;
    const SweepResult got = run_sweep(batched_cfg, insts);
    ASSERT_EQ(got.points.size(), ref.points.size()) << "lanes=" << lanes;
    for (std::size_t i = 0; i < ref.points.size(); ++i) {
      const PointStats& a = ref.points[i].stats;
      const PointStats& b = got.points[i].stats;
      EXPECT_EQ(got.points[i].depth, ref.points[i].depth);
      EXPECT_EQ(got.points[i].rate_percent, ref.points[i].rate_percent);
      EXPECT_EQ(b.instances, a.instances) << "lanes=" << lanes << " pt " << i;
      EXPECT_EQ(b.successes, a.successes) << "lanes=" << lanes << " pt " << i;
      EXPECT_EQ(b.lower_flips, a.lower_flips)
          << "lanes=" << lanes << " pt " << i;
      EXPECT_EQ(b.upper_flips, a.upper_flips)
          << "lanes=" << lanes << " pt " << i;
      EXPECT_NEAR(b.success_rate, a.success_rate, 1e-12)
          << "lanes=" << lanes << " pt " << i;
      EXPECT_NEAR(b.sigma, a.sigma, 1e-9) << "lanes=" << lanes << " pt " << i;
    }
  }
}

/// Euclidean distance between one lane of each engine, straight off the
/// raw planes (usable across precisions, where the float lane's norm may
/// sit outside StateVector's construction tolerance). Fair as long as
/// both lanes carry the same pending phase — true when both engines ran
/// the same plan from the same inputs.
template <typename RealA, typename RealB>
double raw_lane_distance(const BatchedStateVectorT<RealA>& a,
                         const BatchedStateVectorT<RealB>& b, int lane) {
  double d = 0.0;
  for (u64 i = 0; i < a.dim(); ++i) {
    const std::size_t ia = i * static_cast<u64>(a.lanes()) + lane;
    const std::size_t ib = i * static_cast<u64>(b.lanes()) + lane;
    const double dr =
        static_cast<double>(a.re()[ia]) - static_cast<double>(b.re()[ib]);
    const double di =
        static_cast<double>(a.im()[ia]) - static_cast<double>(b.im()[ib]);
    d += dr * dr + di * di;
  }
  return std::sqrt(d);
}

TEST(Float32Engine, TracksDoubleWithinDriftBound) {
  // Float32 lanes through the same plan must stay within a random-walk
  // drift bound of the double engine (~eps_f32 * sqrt(gates) per
  // amplitude; 1e-4 leaves generous headroom at 60 gates) and keep their
  // norms, on every kernel table.
  for_each_kernel_tier([](const char* mode) {
    Pcg64 rng(20260807, 21);
    for (int trial = 0; trial < 6; ++trial) {
      const int n = 4, lanes = 5;
      const QuantumCircuit qc = random_basis_circuit(n, 60, rng);
      const FusedPlan plan(qc);
      BatchedStateVector bsv(n, lanes, plan.row_layout());
      BatchedStateVectorF bsf(n, lanes, plan.row_layout());
      for (int l = 0; l < lanes; ++l) {
        const StateVector init =
            StateVector::from_amplitudes(random_state(n, rng));
        bsv.set_lane(l, nonzero_terms(init));
        bsf.set_lane(l, nonzero_terms(init));
      }
      apply_plan(plan, bsv);
      apply_plan(plan, bsf);
      EXPECT_EQ(check_lane_norms(bsf, 1e-4), "") << mode;
      for (int l = 0; l < lanes; ++l) {
        EXPECT_NEAR(bsf.lane_norm(l), 1.0, 1e-4) << mode << " lane=" << l;
        EXPECT_LT(raw_lane_distance(bsf, bsv, l), 1e-4)
            << mode << " trial=" << trial << " lane=" << l;
      }
    }
  });
}

TEST(PrecisionPolicy, ResolvePrecisionHonorsBudget) {
  RunOptions run;
  // Explicit settings pass through untouched.
  EXPECT_EQ(resolve_precision(run, 1000), Precision::kDouble);
  run.precision = Precision::kFloat32;
  run.float_drift_budget = 0.0;
  EXPECT_EQ(resolve_precision(run, 1000), Precision::kFloat32);
  // kAuto: predicted random-walk drift vs the budget.
  run.precision = Precision::kAuto;
  run.float_drift_budget = 1e-3;
  EXPECT_EQ(resolve_precision(run, 100), Precision::kFloat32);
  run.float_drift_budget = 1e-9;
  EXPECT_EQ(resolve_precision(run, 100), Precision::kDouble);
}

TEST(PrecisionPolicy, Float32EstimatorTracksDoubleWithoutFallback) {
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 3;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  Pcg64 inst_rng(9, 1);
  const ArithInstance inst =
      generate_instances(1, 3, 3, OperandOrders{}, inst_rng)[0];
  const BatchedCleanRun clean(std::make_shared<const FusedPlan>(qc),
                              {initial_state_terms(spec, inst)}, 32);
  const ErrorLocations errors(qc, NoiseModel{.p1q = 0.002, .p2q = 0.004});
  const std::vector<int> out_q = output_qubits(spec);
  EstimatorOptions est;
  est.error_trajectories = 10;

  Pcg64 rng_d(91, 3);
  const auto dbl =
      estimate_channel_marginal_batched(clean, 0, errors, out_q, est, 8, rng_d);

  est.precision = Precision::kFloat32;  // default 1e-3 budget: no trips
  reset_precision_fallback_count();
  Pcg64 rng_f(91, 3);
  const auto f32 =
      estimate_channel_marginal_batched(clean, 0, errors, out_q, est, 8, rng_f);
  EXPECT_EQ(precision_fallback_count(), 0);
  ASSERT_EQ(f32.size(), dbl.size());
  double dev = 0.0;
  for (std::size_t i = 0; i < dbl.size(); ++i)
    dev = std::max(dev, std::abs(f32[i] - dbl[i]));
  EXPECT_LT(dev, 1e-4);
  // Surviving float marginals are renormalized, so downstream simplex
  // checks still hold at double tolerances.
  EXPECT_EQ(check_probability_simplex(f32, 1e-9), "");
  // Events are pre-sampled identically in both precisions.
  EXPECT_EQ(rng_f(), rng_d());
}

TEST(PrecisionPolicy, TrippedBudgetFallsBackToDoubleBitForBit) {
  // A zero drift budget trips the sentinel on every float32 replay group;
  // the redo must reproduce the pure-double estimate bit for bit (the
  // events were pre-sampled, so the replay consumes no extra rng) and
  // count one fallback per replay group.
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 3;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  Pcg64 inst_rng(9, 2);
  const ArithInstance inst =
      generate_instances(1, 3, 3, OperandOrders{}, inst_rng)[0];
  const BatchedCleanRun clean(std::make_shared<const FusedPlan>(qc),
                              {initial_state_terms(spec, inst)}, 32);
  const ErrorLocations errors(qc, NoiseModel{.p1q = 0.002, .p2q = 0.004});
  const std::vector<int> out_q = output_qubits(spec);
  EstimatorOptions est;
  est.error_trajectories = 10;

  Pcg64 rng_d(92, 3);
  const auto dbl =
      estimate_channel_marginal_batched(clean, 0, errors, out_q, est, 8, rng_d);

  est.precision = Precision::kFloat32;
  est.float_drift_budget = 0.0;
  reset_precision_fallback_count();
  Pcg64 rng_f(92, 3);
  const auto fell = estimate_channel_marginal_batched(clean, 0, errors, out_q,
                                                      est, 8, rng_f);
  EXPECT_GT(precision_fallback_count(), 0);
  ASSERT_EQ(fell.size(), dbl.size());
  for (std::size_t i = 0; i < dbl.size(); ++i)
    EXPECT_EQ(fell[i], dbl[i]) << "bin " << i;  // bitwise
  EXPECT_EQ(rng_f(), rng_d());
}

// ---------- lane spans: single-lane and middle-span kernel bodies ----------

constexpr int kSpanQubits = 12;  // 4096 rows: 8-16 tiles at 8 lanes
constexpr int kSpanLanes = 8;

/// One fused op of some plan, labelled for failure messages.
struct SpanOp {
  std::shared_ptr<const FusedPlan> plan;
  std::size_t op;
  std::string what;
};

/// The five basis gates, the kinds a kGate op holds.
constexpr GateKind kBasisKinds[] = {GateKind::kId, GateKind::kX,
                                    GateKind::kSX, GateKind::kRZ,
                                    GateKind::kCX};

/// Every kernel a walk op step can reach, on 12 qubits: each basis gate
/// alone (a kGate op) on in-tile qubits and with qubits above the tile,
/// fused 2x2s in the tile and above it, and diagonals: multi-run,
/// single-run in the tile and across its top, single-qubit, wholly above
/// the tile, and phase-only. Every plan is in the identity row layout, so
/// its ops sit on the qubits its circuit names.
std::vector<SpanOp> span_ops() {
  std::vector<SpanOp> out;
  const int hi = kSpanQubits - 1;  // above every tile height used here
  // A plan puts the qubits an SX superposes in the low rows. An SX on each
  // qubit below the highest such qubit keeps every qubit in place; the ops
  // of that padding are not recorded.
  const auto add = [&](const QuantumCircuit& body, const std::string& what) {
    int top = -1;
    for (const Gate& g : body.gates())
      if (g.kind == GateKind::kSX) top = std::max(top, g.qubits[0]);
    QuantumCircuit qc(kSpanQubits);
    for (int q = 0; q < top; ++q) qc.sx(q);
    const std::size_t pad = qc.gates().size();
    for (const Gate& g : body.gates()) qc.append(g);
    const auto plan = std::make_shared<const FusedPlan>(qc);
    EXPECT_EQ(plan->row_layout(), nullptr) << what;
    for (std::size_t i = 0; i < plan->op_count(); ++i)
      if (plan->ops()[i].gate_begin >= pad)
        out.push_back({plan, i, what + " op " + std::to_string(i)});
  };
  for (GateKind kind : kBasisKinds) {
    std::vector<std::vector<int>> places = {{1}, {hi}};
    if (kind == GateKind::kCX)
      places = {{0, 3}, {hi, 2}, {1, hi}, {hi, hi - 1}};
    for (const std::vector<int>& q : places) {
      QuantumCircuit qc(kSpanQubits);
      if (kind == GateKind::kCX) qc.append(make_gate2(kind, q[0], q[1]));
      else qc.append(make_gate1(kind, q[0], 0.7));
      add(qc, qc.gates()[0].to_string());
    }
  }
  const auto circuit = [](std::initializer_list<Gate> gates) {
    QuantumCircuit qc(kSpanQubits);
    for (const Gate& g : gates) qc.append(g);
    return qc;
  };
  add(circuit({make_gate1(GateKind::kSX, 2),
               make_gate1(GateKind::kRZ, 2, 0.3)}), "2x2 in tile");
  add(circuit({make_gate1(GateKind::kSX, hi),
               make_gate1(GateKind::kRZ, hi, 0.9)}), "2x2 above tile");
  // A phase on every qubit of a set and a CP on every pair of it,
  // transpiled: enough diagonal work for the cost model to fuse one phase
  // table over the set.
  const auto ladder = [&](const std::vector<int>& qs) {
    QuantumCircuit qc(kSpanQubits);
    double theta = 0.3;
    for (std::size_t a = 0; a < qs.size(); ++a) {
      qc.append(make_gate1(GateKind::kP, qs[a], theta += 0.17));
      for (std::size_t b = a + 1; b < qs.size(); ++b)
        qc.append(make_gate2(GateKind::kCP, qs[a], qs[b], theta += 0.11));
    }
    return transpile_to_basis(qc);
  };
  add(ladder({0, 1, 5, 9, 10}), "multi-run diagonal");
  add(ladder({2, 3, 4}), "in-tile diagonal");
  add(ladder({6, 7, 8, 9}), "straddling diagonal");
  add(ladder({hi - 1, hi}), "diagonal above tile");
  add(circuit({make_gate1(GateKind::kRZ, 3, 0.4),
               make_gate1(GateKind::kRZ, 3, 0.9)}), "1-qubit diagonal");
  add(circuit({make_gate1(GateKind::kRZ, hi, 0.4),
               make_gate1(GateKind::kRZ, hi, 0.9)}), "1-qubit high diagonal");
  add(circuit({make_gate1(GateKind::kRZ, 2, 0.4),
               make_gate1(GateKind::kRZ, 2, -0.4)}),
      "phase-only diagonal");
  return out;
}

template <typename Real>
bool lane_bitwise_equal(const BatchedStateVectorT<Real>& a,
                        const BatchedStateVectorT<Real>& b, int lane) {
  const u64 L = static_cast<u64>(a.lanes());
  for (u64 i = 0; i < a.dim(); ++i) {
    const u64 k = i * L + static_cast<u64>(lane);
    if (std::memcmp(&a.re()[k], &b.re()[k], sizeof(Real)) != 0 ||
        std::memcmp(&a.im()[k], &b.im()[k], sizeof(Real)) != 0)
      return false;
  }
  return a.lane_pending_phase(lane) == b.lane_pending_phase(lane);
}

template <typename Real>
BatchedStateVectorT<Real> span_initial_state(std::uint64_t seed) {
  Pcg64 rng(20261017, seed);
  BatchedStateVectorT<Real> bsv(kSpanQubits, kSpanLanes);
  for (int l = 0; l < kSpanLanes; ++l) {
    bsv.set_lane(l, nonzero_terms(StateVector::from_amplitudes(
                        random_state(kSpanQubits, rng))));
    bsv.apply_lane_global_phase(l, 0.1 * l);
  }
  return bsv;
}

/// Every op step on span (b, 1) and on middle spans leaves each touched
/// lane bitwise equal to that lane under the full-width step, and every
/// other lane untouched. One walk of one step covers every tile base of
/// the 4096-row vector. The full-width step itself is held to an oracle
/// lane by lane: in double, the op's gates on the per-gate StateVector
/// path; in float32 (a taller tile), the double step from the same start.
/// On the AVX2 build every double step, full-width and span, must also
/// give the portable build's bits.
template <typename Real>
void expect_spans_match_full_width(const char* mode) {
  const std::vector<std::pair<int, int>> spans = {
      {0, 1}, {5, 1}, {7, 1}, {2, 4}, {1, 3}};
  const std::vector<int> out_q = {0, 4, 8, kSpanQubits - 1};
  const std::vector<SpanOp> ops = span_ops();
  std::uint64_t seed = 0;
  for (const SpanOp& c : ops) {
    const BatchedStateVectorT<Real> init = span_initial_state<Real>(++seed);
    const auto walked = [&](const BatchWalkStep& step) {
      BatchedStateVectorT<Real> out = init;
      apply_batch_walk(*c.plan, out, &step, 1);
      return out;
    };
    const BatchWalkStep whole = BatchWalkStep::op_step(c.plan.get(), c.op);
    const BatchedStateVectorT<Real> full = walked(whole);
    const FusedOp& op = c.plan->ops()[c.op];
    if constexpr (std::is_same_v<Real, double>) {
      expect_portable_bits(full, [&] { return walked(whole); }, out_q,
                           std::string(mode) + " " + c.what);
      for (int l = 0; l < kSpanLanes; ++l) {
        StateVector ref = init.lane_state(l);
        ref.apply_circuit_range(c.plan->circuit(), op.gate_begin,
                                op.gate_end);
        EXPECT_LT(state_distance(full.lane_state(l).amplitudes(),
                                 ref.amplitudes()),
                  kTol)
            << mode << " " << c.what << " lane " << l << " vs scalar";
      }
    } else {
      std::vector<int> all(kSpanLanes);
      std::iota(all.begin(), all.end(), 0);
      BatchedStateVector ref(kSpanQubits, kSpanLanes);
      ref.assign_permuted(init, all);
      apply_batch_walk(*c.plan, ref, &whole, 1);
      for (int l = 0; l < kSpanLanes; ++l)
        EXPECT_LT(raw_lane_distance(full, ref, l), 1e-5)
            << mode << " " << c.what << " lane " << l << " vs double";
    }
    for (const auto& [b, count] : spans) {
      const BatchWalkStep step =
          BatchWalkStep::op_span_step(c.plan.get(), c.op, b, count);
      const BatchedStateVectorT<Real> part = walked(step);
      for (int l = 0; l < kSpanLanes; ++l) {
        const bool touched = l >= b && l < b + count;
        EXPECT_TRUE(lane_bitwise_equal(part, touched ? full : init, l))
            << mode << " " << c.what << " span (" << b << ", " << count
            << ") lane " << l << (touched ? " differs from full width"
                                          : " was modified");
      }
      if constexpr (std::is_same_v<Real, double>)
        expect_portable_bits(part, [&] { return walked(step); }, out_q,
                             std::string(mode) + " " + c.what + " span (" +
                                 std::to_string(b) + ", " +
                                 std::to_string(count) + ")");
    }
  }
}

/// Single-lane Pauli steps against an exact reference built from the raw
/// lane values (X swaps rows, Y swaps with a +-i factor, Z negates).
template <typename Real>
void expect_pauli_steps_exact(const char* mode) {
  const auto plan = std::make_shared<const FusedPlan>(
      QuantumCircuit(kSpanQubits));
  std::uint64_t seed = 100;
  for (Pauli p : {Pauli::kX, Pauli::kY, Pauli::kZ})
    for (int q : {0, 3, 9, kSpanQubits - 1})
      for (int lane : {0, 5, 7}) {
        const BatchedStateVectorT<Real> init =
            span_initial_state<Real>(++seed);
        BatchedStateVectorT<Real> want = init;
        const u64 L = kSpanLanes, bit = u64{1} << q;
        for (u64 r = 0; r < init.dim(); ++r) {
          const u64 k = r * L + static_cast<u64>(lane);
          const u64 src = (p == Pauli::kZ ? r : r ^ bit) * L +
                          static_cast<u64>(lane);
          const Real sr = init.re()[src], si = init.im()[src];
          const bool set = (r & bit) != 0;
          if (p == Pauli::kX) {
            want.re()[k] = sr;
            want.im()[k] = si;
          } else if (p == Pauli::kY) {  // row clear: -i*v1; set: i*v0
            want.re()[k] = set ? -si : si;
            want.im()[k] = set ? sr : -sr;
          } else {
            want.re()[k] = set ? -sr : sr;
            want.im()[k] = set ? -si : si;
          }
        }
        BatchedStateVectorT<Real> got = init;
        const BatchWalkStep step = BatchWalkStep::pauli_step(lane, p, q);
        apply_batch_walk(*plan, got, &step, 1);
        for (int l = 0; l < kSpanLanes; ++l)
          EXPECT_TRUE(lane_bitwise_equal(got, want, l))
              << mode << " Pauli " << static_cast<int>(p) << " q" << q
              << " on lane " << lane << ", lane " << l << " differs";
      }
}

TEST(LaneSpan, SpanOpsCoverEveryWalkKernel) {
  // The span tests below are only as good as this op list: it must reach
  // every kernel table entry — each basis kGate and the 2x2 both inside
  // the tile and above it, and each diagonal shape at both tile heights
  // (2^8 rows double, 2^9 float at 8 lanes).
  int m1_low = 0, m1_high = 0, diag1 = 0, diag_multi = 0, diag_one_run = 0,
      diag_above = 0, diag_phase = 0;
  std::vector<GateKind> gates_low, gates_high;
  for (const SpanOp& c : span_ops()) {
    const FusedOp& op = c.plan->ops()[c.op];
    if (op.kind == FusedOp::Kind::kMatrix1) {
      ++(op.q0 >= 9 ? m1_high : m1_low);
    } else if (op.kind == FusedOp::Kind::kDiagonal) {
      if (op.qubits.empty()) ++diag_phase;
      else if (op.qubits.size() == 1) ++diag1;
      else if (op.qubits.front() >= 10) ++diag_above;
      else if (op.shifts.size() >= 2) ++diag_multi;
      else ++diag_one_run;
    } else {
      ASSERT_EQ(op.kind, FusedOp::Kind::kGate) << c.what;
      const Gate& g = c.plan->circuit().gates()[op.gate_begin];
      const bool high = std::max(g.qubits[0], g.qubits[1]) >= 9;
      (high ? gates_high : gates_low).push_back(g.kind);
    }
  }
  EXPECT_GT(m1_low, 0);
  EXPECT_GT(m1_high, 0);
  EXPECT_GE(diag1, 2);
  EXPECT_GT(diag_multi, 0);
  EXPECT_GE(diag_one_run, 2);
  EXPECT_GT(diag_above, 0);
  EXPECT_GT(diag_phase, 0);
  for (GateKind kind : kBasisKinds) {
    EXPECT_NE(std::count(gates_low.begin(), gates_low.end(), kind), 0)
        << "no in-tile kGate op of kind " << gate_name(kind);
    EXPECT_NE(std::count(gates_high.begin(), gates_high.end(), kind), 0)
        << "no kGate op of kind " << gate_name(kind) << " above the tile";
  }
}

TEST(LaneSpan, OpStepsMatchFullWidthBitwise) {
  for_each_kernel_tier([](const char* mode) {
    expect_spans_match_full_width<double>(mode);
    expect_spans_match_full_width<float>(mode);
  });
}

TEST(LaneSpan, PauliStepsAreExact) {
  for_each_kernel_tier([](const char* mode) {
    expect_pauli_steps_exact<double>(mode);
    expect_pauli_steps_exact<float>(mode);
  });
}

// ---------- row layout and live tiles ----------

/// Lane `lane` of `bsv` in logical basis order, raw (pending phase not
/// folded in), read through the layout and the live masks: rows where the
/// lane's mask bit is clear read as zero.
template <typename Real>
std::vector<cplx> raw_logical_lane(const BatchedStateVectorT<Real>& bsv,
                                   int lane) {
  const RowLayout* layout = bsv.layout().get();
  const u64 L = static_cast<u64>(bsv.lanes());
  std::vector<cplx> out(bsv.dim());
  for (u64 i = 0; i < out.size(); ++i) {
    const u64 row = layout ? layout->to_row(i) : i;
    if (!((bsv.live_masks()[row >> bsv.tile_log2()] >> lane) & 1)) continue;
    const u64 k = row * L + static_cast<u64>(lane);
    out[i] = cplx{static_cast<double>(bsv.re()[k]),
                  static_cast<double>(bsv.im()[k])};
  }
  return out;
}

/// The unmasked reference of `a`: a copy in a's row layout with every tile
/// live in every lane (make_dense), so its walks touch every row.
template <typename Real>
BatchedStateVectorT<Real> dense_reference(const BatchedStateVectorT<Real>& a) {
  BatchedStateVectorT<Real> b = a;
  b.make_dense();
  return b;
}

/// `got` (masked, in a plan's layout) against `want` (its dense reference
/// in the same layout) after the same trajectories: per lane, the same
/// pending phase, equal raw amplitudes and lane_state (zeros up to their
/// sign: the masked walk never computes a dead row), bitwise-equal
/// marginals, and every clear mask bit of `got` covering exact zeros of
/// `want`.
template <typename Real>
void expect_walks_agree(const BatchedStateVectorT<Real>& got,
                        const BatchedStateVectorT<Real>& want,
                        const std::vector<int>& out_q,
                        const std::string& what) {
  ASSERT_EQ(got.lanes(), want.lanes()) << what;
  const u64 L = static_cast<u64>(got.lanes());
  for (int j = 0; j < got.lanes(); ++j) {
    EXPECT_EQ(got.lane_pending_phase(j), want.lane_pending_phase(j))
        << what << " lane " << j;
    const std::vector<cplx> g = raw_logical_lane(got, j);
    const std::vector<cplx> w = raw_logical_lane(want, j);
    std::size_t differ = 0;
    for (std::size_t i = 0; i < g.size(); ++i) differ += !(g[i] == w[i]);
    EXPECT_EQ(differ, 0u) << what << " lane " << j << " raw amplitudes";
    if constexpr (std::is_same_v<Real, double>) {
      const auto gs = got.lane_state(j).amplitudes();
      const auto ws = want.lane_state(j).amplitudes();
      std::size_t states_differ = 0;
      for (std::size_t i = 0; i < gs.size(); ++i)
        states_differ += !(gs[i] == ws[i]);
      EXPECT_EQ(states_differ, 0u) << what << " lane " << j << " lane_state";
    }
  }
  const auto gm = got.all_lane_marginal_probabilities(out_q);
  const auto wm = want.all_lane_marginal_probabilities(out_q);
  for (std::size_t j = 0; j < gm.size(); ++j)
    EXPECT_EQ(std::memcmp(gm[j].data(), wm[j].data(),
                          gm[j].size() * sizeof(double)),
              0)
        << what << " lane " << j << " marginal";
  // Mask soundness: a clear bit claims exact zeros.
  std::size_t unsound = 0;
  for (u64 t = 0; t < got.live_masks().size(); ++t)
    for (u64 j = 0; j < L; ++j) {
      if ((got.live_masks()[t] >> j) & 1) continue;
      for (u64 row = t << got.tile_log2(); row < (t + 1) << got.tile_log2();
           ++row)
        unsound += want.re()[row * L + j] != Real{0} ||
                   want.im()[row * L + j] != Real{0};
    }
  EXPECT_EQ(unsound, 0u) << what << ": clear mask bits over nonzero rows";
}

/// The group's resume gate: its earliest first-error site.
std::size_t group_start(const BatchedCleanRun& clean,
                        const std::vector<std::vector<ErrorEvent>>& events) {
  std::size_t g0 = clean.plan().gate_count();
  for (const auto& ev : events)
    if (!ev.empty()) g0 = std::min(g0, ev.front().gate_index + 1);
  return g0;
}

/// One trajectory group loaded from `clean` into the plan's layout at its
/// resume gate, before any trajectory runs.
template <typename Real>
BatchedStateVectorT<Real> load_group(
    const BatchedCleanRun& clean, const std::vector<int>& lane_map,
    const std::vector<std::vector<ErrorEvent>>& events) {
  BatchedStateVectorT<Real> got(1, 1);
  clean.load_states_at(group_start(clean, events), lane_map, got);
  return got;
}

/// `bsv` after its lanes' trajectories, from the group's resume gate.
template <typename Real>
BatchedStateVectorT<Real> replayed(
    const BatchedCleanRun& clean, BatchedStateVectorT<Real> bsv,
    const std::vector<std::vector<ErrorEvent>>& events) {
  run_trajectories_batched(clean.plan(), bsv, group_start(clean, events),
                           events);
  return bsv;
}

/// One trajectory group loaded from `clean` into the plan's layout, and
/// its dense reference, through the same trajectories. Each
/// loaded lane must hold its member's state after the group's resume gate
/// as the scalar CleanRun `oracle[member]` computes it. Returns the
/// replayed group.
template <typename Real>
BatchedStateVectorT<Real> expect_group_agrees(
    const BatchedCleanRun& clean, const std::vector<CleanRun>& oracle,
    const std::vector<int>& lane_map,
    const std::vector<std::vector<ErrorEvent>>& events,
    const std::vector<int>& out_q, const std::string& what) {
  const std::size_t g0 = group_start(clean, events);
  const BatchedStateVectorT<Real> got = load_group<Real>(clean, lane_map,
                                                         events);
  EXPECT_TRUE(got.layout() != nullptr) << what;
  const double load_tol = std::is_same_v<Real, double> ? 1e-12 : 1e-5;
  for (std::size_t j = 0; j < lane_map.size(); ++j) {
    const cplx ph =
        std::polar(1.0, got.lane_pending_phase(static_cast<int>(j)));
    const std::vector<cplx> v = raw_logical_lane(got, static_cast<int>(j));
    const StateVector ref =
        oracle[static_cast<std::size_t>(lane_map[j])].state_at(g0);
    double d = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i)
      d = std::max(d, std::abs(v[i] * ph - ref.amplitudes()[i]));
    EXPECT_LT(d, load_tol) << what << " load lane " << j;
  }
  const BatchedStateVectorT<Real> out = replayed(clean, got, events);
  expect_walks_agree(out, replayed(clean, dense_reference(got), events),
                     out_q, what);
  return out;
}

/// Gate indices of `qc` satisfying `pred`.
template <typename Pred>
std::vector<std::size_t> gates_where(const QuantumCircuit& qc, Pred pred) {
  std::vector<std::size_t> out;
  for (std::size_t g = 0; g < qc.gates().size(); ++g)
    if (pred(qc.gates()[g])) out.push_back(g);
  return out;
}

ErrorEvent event_at(std::size_t gate, Pauli p0, Pauli p1 = Pauli::kI) {
  ErrorEvent ev;
  ev.gate_index = gate;
  ev.pauli0 = p0;
  ev.pauli1 = p1;
  return ev;
}

/// `members` operand instances of `spec` at `orders`, drawn from `seed`.
std::vector<ArithInstance> instances_for(const CircuitSpec& spec,
                                         OperandOrders orders, int members,
                                         std::uint64_t seed) {
  Pcg64 rng(seed, 3);
  return generate_instances(members, spec.n, spec.n, orders, rng);
}

/// The batched clean run of those instances, loaded from their basis terms
/// as InstanceBatch loads them.
BatchedCleanRun clean_run_for(const CircuitSpec& spec, OperandOrders orders,
                              int members, std::uint64_t seed) {
  const auto plan =
      std::make_shared<const FusedPlan>(build_transpiled_circuit(spec));
  std::vector<std::vector<BasisTerm>> initials;
  for (const ArithInstance& inst : instances_for(spec, orders, members, seed))
    initials.push_back(initial_state_terms(spec, inst));
  return BatchedCleanRun(plan, initials, 64);
}

/// Each instance's scalar CleanRun, on its own plan: the oracle of the
/// batched loads. Sparse checkpoints keep the dense runs small.
std::vector<CleanRun> scalar_runs_for(const CircuitSpec& spec,
                                      OperandOrders orders, int members,
                                      std::uint64_t seed) {
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  std::vector<CleanRun> runs;
  for (const ArithInstance& inst : instances_for(spec, orders, members, seed))
    runs.emplace_back(qc, make_initial_state(spec, inst), 256);
  return runs;
}

TEST(RowLayout, OperandRegistersTakeTheHighRowBits) {
  // QFA's x and QFM's x and y registers are classical; the result registers
  // are not. For QFA n=8 and QFM n=4 the layout is a rotation by 8 bits,
  // and the plan's circuit is the caller's with every qubit mapped.
  CircuitSpec qfa;
  qfa.n = 8;
  CircuitSpec qfm;
  qfm.op = Operation::kMultiply;
  qfm.n = 4;
  for (const CircuitSpec& spec : {qfa, qfm}) {
    const QuantumCircuit qc = build_transpiled_circuit(spec);
    const FusedPlan plan(qc);
    const auto& layout = plan.row_layout();
    ASSERT_TRUE(layout != nullptr);
    ASSERT_EQ(layout->num_qubits(), 16);
    for (int q = 0; q < 16; ++q) EXPECT_EQ(layout->phys(q), (q + 8) % 16);
    ASSERT_EQ(plan.gate_count(), qc.gates().size());
    EXPECT_EQ(plan.circuit().global_phase(), qc.global_phase());
    std::size_t unmapped = 0;
    for (std::size_t g = 0; g < qc.gates().size(); ++g) {
      const Gate& logical = qc.gates()[g];
      const Gate& row = plan.circuit().gates()[g];
      ASSERT_EQ(row.kind, logical.kind);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row.param),
                std::bit_cast<std::uint64_t>(logical.param));
      for (int b = 0; b < logical.arity(); ++b)
        unmapped += row.qubits[b] != layout->phys(logical.qubits[b]);
    }
    EXPECT_EQ(unmapped, 0u) << "gates not in row labels";
  }
  // A circuit with no classical qubits keeps the identity layout.
  QuantumCircuit qc(3);
  for (int q = 0; q < 3; ++q) qc.sx(q);
  const FusedPlan plain(qc);
  EXPECT_EQ(plain.row_layout(), nullptr);
}

TEST(RowLayout, WalksRejectAVectorOutsideThePlansLayout) {
  // A plan's ops address row bits in its layout, so every walk entry point
  // refuses a vector in another layout instead of running the ops on the
  // wrong rows.
  CircuitSpec spec;
  spec.n = 8;
  const FusedPlan plan(build_transpiled_circuit(spec));
  ASSERT_TRUE(plan.row_layout() != nullptr);
  const int n = plan.circuit().num_qubits();
  BatchedStateVector identity(n, 2);
  EXPECT_THROW(apply_plan(plan, identity), CheckError);
  EXPECT_THROW(apply_plan_range(plan, identity, 0, plan.gate_count() / 2),
               CheckError);
  const std::vector<std::vector<ErrorEvent>> events = {
      {event_at(5, Pauli::kX)}, {}};
  EXPECT_THROW(run_trajectories_batched(plan, identity, 0, events),
               CheckError);
  BatchedStateVectorF identity_f(n, 2);
  EXPECT_THROW(apply_plan(plan, identity_f), CheckError);
  // The same calls run on a vector in the plan's layout.
  BatchedStateVector rows(n, 2, plan.row_layout());
  apply_plan_range(plan, rows, 0, plan.gate_count() / 2);
  run_trajectories_batched(plan, rows, plan.gate_count() / 2,
                           {{}, {event_at(plan.gate_count() - 1,
                                          Pauli::kZ)}});
  EXPECT_NEAR(rows.lane_norm(0), 1.0, 1e-12);
  EXPECT_NEAR(rows.lane_norm(1), 1.0, 1e-12);
}

TEST(RowLayout, QfaGroupsMatchTheDenseWalkBitwise) {
  // QFA n=8: Paulis on the x register (controls of the CP blocks' CX) move
  // lanes across tiles — lanes 0 and 1 carry one member and move to
  // different tiles — alongside in-register errors, an interior split, an
  // error on the last gate, and a clean lane.
  CircuitSpec spec;
  spec.n = 8;
  const std::vector<int> out_q = output_qubits(spec);
  for_each_kernel_tier([&](const char* mode) {
    for (const OperandOrders orders :
         {OperandOrders{1, 1}, OperandOrders{2, 2}}) {
      const BatchedCleanRun clean = clean_run_for(spec, orders, 4, 17);
      const std::vector<CleanRun> oracle = scalar_runs_for(spec, orders, 4, 17);
      // Register predicates read the caller's labels; the plan's circuit
      // has the same gates at the same indices in row labels.
      const QuantumCircuit qc = build_transpiled_circuit(spec);
      const std::size_t total = qc.gates().size();
      const auto x_cx = gates_where(qc, [&](const Gate& g) {
        return g.kind == GateKind::kCX && g.qubits[1] < spec.n;
      });
      const auto y_1q = gates_where(qc, [&](const Gate& g) {
        return g.arity() == 1 && g.qubits[0] >= spec.n;
      });
      ASSERT_GE(x_cx.size(), 8u);
      ASSERT_GE(y_1q.size(), 4u);
      const FusedPlan& plan = clean.plan();
      std::size_t interior = total;
      for (std::size_t g = total / 3; g + 1 < total && interior == total; ++g)
        if (plan.ops()[plan.op_of_gate(g + 1)].gate_begin <= g)
          interior = g;
      ASSERT_LT(interior, total);
      std::vector<std::vector<ErrorEvent>> events(8);
      events[0] = {event_at(x_cx[1], Pauli::kI, Pauli::kX)};
      events[1] = {event_at(x_cx[6], Pauli::kZ, Pauli::kY)};
      events[2] = {event_at(x_cx[2], Pauli::kX, Pauli::kX),
                   event_at(y_1q[y_1q.size() / 2], Pauli::kY)};
      events[3] = {event_at(y_1q[1], Pauli::kX)};
      events[4] = {event_at(x_cx[3], Pauli::kI, Pauli::kX),
                   event_at(x_cx[x_cx.size() - 2], Pauli::kI, Pauli::kX)};
      events[6] = {event_at(interior, Pauli::kY)};
      events[7] = {event_at(x_cx[4], Pauli::kI, Pauli::kY),
                   event_at(total - 1, Pauli::kX)};
      const std::string what = std::string(mode) + " qfa8 " +
                               std::to_string(orders.order_x) + ":" +
                               std::to_string(orders.order_y);
      const std::vector<int> map = {0, 0, 1, 2, 3, 1, 2, 0};
      const BatchedStateVector group = expect_group_agrees<double>(
          clean, oracle, map, events, out_q, what);
      expect_group_agrees<float>(clean, oracle, map, events, out_q,
                                 what + " f32");
      // A ragged group: 3 lanes of a 4-member run.
      const std::vector<std::vector<ErrorEvent>> ragged = {
          events[1], events[0], events[4]};
      const std::vector<int> ragged_map = {3, 1, 3};
      const BatchedStateVector ragged_group = expect_group_agrees<double>(
          clean, oracle, ragged_map, ragged, out_q, what + " ragged");
      // The ESS fallback's seed: one member in every lane.
      const std::vector<int> fallback_map(events.size(), 2);
      const BatchedStateVector fallback = expect_group_agrees<double>(
          clean, oracle, fallback_map, events, out_q, what + " fallback");
      expect_group_agrees<float>(clean, oracle,
                                 std::vector<int>(events.size(), 1), events,
                                 out_q, what + " fallback f32");
      // Cross-tier: on the AVX2 build, each double group from a clean run
      // built and replayed on the portable build holds the same bits.
      expect_portable_bits(group, [&] {
        const BatchedCleanRun pc = clean_run_for(spec, orders, 4, 17);
        return replayed(pc, load_group<double>(pc, map, events), events);
      }, out_q, what);
      expect_portable_bits(ragged_group, [&] {
        const BatchedCleanRun pc = clean_run_for(spec, orders, 4, 17);
        return replayed(pc, load_group<double>(pc, ragged_map, ragged),
                        ragged);
      }, out_q, what + " ragged");
      expect_portable_bits(fallback, [&] {
        const BatchedCleanRun pc = clean_run_for(spec, orders, 4, 17);
        return replayed(pc, load_group<double>(pc, fallback_map, events),
                        events);
      }, out_q, what + " fallback");
    }
  });
}

TEST(RowLayout, QfmGroupsMatchTheDenseWalkBitwise) {
  // QFM n=4: an error inside a CCP block leaves a slice whose CX couples
  // two classical qubits (x and y): a cross-tile op step.
  CircuitSpec spec;
  spec.op = Operation::kMultiply;
  spec.n = 4;
  const std::vector<int> out_q = output_qubits(spec);
  for_each_kernel_tier([&](const char* mode) {
    const BatchedCleanRun clean = clean_run_for(spec, {1, 2}, 4, 23);
    const std::vector<CleanRun> oracle = scalar_runs_for(spec, {1, 2}, 4, 23);
    const QuantumCircuit qc = build_transpiled_circuit(spec);
    const FusedPlan& plan = clean.plan();
    const int classical = 2 * spec.n;
    const auto xy_cx = gates_where(qc, [&](const Gate& g) {
      return g.kind == GateKind::kCX && g.qubits[0] < classical &&
             g.qubits[1] < classical;
    });
    ASSERT_GE(xy_cx.size(), 4u);
    // Sites inside the op that holds a classical CX, before the CX.
    std::vector<std::size_t> inside;
    for (std::size_t g : xy_cx) {
      const FusedOp& op = plan.ops()[plan.op_of_gate(g)];
      if (op.gate_begin < g) inside.push_back(g - 1);
    }
    ASSERT_GE(inside.size(), 2u);
    const auto x_cx = gates_where(qc, [&](const Gate& g) {
      return g.kind == GateKind::kCX && g.qubits[1] < spec.n;
    });
    ASSERT_FALSE(x_cx.empty());
    std::vector<std::vector<ErrorEvent>> events(6);
    events[0] = {event_at(inside[0], Pauli::kZ)};
    events[1] = {event_at(inside[inside.size() / 2], Pauli::kX)};
    events[2] = {event_at(inside[1], Pauli::kY),
                 event_at(xy_cx.back(), Pauli::kX, Pauli::kX)};
    events[3] = {event_at(x_cx[x_cx.size() / 2], Pauli::kI, Pauli::kY)};
    events[5] = {event_at(inside.back(), Pauli::kX)};
    const std::string what = std::string(mode) + " qfm4";
    const std::vector<int> map = {0, 1, 1, 3, 2, 0};
    const BatchedStateVector group = expect_group_agrees<double>(
        clean, oracle, map, events, out_q, what);
    expect_group_agrees<float>(clean, oracle, map, events, out_q,
                               what + " f32");
    expect_group_agrees<float>(clean, oracle,
                               std::vector<int>(events.size(), 3), events,
                               out_q, what + " fallback f32");
    // Cross-tier: on the AVX2 build, the double group from a clean run
    // built and replayed on the portable build holds the same bits.
    expect_portable_bits(group, [&] {
      const BatchedCleanRun pc = clean_run_for(spec, {1, 2}, 4, 23);
      return replayed(pc, load_group<double>(pc, map, events), events);
    }, out_q, what);
  });
}

/// `a` and `b` hold the same bits: shape, layout, live masks, pending
/// phases and every live tile's rows (packed or not).
void expect_same_bits(const BatchedStateVector& a, const BatchedStateVector& b,
                      const std::string& what) {
  ASSERT_EQ(a.lanes(), b.lanes()) << what;
  ASSERT_EQ(a.tile_log2(), b.tile_log2()) << what;
  ASSERT_EQ(a.is_packed(), b.is_packed()) << what;
  ASSERT_EQ(a.live_masks(), b.live_masks()) << what;
  EXPECT_EQ(a.layout(), b.layout()) << what;
  for (int j = 0; j < a.lanes(); ++j) {
    const double pa = a.lane_pending_phase(j), pb = b.lane_pending_phase(j);
    EXPECT_EQ(std::memcmp(&pa, &pb, sizeof(double)), 0)
        << what << " lane " << j << " pending phase";
  }
  const u64 stride =
      (u64{1} << a.tile_log2()) * static_cast<u64>(a.lanes());
  u64 slot = 0;
  std::size_t differ = 0;
  for (u64 t = 0; t < a.live_masks().size(); ++t) {
    if (a.live_masks()[t] == 0) continue;
    const u64 off = (a.is_packed() ? slot++ : t) * stride;
    differ += std::memcmp(a.re() + off, b.re() + off,
                          stride * sizeof(double)) != 0;
    differ += std::memcmp(a.im() + off, b.im() + off,
                          stride * sizeof(double)) != 0;
  }
  EXPECT_EQ(differ, 0u) << what << ": live tile planes differ";
}

TEST(BatchedCleanRunTest, TermsRunIsBitwiseTheDenseStatesRun) {
  // InstanceBatch loads operand states from their basis terms; the dense
  // make_initial_state vectors through the StateVector adapter must give
  // the same run, bit for bit, at every checkpoint.
  CircuitSpec qfa;
  qfa.n = 8;
  CircuitSpec qfm;
  qfm.op = Operation::kMultiply;
  qfm.n = 4;
  for (const CircuitSpec& spec : {qfa, qfm}) {
    const auto plan =
        std::make_shared<const FusedPlan>(build_transpiled_circuit(spec));
    for (const OperandOrders orders :
         {OperandOrders{1, 1}, OperandOrders{1, 2}, OperandOrders{2, 2}}) {
      for (const int members : {8, 3}) {  // a full and a ragged group
        std::vector<std::vector<BasisTerm>> terms;
        std::vector<StateVector> dense;
        for (const ArithInstance& inst :
             instances_for(spec, orders, members, 29)) {
          terms.push_back(initial_state_terms(spec, inst));
          dense.push_back(make_initial_state(spec, inst));
        }
        const BatchedCleanRun from_terms(plan, terms, 64);
        const BatchedCleanRun from_dense(plan, dense, 64);
        const std::string what =
            std::string(spec.op == Operation::kAdd ? "qfa8 " : "qfm4 ") +
            std::to_string(orders.order_x) + ":" +
            std::to_string(orders.order_y) + " members " +
            std::to_string(members);
        ASSERT_EQ(from_terms.boundaries(), from_dense.boundaries()) << what;
        ASSERT_EQ(from_terms.checkpoints().size(),
                  from_dense.checkpoints().size())
            << what;
        ASSERT_GT(from_terms.checkpoints().size(), 2u) << what;
        for (std::size_t k = 0; k < from_terms.checkpoints().size(); ++k) {
          // The final state is packed like the others: a run keeps no
          // full planes.
          EXPECT_TRUE(from_terms.checkpoints()[k].is_packed()) << what;
          expect_same_bits(from_terms.checkpoints()[k],
                           from_dense.checkpoints()[k],
                           what + " checkpoint " + std::to_string(k));
        }
      }
    }
  }
}

TEST(CdfSampler, MatchesLinearScanSemantics) {
  // Deterministic draw positions: with a known uniform stream the sampler
  // must land on the first index whose running sum exceeds u.
  const std::vector<double> probs = {0.0, 0.25, 0.0, 0.5, 0.25};
  CdfSampler sampler(probs);
  EXPECT_EQ(sampler.size(), probs.size());
  Pcg64 rng(123, 9);
  std::vector<int> counts(probs.size(), 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.draw(rng)];
  EXPECT_EQ(counts[0], 0);  // zero-probability bins never drawn
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1], 5000, 400);
  EXPECT_NEAR(counts[3], 10000, 500);
  EXPECT_NEAR(counts[4], 5000, 400);
}

}  // namespace
}  // namespace qfab
