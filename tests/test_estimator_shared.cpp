// Shared-trajectory estimator validation: exact delegation for single-rate
// clusters, stream-identical proposal columns, importance-reweighted
// columns tracking the exact channel, ESS fallbacks (bit-for-bit on the
// scalar CleanRun, to replay rounding on the batched one), and sweep-level
// equivalence between shared and per-rate evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exp/sweep.h"
#include "noise/densitymatrix.h"
#include "noise/estimator.h"
#include "qfb/adder.h"
#include "transpile/transpile.h"

namespace qfab {
namespace {

QuantumCircuit qfa_circuit(int n) {
  AdderOptions options;
  options.max_rotation_order = n - 1;
  return transpile_to_basis(make_qfa(n, n, options));
}

NoiseModel depol(double p) {
  NoiseModel nm;
  nm.p1q = nm.p2q = p;
  return nm;
}

std::vector<int> result_qubits(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) out.push_back(n + i);
  return out;
}

/// Scale p so the proposal's expected event count is ~lambda (expected
/// events are ~linear in p at these magnitudes), keeping tests robust to
/// transpiled gate-count changes.
double rate_for_lambda(const QuantumCircuit& qc, double lambda) {
  const double base = 1e-3;
  const ErrorLocations probe(qc, depol(base));
  return base * lambda / probe.expected_events();
}

double total_variation(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double tv = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) tv += std::abs(a[i] - b[i]);
  return 0.5 * tv;
}

TEST(SharedEstimator, SingleRateClusterDelegatesBitForBit) {
  const QuantumCircuit qc = qfa_circuit(3);
  const CleanRun clean(qc, StateVector(qc.num_qubits()), 16);
  const std::vector<int> outputs = result_qubits(3);
  const std::vector<ErrorLocations> cluster{ErrorLocations(qc, depol(0.01))};
  SharedEstimatorOptions opt;
  opt.error_trajectories = 10;

  for (int max_lanes : {1, 4}) {
    std::vector<Pcg64> rngs;
    rngs.emplace_back(7, 9);
    SharedEstimateStats stats;
    const auto shared = estimate_channel_marginal_shared(
        clean, cluster, outputs, opt, max_lanes, rngs, &stats);
    ASSERT_EQ(shared.size(), 1u);

    Pcg64 ref_rng(7, 9);
    const EstimatorOptions eopt{opt.error_trajectories};
    const std::vector<double> ref =
        max_lanes > 1
            ? estimate_channel_marginal_batched(clean, cluster[0], outputs,
                                                eopt, max_lanes, ref_rng)
            : estimate_channel_marginal(clean, cluster[0], outputs, eopt,
                                        ref_rng);
    EXPECT_EQ(shared[0], ref);  // bitwise: same code path, same stream
    // The delegated stream advanced exactly as the per-rate estimator's.
    EXPECT_EQ(rngs[0](), ref_rng());
    EXPECT_EQ(stats.fallback_columns, 0);
    EXPECT_EQ(stats.rate_columns, 1);
  }
}

TEST(SharedEstimator, ProposalColumnMatchesStratifiedStream) {
  const QuantumCircuit qc = qfa_circuit(4);
  const CleanRun clean(qc, StateVector(qc.num_qubits()), 32);
  const std::vector<int> outputs = result_qubits(4);
  const double p = rate_for_lambda(qc, 2.0);
  std::vector<ErrorLocations> cluster;
  for (double f : {0.25, 0.5, 1.0}) cluster.emplace_back(qc, depol(f * p));
  SharedEstimatorOptions opt;
  opt.error_trajectories = 24;

  std::vector<Pcg64> rngs;
  for (std::uint64_t r = 0; r < cluster.size(); ++r) rngs.emplace_back(11, r);
  SharedEstimateStats stats;
  const auto shared = estimate_channel_marginal_shared(clean, cluster, outputs,
                                                       opt, 8, rngs, &stats);
  ASSERT_EQ(shared.size(), 3u);

  // The proposal (largest rate, index 2) consumed its stream exactly as the
  // stratified estimator would; dedup only regroups the average, so the
  // estimates agree to summation rounding.
  Pcg64 ref_rng(11, 2);
  const std::vector<double> ref = estimate_channel_marginal_batched(
      clean, cluster[2], outputs, EstimatorOptions{opt.error_trajectories}, 8,
      ref_rng);
  ASSERT_EQ(shared[2].size(), ref.size());
  for (std::size_t b = 0; b < ref.size(); ++b)
    EXPECT_NEAR(shared[2][b], ref[b], 1e-12);
  EXPECT_GE(stats.unique_trajectories, 1);
  EXPECT_LE(stats.unique_trajectories, stats.proposal_trajectories);
  // Every reweighted column is a distribution.
  for (const std::vector<double>& col : shared) {
    double sum = 0.0;
    for (double v : col) {
      EXPECT_GE(v, -1e-12);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SharedEstimator, ReweightedColumnsTrackExactChannel) {
  const QuantumCircuit qc = qfa_circuit(3);  // 6 qubits: exact DM affordable
  const CleanRun clean(qc, StateVector(qc.num_qubits()), 32);
  const std::vector<int> outputs = result_qubits(3);
  const double p = rate_for_lambda(qc, 1.5);
  const std::vector<double> fractions{0.3, 0.5, 0.75, 1.0};
  std::vector<ErrorLocations> cluster;
  for (double f : fractions) cluster.emplace_back(qc, depol(f * p));
  SharedEstimatorOptions opt;
  opt.error_trajectories = 400;

  std::vector<Pcg64> rngs;
  for (std::uint64_t r = 0; r < cluster.size(); ++r) rngs.emplace_back(13, r);
  SharedEstimateStats stats;
  const auto shared = estimate_channel_marginal_shared(clean, cluster, outputs,
                                                       opt, 16, rngs, &stats);

  for (std::size_t r = 0; r < cluster.size(); ++r) {
    DensityMatrix dm(qc.num_qubits());
    dm.apply_noisy_circuit(qc, depol(fractions[r] * p));
    const std::vector<double> exact = dm.marginal_probabilities(outputs);
    EXPECT_LT(total_variation(shared[r], exact), 0.05)
        << "rate fraction " << fractions[r];
    // And within statistical agreement of a fresh stratified estimate.
    Pcg64 strat_rng(99, r);
    const std::vector<double> strat = estimate_channel_marginal_batched(
        clean, cluster[r], outputs, EstimatorOptions{opt.error_trajectories},
        16, strat_rng);
    EXPECT_LT(total_variation(shared[r], strat), 0.08);
  }
  // Mild rate ratios at this lambda keep every column above the guard.
  EXPECT_EQ(stats.fallback_columns, 0);
  EXPECT_GT(stats.ess_fraction_min, 0.25);
}

TEST(SharedEstimator, ForcedEssFallbackReproducesStratifiedBitForBit) {
  const QuantumCircuit qc = qfa_circuit(3);
  const CleanRun clean(qc, StateVector(qc.num_qubits()), 16);
  const std::vector<int> outputs = result_qubits(3);
  const double p = rate_for_lambda(qc, 2.0);
  std::vector<ErrorLocations> cluster;
  for (double f : {0.5, 1.0}) cluster.emplace_back(qc, depol(f * p));
  SharedEstimatorOptions opt;
  opt.error_trajectories = 32;
  // ESS < T whenever any two trajectories carry different weights, so a
  // threshold of exactly T forces every non-proposal column to fall back
  // (the proposal's ESS is exactly T and never falls back).
  opt.min_ess_fraction = 1.0;

  for (int max_lanes : {1, 8}) {
    std::vector<Pcg64> rngs;
    rngs.emplace_back(17, 0);
    rngs.emplace_back(17, 1);
    SharedEstimateStats stats;
    const auto shared = estimate_channel_marginal_shared(
        clean, cluster, outputs, opt, max_lanes, rngs, &stats);

    EXPECT_EQ(stats.fallback_columns, 1);
    EXPECT_EQ(stats.fallback_trajectories, opt.error_trajectories);
    EXPECT_LT(stats.ess_fraction_min, 1.0);

    // The fallback column is exactly the per-rate call from its own
    // (previously untouched) stream.
    Pcg64 ref_rng(17, 0);
    const EstimatorOptions eopt{opt.error_trajectories};
    const std::vector<double> ref =
        max_lanes > 1
            ? estimate_channel_marginal_batched(clean, cluster[0], outputs,
                                                eopt, max_lanes, ref_rng)
            : estimate_channel_marginal(clean, cluster[0], outputs, eopt,
                                        ref_rng);
    EXPECT_EQ(shared[0], ref);
    EXPECT_EQ(rngs[0](), ref_rng());
  }
}

TEST(SharedEstimator, BatchedForcedEssFallbackMatchesPerMemberEstimate) {
  // The batched cluster estimator's fallback columns: every member's
  // non-proposal column falls back, consumes its stream exactly as the
  // pooled per-rate estimator does, and matches the estimate of a scalar
  // CleanRun of that member from the same stream to replay rounding (its
  // groups load from the batched checkpoints instead).
  const QuantumCircuit qc = qfa_circuit(3);
  const int n = qc.num_qubits();
  std::vector<StateVector> initials;
  for (u64 v : {0ull, 5ull, 9ull, 14ull}) {
    StateVector sv(n);
    sv.set_basis_state(v);
    initials.push_back(sv);
  }
  const std::size_t members = initials.size();
  const auto plan = std::make_shared<const FusedPlan>(qc);
  const BatchedCleanRun clean(plan, initials, 16);
  const std::vector<int> outputs = result_qubits(3);
  const double p = rate_for_lambda(qc, 2.0);
  std::vector<ErrorLocations> cluster;
  for (double f : {0.5, 1.0}) cluster.emplace_back(qc, depol(f * p));
  SharedEstimatorOptions opt;
  opt.error_trajectories = 24;
  opt.min_ess_fraction = 1.0;  // forces every non-proposal column back
  const EstimatorOptions eopt{opt.error_trajectories};

  std::vector<std::vector<Pcg64>> rngs(2);
  std::vector<Pcg64> pooled_rngs;
  for (std::uint64_t m = 0; m < members; ++m) {
    rngs[0].emplace_back(43, m);
    rngs[1].emplace_back(43, 100 + m);
    pooled_rngs.emplace_back(43, m);
  }
  SharedEstimateStats stats;
  const auto shared = estimate_channel_marginals_shared(clean, cluster,
                                                        outputs, opt, rngs,
                                                        &stats);
  EXPECT_EQ(stats.fallback_columns, static_cast<long>(members));
  EXPECT_EQ(stats.fallback_trajectories,
            static_cast<long>(members) * opt.error_trajectories);

  // Stream for stream: each fallback stream stands where the pooled
  // per-rate estimator leaves the same stream.
  const auto pooled = estimate_channel_marginals_batched(
      clean, cluster[0], outputs, eopt, pooled_rngs);
  for (std::size_t m = 0; m < members; ++m)
    EXPECT_EQ(rngs[0][m](), pooled_rngs[m]()) << "member " << m;

  for (std::size_t m = 0; m < members; ++m) {
    const CleanRun scalar(qc, initials[m], 16, plan);
    Pcg64 ref_rng(43, m);
    const std::vector<double> ref = estimate_channel_marginal_batched(
        scalar, cluster[0], outputs, eopt, static_cast<int>(members),
        ref_rng);
    ASSERT_EQ(shared[0][m].size(), ref.size());
    for (std::size_t b = 0; b < ref.size(); ++b) {
      EXPECT_NEAR(shared[0][m][b], ref[b], 1e-12)
          << "member " << m << " bin " << b;
      EXPECT_NEAR(shared[0][m][b], pooled[m][b], 1e-12)
          << "member " << m << " bin " << b << " vs pooled";
    }
  }
}

TEST(SharedEstimator, DefaultEssGuardTripsOnExtremeRateRatio) {
  const QuantumCircuit qc = qfa_circuit(4);
  const CleanRun clean(qc, StateVector(qc.num_qubits()), 32);
  const std::vector<int> outputs = result_qubits(4);
  // lambda ~4 at the proposal with a 50x rate ratio: the light column's
  // ESS fraction is ~(e^{lambda r} - 1)^2 / ((e^{lambda r^2} - 1)
  // (e^lambda - 1)) ~ 0.01, far below the default 0.25 guard.
  const double p = rate_for_lambda(qc, 4.0);
  std::vector<ErrorLocations> cluster;
  for (double f : {0.02, 1.0}) cluster.emplace_back(qc, depol(f * p));
  ASSERT_GT(cluster[1].expected_events(), 3.0);
  SharedEstimatorOptions opt;
  opt.error_trajectories = 48;

  std::vector<Pcg64> rngs;
  rngs.emplace_back(23, 0);
  rngs.emplace_back(23, 1);
  SharedEstimateStats stats;
  const auto shared = estimate_channel_marginal_shared(clean, cluster, outputs,
                                                       opt, 8, rngs, &stats);
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_EQ(stats.fallback_columns, 1);
  EXPECT_LT(stats.ess_fraction_min, 0.25);
}

TEST(SharedEstimator, BatchedMembersMatchPooledEstimator) {
  const QuantumCircuit qc = qfa_circuit(3);
  const int n = qc.num_qubits();
  std::vector<StateVector> initials;
  for (u64 v : {0ull, 5ull, 9ull}) {
    StateVector sv(n);
    sv.set_basis_state(v);
    initials.push_back(sv);
  }
  const auto plan = std::make_shared<const FusedPlan>(qc);
  const BatchedCleanRun clean(plan, initials, 16);
  const std::vector<int> outputs = result_qubits(3);
  const double p = rate_for_lambda(qc, 2.0);
  SharedEstimatorOptions opt;
  opt.error_trajectories = 16;

  // Single-rate: delegates to the pooled estimator, bit-for-bit.
  {
    const std::vector<ErrorLocations> cluster{ErrorLocations(qc, depol(p))};
    std::vector<std::vector<Pcg64>> rngs(1);
    std::vector<Pcg64> ref_rngs;
    for (std::uint64_t m = 0; m < initials.size(); ++m) {
      rngs[0].emplace_back(31, m);
      ref_rngs.emplace_back(31, m);
    }
    const auto shared =
        estimate_channel_marginals_shared(clean, cluster, outputs, opt, rngs);
    const auto ref = estimate_channel_marginals_batched(
        clean, cluster[0], outputs, EstimatorOptions{opt.error_trajectories},
        ref_rngs);
    ASSERT_EQ(shared.size(), 1u);
    EXPECT_EQ(shared[0], ref);
  }

  // Multi-rate: every member's proposal column agrees with the pooled
  // per-rate estimator on the same streams to replay rounding, and the
  // reweighted columns are distributions.
  {
    std::vector<ErrorLocations> cluster;
    for (double f : {0.5, 1.0}) cluster.emplace_back(qc, depol(f * p));
    std::vector<std::vector<Pcg64>> rngs(2);
    std::vector<Pcg64> ref_rngs;
    for (std::uint64_t m = 0; m < initials.size(); ++m) {
      rngs[0].emplace_back(37, 100 + m);
      rngs[1].emplace_back(37, m);
      ref_rngs.emplace_back(37, m);
    }
    SharedEstimateStats stats;
    const auto shared = estimate_channel_marginals_shared(clean, cluster,
                                                          outputs, opt, rngs,
                                                          &stats);
    const auto ref = estimate_channel_marginals_batched(
        clean, cluster[1], outputs, EstimatorOptions{opt.error_trajectories},
        ref_rngs);
    ASSERT_EQ(shared.size(), 2u);
    ASSERT_EQ(shared[1].size(), ref.size());
    for (std::size_t m = 0; m < ref.size(); ++m)
      for (std::size_t b = 0; b < ref[m].size(); ++b)
        EXPECT_NEAR(shared[1][m][b], ref[m][b], 1e-10);
    EXPECT_EQ(stats.rate_columns,
              static_cast<long>(2 * initials.size()));
    for (std::size_t m = 0; m < shared[0].size(); ++m) {
      double sum = 0.0;
      for (double v : shared[0][m]) {
        EXPECT_GE(v, -1e-12);
        sum += v;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(SharedEstimator, HashEventsSeparatesDistinctLists) {
  const std::vector<ErrorEvent> a{{3, Pauli::kX, Pauli::kI}};
  const std::vector<ErrorEvent> b{{3, Pauli::kY, Pauli::kI}};
  const std::vector<ErrorEvent> c{{4, Pauli::kX, Pauli::kI}};
  std::vector<ErrorEvent> a2 = a;
  EXPECT_EQ(hash_events(a), hash_events(a2));
  EXPECT_NE(hash_events(a), hash_events(b));
  EXPECT_NE(hash_events(a), hash_events(c));
  EXPECT_NE(hash_events(a), hash_events({}));
}

SweepConfig small_sweep_config(std::vector<double> rates) {
  SweepConfig config;
  config.base.op = Operation::kAdd;
  config.base.n = 3;
  config.depths = {2, kFullDepth};
  config.rates_percent = std::move(rates);
  config.instances = 4;
  config.run.shots = 256;
  config.run.error_trajectories = 8;
  config.run.batch_lanes = 4;
  config.seed = 0xABCDEFull;
  return config;
}

std::vector<ArithInstance> sweep_instances(const SweepConfig& config) {
  Pcg64 rng(config.seed, 0x1257);
  return generate_instances(config.instances, config.base.n, config.base.n,
                            config.orders, rng);
}

TEST(SharedSweep, ExpandedRatesPrependsNoiseFree) {
  SweepConfig config = small_sweep_config({0.5, 1.0});
  EXPECT_EQ(config.expanded_rates(), (std::vector<double>{0.0, 0.5, 1.0}));
  config.include_noise_free = false;
  EXPECT_EQ(config.expanded_rates(), (std::vector<double>{0.5, 1.0}));
}

TEST(SharedSweep, SingleRateSweepMatchesPerRateBitForBit) {
  // One positive rate: the shared path delegates per column, so the whole
  // sweep must reproduce the per-rate sweep exactly — success rates,
  // margins, and error bars.
  for (int lanes : {1, 4}) {
    SweepConfig config = small_sweep_config({1.0});
    config.run.batch_lanes = lanes;
    const std::vector<ArithInstance> instances = sweep_instances(config);
    config.run.shared_trajectories = true;
    const SweepResult shared = run_sweep(config, instances);
    config.run.shared_trajectories = false;
    const SweepResult per_rate = run_sweep(config, instances);
    ASSERT_EQ(shared.points.size(), per_rate.points.size());
    for (std::size_t i = 0; i < shared.points.size(); ++i) {
      EXPECT_EQ(shared.points[i].stats.successes,
                per_rate.points[i].stats.successes);
      EXPECT_EQ(shared.points[i].stats.sigma, per_rate.points[i].stats.sigma);
      EXPECT_EQ(shared.points[i].stats.lower_flips,
                per_rate.points[i].stats.lower_flips);
      EXPECT_EQ(shared.points[i].stats.upper_flips,
                per_rate.points[i].stats.upper_flips);
    }
    EXPECT_EQ(shared.shared_stats.fallback_columns, 0);
    EXPECT_GT(shared.shared_stats.rate_columns, 0);
    EXPECT_EQ(per_rate.shared_stats.rate_columns, 0);
  }
}

TEST(SharedSweep, MultiRateSweepStaysWithinErrorBars) {
  // Shared and per-rate sweeps are different unbiased estimates of the
  // same panel; with this circuit and budget the per-point success rates
  // must stay well inside the paper's error bars of each other.
  SweepConfig config = small_sweep_config({0.4, 0.6, 0.8, 1.0});
  config.run.shots = 1024;
  config.run.error_trajectories = 12;
  const std::vector<ArithInstance> instances = sweep_instances(config);
  config.run.shared_trajectories = true;
  const SweepResult shared = run_sweep(config, instances);
  config.run.shared_trajectories = false;
  const SweepResult per_rate = run_sweep(config, instances);
  ASSERT_EQ(shared.points.size(), per_rate.points.size());
  for (std::size_t i = 0; i < shared.points.size(); ++i) {
    EXPECT_NEAR(shared.points[i].stats.success_rate,
                per_rate.points[i].stats.success_rate, 0.51)
        << "depth " << shared.points[i].depth << " rate "
        << shared.points[i].rate_percent;
    // Noise-free columns bypass estimation entirely: bitwise equal.
    if (shared.points[i].rate_percent == 0.0)
      EXPECT_EQ(shared.points[i].stats.success_rate,
                per_rate.points[i].stats.success_rate);
  }
  // The whole panel shared one proposal set per (group, depth): replays
  // are bounded by proposal count plus fallbacks, far under the per-rate
  // total of rates x instances x depths x T.
  const SharedEstimateStats& s = shared.shared_stats;
  EXPECT_GT(s.proposal_trajectories, 0);
  EXPECT_LE(s.unique_trajectories, s.proposal_trajectories);
  EXPECT_EQ(s.rate_columns,
            static_cast<long>(4 * config.depths.size() * instances.size()));
}

}  // namespace
}  // namespace qfab
