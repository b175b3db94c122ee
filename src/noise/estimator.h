// Output-distribution estimators for noisy circuits.
//
// Shots of a noisy circuit are i.i.d.: each samples a Pauli trajectory and
// then a measurement outcome, so the S-shot count vector is exactly
// Multinomial(S, p_channel) with p_channel the channel-averaged output
// distribution. Two estimators of that law are provided:
//
//  * the stratified channel estimator — the default: p̂ = w0·p_ideal +
//    (1-w0)·mean(T error trajectories), with the clean weight
//    w0 = Π(1-q_i) computed analytically and trajectories conditioned on
//    at least one error. Unbiased in expectation and far lower-variance
//    per unit work than per-shot simulation (each trajectory yields the
//    *entire* conditional distribution, not one sample). Counts are then
//    drawn multinomially.
//
//  * sample_counts_per_shot — the paper-faithful (Qiskit Aer) mode: every
//    shot simulates its own trajectory and samples a single outcome.
//    Shots whose trajectory has no error reuse the cached ideal marginal.
//
// Two engines run the stratified estimator and its shared-trajectory
// (rate-cluster) form. The sweeps evaluate every rate cluster through the
// shared form, and a one-rate cluster delegates to the stratified
// estimator. The sweeps run the batched engine: a BatchedCleanRun group
// of operand instances, whose trajectories replay in one site-sorted pool
// (the member-pooled estimate, the shared estimate's unique trajectories
// and the one-member groups of an ESS fallback alike) loading from the
// batched checkpoints. The scalar engine, on a CleanRun, replays one
// trajectory at a time in double. It is the reference: the sweeps' scalar
// path (InstanceContext: batch_lanes <= 1, health-sentinel retries) runs
// it, and the tests and the verify harness hold the batched engine to it.
// Both shared estimators follow one sharing policy (proposal, dedup,
// reweighting, ESS guard).
//
// The ablation bench (bench/ablation_estimator) cross-validates the
// stratified and per-shot estimators.
#pragma once

#include <vector>

#include "common/rng.h"
#include "noise/readout.h"
#include "noise/trajectory.h"

namespace qfab {

struct EstimatorOptions {
  /// Trajectories (conditioned on >= 1 error) averaged per estimate.
  int error_trajectories = 12;
  /// Amplitude precision for batched trajectory replay. Must be resolved
  /// (kDouble or kFloat32) by the time an estimator runs — kAuto is
  /// decided upstream by the precision policy in exp/experiment.h. The
  /// scalar CleanRun estimators ignore it and the drift budget: they
  /// always replay in double.
  Precision precision = Precision::kDouble;
  /// Float32 drift sentinel: after a float32 group replay, any lane whose
  /// norm² (the sum of its output marginal) drifts from 1 by more than
  /// this budget causes the whole group to be re-replayed in double —
  /// bit-for-bit what the double path computes for those trajectories.
  /// Surviving float32 marginals are normalized per lane, so downstream
  /// simplex invariants hold at double tolerances. See DESIGN.md §11.
  double float_drift_budget = 1e-3;
};

/// Process-wide count of float32 replay groups that tripped the drift
/// sentinel and were re-replayed in double. Figures report it so a sweep
/// can assert "zero unexplained fallbacks"; tests reset it.
long precision_fallback_count();
void reset_precision_fallback_count();

struct SharedEstimatorOptions {
  /// Proposal trajectories (conditioned on >= 1 error) shared by the whole
  /// rate cluster.
  int error_trajectories = 12;
  /// Effective-sample-size guard: a non-proposal rate column whose
  /// reweighted ESS = (Σ w)²/Σ w² falls below this fraction of
  /// error_trajectories is re-estimated by per-rate stratified sampling
  /// from its own (still untouched) rng stream: the same trajectories the
  /// per-rate path would sample (see the two cluster estimators for how
  /// close the result comes). The proposal column never falls back (its
  /// weights are uniform, ESS = T exactly).
  double min_ess_fraction = 0.25;
  /// Replay precision and drift sentinel, as in EstimatorOptions (the ESS
  /// fallback columns inherit both; the scalar CleanRun overload ignores
  /// both).
  Precision precision = Precision::kDouble;
  double float_drift_budget = 1e-3;
};

/// Bookkeeping of one shared-trajectory estimate (merged across a sweep for
/// bench reporting).
struct SharedEstimateStats {
  long proposal_trajectories = 0;  ///< sampled from the proposal rate
  long unique_trajectories = 0;    ///< replayed after event-list dedup
  long fallback_trajectories = 0;  ///< extra replays spent on ESS fallbacks
  long rate_columns = 0;           ///< (rate, member) estimates produced
  long fallback_columns = 0;       ///< of which re-estimated per-rate
  double ess_fraction_min = 1.0;   ///< min ESS/T over non-proposal columns
  double ess_fraction_sum = 0.0;   ///< Σ ESS/T; mean = sum / count
  long ess_fraction_count = 0;

  void merge(const SharedEstimateStats& other);
};

/// Shared-trajectory estimator for a *cluster* of error-rate columns of one
/// instance. Instead of sampling T trajectories per rate, T trajectories
/// are sampled once from the proposal — the cluster member with the largest
/// expected event count — deduplicated by (fired sites, event list), and
/// each unique trajectory is replayed once. Every rate's estimate is then a
/// self-normalized importance-weighted mixture
///
///     p̂(rate) = w0(rate)·p_ideal + (1 − w0(rate)) · Σ_t w̃_t(rate)·p_t
///
/// with w0 = Π(1 − q_i) analytic as in the per-rate estimator, and the
/// trajectory weights derived from per-site event probabilities: a
/// trajectory that fired locations F has likelihood ratio
/// Π_{i∈F} q'_i/q_i · Π_{i∉F} (1−q'_i)/(1−q_i); the non-fired product is a
/// trajectory-independent constant, so log w_t = Σ_{i∈F} [log-odds'_i −
/// log-odds_i] up to a constant that cancels under self-normalization
/// (Σ_t w̃_t = 1). All cluster members must be reweightable_to each other
/// (same location sites/kinds; rate columns of one noise-model family are).
///
/// rngs has one stream per rate, consumed by this exact protocol: the
/// proposal's stream is consumed identically to the per-rate estimator
/// (T sequential sample_at_least_one calls), every other stream is left
/// untouched unless its column's ESS guard trips, in which case that
/// column is produced by the per-rate estimator from its own stream —
/// bit-for-bit what the per-rate path computes. A single-rate cluster
/// delegates to the per-rate estimator outright (exact stream-for-stream
/// match). This overload is the scalar reference: each unique trajectory
/// replays on its own (run_trajectory), and the per-rate estimator is the
/// scalar estimate_channel_marginal.
///
/// Returns one output-marginal estimate per rate, aligned with rate_errors.
std::vector<std::vector<double>> estimate_channel_marginal_shared(
    const CleanRun& clean, const std::vector<ErrorLocations>& rate_errors,
    const std::vector<int>& output_qubits,
    const SharedEstimatorOptions& options, std::vector<Pcg64>& rngs,
    SharedEstimateStats* stats = nullptr);

/// All-members form of estimate_channel_marginal_shared for a batched group
/// of clean runs: per member, T proposal trajectories are sampled
/// (member-major, matching estimate_channel_marginals_batched's stream
/// order) and deduplicated; ALL members' unique trajectories are pooled,
/// sorted by first-error site, and replayed lanes-at-a-time through one
/// shared plan pass. rngs[rate][member]; an ESS fallback re-estimates one
/// (rate, member) column from rngs[rate][member] with
/// estimate_channel_marginal_batched on that member's lane, whose groups
/// load from the batched checkpoints like every other group. It consumes that stream
/// exactly as the per-rate estimate_channel_marginals_batched does and
/// replays the same trajectories, so the column equals the per-rate
/// estimate to replay rounding, not bitwise: its groups, and so their
/// resume gates, differ from the member-pooled ones. Returns
/// [rate][member] marginal estimates.
std::vector<std::vector<std::vector<double>>> estimate_channel_marginals_shared(
    const BatchedCleanRun& clean, const std::vector<ErrorLocations>& rate_errors,
    const std::vector<int>& output_qubits,
    const SharedEstimatorOptions& options,
    std::vector<std::vector<Pcg64>>& rngs,
    SharedEstimateStats* stats = nullptr);

/// Channel-averaged distribution of `output_qubits`: the scalar stratified
/// estimator, one trajectory replay (run_trajectory) at a time.
std::vector<double> estimate_channel_marginal(const CleanRun& clean,
                                              const ErrorLocations& errors,
                                              const std::vector<int>& output_qubits,
                                              const EstimatorOptions& options,
                                              Pcg64& rng);

/// Batched-engine variant of estimate_channel_marginal for one lane
/// (instance) of a batched group of clean runs: the T trajectories are
/// stratified by first-error site and run up to `max_lanes` at a time
/// through one shared plan pass (sim/batch.h). Every replay group loads
/// that lane's resume state from the batched checkpoints
/// (BatchedCleanRun::load_states_at with the lane repeated), so no dense
/// 2^n state is built. Event lists are pre-sampled sequentially, so the rng
/// stream matches the scalar estimator's exactly, and trajectory marginals
/// are accumulated in their original sample order, so the result is
/// independent of how trajectories were packed into lanes up to replay
/// rounding. It agrees with the scalar estimate_channel_marginal on the
/// same instance and stream to replay rounding.
std::vector<double> estimate_channel_marginal_batched(
    const BatchedCleanRun& clean, int lane, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    int max_lanes, Pcg64& rng);

/// Estimate every lane of a batched group at once — the highest-throughput
/// path. Member i's event lists are pre-sampled from rngs[i] (one stream
/// per member, consumed exactly as the scalar estimator would), then ALL
/// members' trajectories are pooled, sorted by first-error site, and
/// packed lanes-at-a-time: each batched pass replays one tight band of
/// sites, so the lanes share almost all of their ideal suffix and the
/// injection splits cluster into few fused ops. The fused walk gives each
/// lane exactly the decomposition its trajectory would get replayed solo
/// from the group's resume gate — only that resume point varies with the
/// packing — so each member's estimate is independent of the packing up
/// to replay rounding, and within replay rounding of its scalar estimate.
/// rngs.size() must equal clean.lanes().
std::vector<std::vector<double>> estimate_channel_marginals_batched(
    const BatchedCleanRun& clean, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    std::vector<Pcg64>& rngs);

/// Multinomial counts of `shots` draws from `distribution`.
std::vector<std::uint64_t> sample_shot_counts(
    const std::vector<double>& distribution, std::uint64_t shots, Pcg64& rng);

/// Paper-faithful per-shot trajectory sampling: counts over the outcomes of
/// `output_qubits` for `shots` independent noisy executions. When `readout`
/// is enabled each shot's measured bits are flipped independently through
/// the confusion matrix.
std::vector<std::uint64_t> sample_counts_per_shot(
    const CleanRun& clean, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, std::uint64_t shots, Pcg64& rng,
    const ReadoutError& readout = {});

}  // namespace qfab
