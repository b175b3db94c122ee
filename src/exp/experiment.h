// Per-instance experiment execution: circuit construction for the paper's
// two operations, noise-free initialization, and noisy evaluation against
// the success metric.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "arith/expected.h"
#include "exp/instances.h"
#include "exp/success.h"
#include "noise/estimator.h"
#include "qfb/adder.h"
#include "qfb/multiplier.h"

namespace qfab {

enum class Operation { kAdd, kMultiply };

/// Thrown by the numerical health sentinels (RunOptions::health_checks)
/// when a clean run's norm drifts off 1 or an estimated channel leaves the
/// probability simplex (NaN/Inf included). Distinct from CheckError so the
/// sweep driver can catch it and retry the work unit on the scalar
/// non-fused path before declaring the point poisoned.
class NumericalHealthError : public std::runtime_error {
 public:
  explicit NumericalHealthError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Which circuit a point simulates.
struct CircuitSpec {
  Operation op = Operation::kAdd;
  /// Operand width n. QFA: x and y both n qubits (sums mod 2^n, the
  /// paper's Fig. 1 configuration); QFM: x, y n qubits, product 2n.
  int n = 8;
  /// AQFT approximation depth (kFullDepth = full).
  int depth = kFullDepth;
  /// Approximate-addition depth (0 = exact; ablation only).
  int add_depth = 0;
  /// Addition-step rotation cap; -1 selects the paper's convention
  /// (n-1 for QFA — reproducing Table I exactly — and none for QFM).
  int max_rotation_order = -1;
  /// Use the fused (Ruiz-Perez single-QFT) multiplier instead of the
  /// paper's cQFA cascade.
  bool fused_multiplier = false;
  /// Measure every register (operands included) and require the *joint*
  /// bitstring to be correct, instead of measuring only the result
  /// register. Errors that corrupt an operand register then count against
  /// the instance even when the arithmetic result survives.
  bool measure_all = false;
};

/// Resolved rotation cap for a spec (see max_rotation_order).
int resolve_rotation_cap(const CircuitSpec& spec);

/// The abstract (untranspiled) circuit: registers "x","y" (+"z" for QFM).
QuantumCircuit build_arith_circuit(const CircuitSpec& spec);

/// Basis-gate circuit (decomposed + peephole-optimized), as simulated.
QuantumCircuit build_transpiled_circuit(const CircuitSpec& spec);

/// Global indices of the measured register (y for add, z for multiply).
std::vector<int> output_qubits(const CircuitSpec& spec);
int output_bits(const CircuitSpec& spec);

/// Ground-truth correct outputs for an operand instance.
std::vector<u64> correct_outputs(const CircuitSpec& spec,
                                 const ArithInstance& inst);

/// Noise-free initial state (amplitudes written directly, per the paper)
/// as its nonzero basis terms: the operand product, which InstanceBatch
/// loads without a dense vector.
std::vector<BasisTerm> initial_state_terms(const CircuitSpec& spec,
                                           const ArithInstance& inst);

/// The same state as a dense vector (the scalar CleanRun's start).
StateVector make_initial_state(const CircuitSpec& spec,
                               const ArithInstance& inst);

struct RunOptions {
  std::uint64_t shots = 2048;
  int error_trajectories = 12;
  /// Paper-faithful per-shot trajectory sampling instead of the stratified
  /// channel estimator.
  bool per_shot = false;
  std::size_t checkpoint_interval = 64;
  bool noisy_rz = true;
  bool noisy_id = true;
  /// Lanes for the batched SIMD engine (sim/batch.h): clean runs batch up
  /// to this many instances per fused-plan pass and trajectories batch up
  /// to this many per instance. <= 1 selects the single-state scalar path
  /// (as does per_shot, which is defined shot-sequentially).
  int batch_lanes = 8;
  /// Estimate a sweep's whole positive-rate cluster from one shared set of
  /// proposal trajectories per (instance, depth), importance-reweighted per
  /// rate (noise/estimator.h: estimate_channel_marginal(s)_shared), instead
  /// of sampling fresh trajectories per rate. Ignored in per-shot mode.
  /// `--shared-trajectories=0` is the escape hatch back to per-rate
  /// sampling.
  bool shared_trajectories = true;
  /// ESS guard threshold for shared-trajectory columns
  /// (SharedEstimatorOptions::min_ess_fraction).
  double shared_min_ess = 0.25;
  /// Amplitude precision of batched trajectory replay (Precision in
  /// sim/batch.h): kDouble is the reference behavior, kFloat32 forces the
  /// narrow tier, kAuto picks per circuit via resolve_precision(). The
  /// scalar paths (batch_lanes <= 1, per_shot) always replay in double.
  Precision precision = Precision::kDouble;
  /// Drift budget of the float32 replay sentinel
  /// (EstimatorOptions::float_drift_budget); also the tolerance the kAuto
  /// policy plans against.
  double float_drift_budget = 1e-3;
  /// Cheap numerical health sentinels, amortized off the inner loops:
  /// clean-run norm drift at context construction and a probability-simplex
  /// check on every estimated channel before shots are drawn. A violation
  /// throws NumericalHealthError (see above) instead of silently sampling
  /// from garbage.
  bool health_checks = true;
  /// Measurement confusion applied to every output bit (extension; the
  /// paper's sweeps use none).
  ReadoutError readout;
};

/// Resolve a RunOptions precision request for a circuit of `gate_count`
/// transpiled gates. kDouble / kFloat32 pass through. kAuto models the
/// worst plausible float32 replay drift as ~8·eps_f32·√gate_count (rounding
/// errors accumulate like a random walk over the gate sequence; the factor
/// is headroom over the observed constant) and picks float32 whenever that
/// stays within run.float_drift_budget — deeper circuits choose double up
/// front instead of paying a sentinel-tripped re-replay on every group.
Precision resolve_precision(const RunOptions& run, std::size_t gate_count);

/// All noisy-evaluation state shared across error rates for one
/// (spec, instance) pair: the transpiled circuit's ideal run (with
/// checkpoints) plus the instance's ground truth.
class InstanceContext {
 public:
  /// `plan` optionally shares one compiled FusedPlan for `transpiled`
  /// across every instance of a sweep (see run_sweep); when null the
  /// CleanRun compiles its own.
  InstanceContext(const QuantumCircuit& transpiled, const CircuitSpec& spec,
                  const ArithInstance& inst, const RunOptions& run,
                  std::shared_ptr<const FusedPlan> plan = nullptr);

  /// Evaluate the instance at one noise point.
  InstanceOutcome evaluate(const NoiseModel& noise, const RunOptions& run,
                           Pcg64& rng) const;

  /// Evaluate the instance at a whole cluster of noise points from one
  /// shared trajectory set (estimate_channel_marginal_shared). rngs[r] is
  /// the point rng of noises[r], consumed by the shared estimator's stream
  /// protocol; each rate's shot counts are then drawn from its own stream.
  /// A single-point cluster matches evaluate() bit-for-bit.
  std::vector<InstanceOutcome> evaluate_rates(
      const std::vector<NoiseModel>& noises, const RunOptions& run,
      std::vector<Pcg64>& rngs, SharedEstimateStats* stats = nullptr) const;

 private:
  CleanRun clean_;
  std::vector<int> output_qubits_;
  std::vector<u64> correct_;
};

/// Batched counterpart of InstanceContext: one group of up to
/// BatchedStateVector::kMaxLanes operand instances whose ideal runs advance
/// in lockstep through one shared FusedPlan pass (their circuits are
/// identical; only the initial states differ). Used by run_sweep on the
/// stratified-estimator path; per-shot mode stays on InstanceContext.
/// Operand states load from their basis terms (initial_state_terms), and
/// no step of an evaluation builds a dense 2^n state.
class InstanceBatch {
 public:
  InstanceBatch(const QuantumCircuit& transpiled, const CircuitSpec& spec,
                const std::vector<ArithInstance>& group, const RunOptions& run,
                std::shared_ptr<const FusedPlan> plan = nullptr);

  int size() const { return clean_.lanes(); }

  /// Evaluate every member at one noise point in a single batched pass:
  /// all members' error trajectories of the same stratum replay together
  /// (estimate_channel_marginals_batched). rngs[m] is member m's point
  /// rng; each stream is consumed exactly as InstanceContext::evaluate
  /// consumes it for that member, so results match the per-member paths
  /// to replay rounding.
  std::vector<InstanceOutcome> evaluate_all(const NoiseModel& noise,
                                            const RunOptions& run,
                                            std::vector<Pcg64>& rngs) const;

  /// Evaluate every member at a whole cluster of noise points from one
  /// shared trajectory set per member
  /// (estimate_channel_marginals_shared). rngs[r][m] is member m's point
  /// rng at noises[r]. Returns [rate][member] outcomes; a single-point
  /// cluster matches evaluate_all bit-for-bit.
  std::vector<std::vector<InstanceOutcome>> evaluate_all_rates(
      const std::vector<NoiseModel>& noises, const RunOptions& run,
      std::vector<std::vector<Pcg64>>& rngs,
      SharedEstimateStats* stats = nullptr) const;

 private:
  static std::vector<std::vector<BasisTerm>> initial_terms(
      const CircuitSpec& spec, const std::vector<ArithInstance>& group);

  BatchedCleanRun clean_;
  std::vector<int> output_qubits_;
  std::vector<std::vector<u64>> correct_;
};

}  // namespace qfab
