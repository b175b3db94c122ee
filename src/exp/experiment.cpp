#include "exp/experiment.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/invariants.h"
#include "transpile/transpile.h"

namespace qfab {

namespace {

// Health-sentinel tolerance: loose enough that legitimate rounding over the
// paper's deepest circuits never trips it, tight enough to catch NaN/Inf
// and genuine norm collapse.
constexpr double kHealthTol = 1e-6;

void throw_if_unhealthy(const std::string& violation, const char* where) {
  if (!violation.empty())
    throw NumericalHealthError(std::string(where) + ": " + violation);
}

void check_channel_health(const RunOptions& run,
                          const std::vector<double>& channel,
                          const char* where) {
  if (!run.health_checks) return;
  throw_if_unhealthy(check_probability_simplex(channel, kHealthTol), where);
}

/// Qubit count of make_qfa / make_qfm.
int circuit_qubits(const CircuitSpec& spec) {
  return spec.op == Operation::kAdd ? 2 * spec.n : 4 * spec.n;
}

/// The operand registers of make_qfa / make_qfm: x at [0, n), y at [n, 2n).
std::vector<std::pair<QubitRange, QInt>> operand_registers(
    const CircuitSpec& spec, const ArithInstance& inst) {
  return {{QubitRange{0, spec.n}, inst.x},
          {QubitRange{spec.n, spec.n}, inst.y}};
}

}  // namespace

Precision resolve_precision(const RunOptions& run, std::size_t gate_count) {
  if (run.precision != Precision::kAuto) return run.precision;
  const double predicted = 8.0 * std::numeric_limits<float>::epsilon() *
                           std::sqrt(static_cast<double>(gate_count));
  return predicted <= run.float_drift_budget ? Precision::kFloat32
                                             : Precision::kDouble;
}

int resolve_rotation_cap(const CircuitSpec& spec) {
  if (spec.max_rotation_order >= 0) return spec.max_rotation_order;
  // Paper convention (EXPERIMENTS.md): the QFA addition step omits R_n
  // (cap n-1); the QFM cadd keeps all rotations.
  return spec.op == Operation::kAdd ? spec.n - 1 : 0;
}

QuantumCircuit build_arith_circuit(const CircuitSpec& spec) {
  QFAB_CHECK(spec.n >= 1);
  const int cap = resolve_rotation_cap(spec);
  if (spec.op == Operation::kAdd) {
    AdderOptions options;
    options.qft_depth = spec.depth;
    options.add_depth = spec.add_depth;
    options.max_rotation_order = cap;
    return make_qfa(spec.n, spec.n, options);
  }
  MultiplierOptions options;
  options.qft_depth = spec.depth;
  options.add_depth = spec.add_depth;
  options.max_rotation_order = cap;
  return make_qfm(spec.n, spec.n, options, spec.fused_multiplier);
}

QuantumCircuit build_transpiled_circuit(const CircuitSpec& spec) {
  return transpile_to_basis(build_arith_circuit(spec));
}

std::vector<int> output_qubits(const CircuitSpec& spec) {
  // Register layout of make_qfa / make_qfm: x at [0,n), y at [n,2n),
  // z at [2n,4n).
  const int start =
      spec.measure_all ? 0 : (spec.op == Operation::kAdd ? spec.n : 2 * spec.n);
  const int size = output_bits(spec);
  std::vector<int> out(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) out[static_cast<std::size_t>(i)] = start + i;
  return out;
}

int output_bits(const CircuitSpec& spec) {
  const int result_bits = spec.op == Operation::kAdd ? spec.n : 2 * spec.n;
  if (!spec.measure_all) return result_bits;
  return spec.op == Operation::kAdd ? 2 * spec.n : 4 * spec.n;
}

std::vector<u64> correct_outputs(const CircuitSpec& spec,
                                 const ArithInstance& inst) {
  if (!spec.measure_all) {
    const int bits = output_bits(spec);
    return spec.op == Operation::kAdd
               ? expected_sums(inst.x, inst.y, bits)
               : expected_products(inst.x, inst.y, bits);
  }
  // Joint bitstrings: every (x_i, y_j) support pair maps to one outcome
  // with the operands preserved alongside the result.
  std::vector<u64> out;
  const int n = spec.n;
  for (const auto& tx : inst.x.terms())
    for (const auto& ty : inst.y.terms()) {
      if (spec.op == Operation::kAdd) {
        const u64 sum = (tx.value + ty.value) & (pow2(n) - 1);
        out.push_back(tx.value | (sum << n));
      } else {
        const u64 prod = (tx.value * ty.value) & (pow2(2 * n) - 1);
        out.push_back(tx.value | (ty.value << n) | (prod << (2 * n)));
      }
    }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<BasisTerm> initial_state_terms(const CircuitSpec& spec,
                                           const ArithInstance& inst) {
  return product_state_terms(circuit_qubits(spec),
                             operand_registers(spec, inst));
}

StateVector make_initial_state(const CircuitSpec& spec,
                               const ArithInstance& inst) {
  return prepare_product_state(circuit_qubits(spec),
                               operand_registers(spec, inst));
}

InstanceContext::InstanceContext(const QuantumCircuit& transpiled,
                                 const CircuitSpec& spec,
                                 const ArithInstance& inst,
                                 const RunOptions& run,
                                 std::shared_ptr<const FusedPlan> plan)
    : clean_(transpiled, make_initial_state(spec, inst),
             run.checkpoint_interval, std::move(plan)),
      output_qubits_(output_qubits(spec)),
      correct_(correct_outputs(spec, inst)) {
  if (run.health_checks)
    throw_if_unhealthy(check_norm(clean_.final_state(), kHealthTol),
                       "clean run final state");
}

InstanceOutcome InstanceContext::evaluate(const NoiseModel& noise,
                                          const RunOptions& run,
                                          Pcg64& rng) const {
  std::vector<std::uint64_t> counts;
  const ErrorLocations errors(clean_.circuit(), noise);
  if (run.per_shot && noise.enabled()) {
    counts = sample_counts_per_shot(clean_, errors, output_qubits_,
                                    run.shots, rng, run.readout);
  } else {
    EstimatorOptions est;
    est.error_trajectories = run.error_trajectories;
    est.precision = resolve_precision(run, clean_.plan().gate_count());
    est.float_drift_budget = run.float_drift_budget;
    std::vector<double> channel =
        run.batch_lanes > 1
            ? estimate_channel_marginal_batched(clean_, errors, output_qubits_,
                                                est, run.batch_lanes, rng)
            : estimate_channel_marginal(clean_, errors, output_qubits_, est,
                                        rng);
    check_channel_health(run, channel, "estimated channel");
    if (run.readout.enabled()) apply_readout_error(channel, run.readout);
    counts = sample_shot_counts(channel, run.shots, rng);
  }
  return evaluate_counts(counts, correct_);
}

std::vector<InstanceOutcome> InstanceContext::evaluate_rates(
    const std::vector<NoiseModel>& noises, const RunOptions& run,
    std::vector<Pcg64>& rngs, SharedEstimateStats* stats) const {
  QFAB_CHECK(!noises.empty() && noises.size() == rngs.size());
  QFAB_CHECK(!run.per_shot);
  std::vector<ErrorLocations> errors;
  errors.reserve(noises.size());
  for (const NoiseModel& noise : noises)
    errors.emplace_back(clean_.circuit(), noise);
  SharedEstimatorOptions opt;
  opt.error_trajectories = run.error_trajectories;
  opt.min_ess_fraction = run.shared_min_ess;
  opt.precision = resolve_precision(run, clean_.plan().gate_count());
  opt.float_drift_budget = run.float_drift_budget;
  std::vector<std::vector<double>> channels = estimate_channel_marginal_shared(
      clean_, errors, output_qubits_, opt, std::max(run.batch_lanes, 1), rngs,
      stats);
  std::vector<InstanceOutcome> outcomes;
  outcomes.reserve(channels.size());
  for (std::size_t r = 0; r < channels.size(); ++r) {
    check_channel_health(run, channels[r], "shared-cluster channel");
    if (run.readout.enabled()) apply_readout_error(channels[r], run.readout);
    const std::vector<std::uint64_t> counts =
        sample_shot_counts(channels[r], run.shots, rngs[r]);
    outcomes.push_back(evaluate_counts(counts, correct_));
  }
  return outcomes;
}

std::vector<std::vector<BasisTerm>> InstanceBatch::initial_terms(
    const CircuitSpec& spec, const std::vector<ArithInstance>& group) {
  std::vector<std::vector<BasisTerm>> terms;
  terms.reserve(group.size());
  for (const ArithInstance& inst : group)
    terms.push_back(initial_state_terms(spec, inst));
  return terms;
}

InstanceBatch::InstanceBatch(const QuantumCircuit& transpiled,
                             const CircuitSpec& spec,
                             const std::vector<ArithInstance>& group,
                             const RunOptions& run,
                             std::shared_ptr<const FusedPlan> plan)
    : clean_(plan ? std::move(plan)
                  : std::make_shared<const FusedPlan>(transpiled),
             initial_terms(spec, group), run.checkpoint_interval),
      output_qubits_(output_qubits(spec)) {
  // The shared plan must describe this exact circuit (same contract as
  // CleanRun): trajectory injection addresses gates by index through it.
  QFAB_CHECK(clean_.circuit().num_qubits() == transpiled.num_qubits());
  QFAB_CHECK(clean_.plan().gate_count() == transpiled.gates().size());
  if (run.health_checks)
    throw_if_unhealthy(check_lane_norms(clean_.final_states(), kHealthTol),
                       "batched clean run final states");
  correct_.reserve(group.size());
  for (const ArithInstance& inst : group)
    correct_.push_back(correct_outputs(spec, inst));
}

std::vector<InstanceOutcome> InstanceBatch::evaluate_all(
    const NoiseModel& noise, const RunOptions& run,
    std::vector<Pcg64>& rngs) const {
  QFAB_CHECK(rngs.size() == static_cast<std::size_t>(size()));
  const ErrorLocations errors(clean_.circuit(), noise);
  EstimatorOptions est;
  est.error_trajectories = run.error_trajectories;
  est.precision = resolve_precision(run, clean_.plan().gate_count());
  est.float_drift_budget = run.float_drift_budget;
  std::vector<std::vector<double>> channels =
      estimate_channel_marginals_batched(clean_, errors, output_qubits_, est,
                                         rngs);
  std::vector<InstanceOutcome> outcomes;
  outcomes.reserve(channels.size());
  for (std::size_t m = 0; m < channels.size(); ++m) {
    check_channel_health(run, channels[m], "estimated channel");
    if (run.readout.enabled()) apply_readout_error(channels[m], run.readout);
    const std::vector<std::uint64_t> counts =
        sample_shot_counts(channels[m], run.shots, rngs[m]);
    outcomes.push_back(evaluate_counts(counts, correct_[m]));
  }
  return outcomes;
}

std::vector<std::vector<InstanceOutcome>> InstanceBatch::evaluate_all_rates(
    const std::vector<NoiseModel>& noises, const RunOptions& run,
    std::vector<std::vector<Pcg64>>& rngs, SharedEstimateStats* stats) const {
  QFAB_CHECK(!noises.empty() && noises.size() == rngs.size());
  QFAB_CHECK(!run.per_shot);
  std::vector<ErrorLocations> errors;
  errors.reserve(noises.size());
  for (const NoiseModel& noise : noises)
    errors.emplace_back(clean_.circuit(), noise);
  SharedEstimatorOptions opt;
  opt.error_trajectories = run.error_trajectories;
  opt.min_ess_fraction = run.shared_min_ess;
  opt.precision = resolve_precision(run, clean_.plan().gate_count());
  opt.float_drift_budget = run.float_drift_budget;
  std::vector<std::vector<std::vector<double>>> channels =
      estimate_channel_marginals_shared(clean_, errors, output_qubits_, opt,
                                        rngs, stats);
  std::vector<std::vector<InstanceOutcome>> outcomes(channels.size());
  for (std::size_t r = 0; r < channels.size(); ++r) {
    outcomes[r].reserve(channels[r].size());
    for (std::size_t m = 0; m < channels[r].size(); ++m) {
      check_channel_health(run, channels[r][m], "shared-cluster channel");
      if (run.readout.enabled())
        apply_readout_error(channels[r][m], run.readout);
      const std::vector<std::uint64_t> counts =
          sample_shot_counts(channels[r][m], run.shots, rngs[r][m]);
      outcomes[r].push_back(evaluate_counts(counts, correct_[m]));
    }
  }
  return outcomes;
}

}  // namespace qfab
