#include "verify/engines.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "noise/densitymatrix.h"
#include "noise/estimator.h"
#include "sim/batch.h"
#include "sim/fusion.h"
#include "sim/invariants.h"
#include "transpile/transpile.h"
#include "verify/compare.h"

namespace qfab::verify {

namespace {

/// Pairwise agreement + invariant tolerance for exact (pure) engines and
/// for scalar-vs-batched estimator agreement.
constexpr double kEngineTol = 1e-10;
/// Total-variation tolerance for the stratified estimator vs the exact
/// depolarizing channel (statistical, not exact).
constexpr double kChannelTol = 0.12;

std::vector<int> all_qubits(int n) {
  std::vector<int> q(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) q[static_cast<std::size_t>(i)] = i;
  return q;
}

EngineResult finish_pure(std::string name, const StateVector& sv,
                         const std::vector<int>& marg, double tol,
                         std::string violation) {
  EngineResult r;
  r.name = std::move(name);
  r.probabilities = sv.probabilities();
  r.marginal = sv.marginal_probabilities(marg);
  r.violation = std::move(violation);
  if (r.violation.empty()) r.violation = check_norm(sv, tol);
  if (r.violation.empty())
    r.violation = check_probability_simplex(r.probabilities, tol);
  if (r.violation.empty())
    r.violation = check_probability_simplex(r.marginal, tol);
  return r;
}

/// The case's split site in `transpiled`, the case circuit's transpiled
/// form: the case's split scaled to the transpiled gate count.
std::size_t transpiled_split(const VerifyCase& c,
                             const QuantumCircuit& transpiled) {
  const std::size_t gates = c.circuit.gates().size();
  const std::size_t tgates = transpiled.gates().size();
  if (gates == 0) return 0;
  return std::min(c.split_gate, gates) * tgates / gates;
}

}  // namespace

std::vector<int> marginal_qubits(int num_qubits) {
  std::vector<int> q;
  for (int i = 0; i < num_qubits; i += 2) q.push_back(i);
  return q;
}

std::vector<EngineResult> run_exact_engines(const VerifyCase& c) {
  const QuantumCircuit& qc = c.circuit;
  const int n = qc.num_qubits();
  const QuantumCircuit tqc = transpile_to_basis(qc);
  const std::vector<int> marg = marginal_qubits(n);
  std::vector<EngineResult> results;

  // Reference: per-gate kernels, norm preserved after every gate.
  {
    StateVector sv(n);
    std::string violation;
    for (const Gate& g : qc.gates()) {
      sv.apply_gate(g);
      violation = check_norm(sv, kEngineTol);
      if (!violation.empty()) break;
    }
    results.push_back(
        finish_pure("statevector", sv, marg, kEngineTol, std::move(violation)));
  }

  // The transpiler must preserve the distribution exactly (it preserves
  // the unitary, global phase included).
  {
    StateVector sv(n);
    sv.apply_circuit(tqc);
    results.push_back(finish_pure("transpiled", sv, marg, kEngineTol, {}));
  }

  // Batched engine (the fused plan's one executor) on the transpiled case,
  // the circuit shape the sweeps run, at the case's lane count, split at
  // the case's site scaled to the transpiled gate count, where a mid-op
  // split runs the walk's compiled slices. All lanes start |0...0>, so
  // they must stay identical; one lane takes an X·X identity probe
  // mid-circuit to exercise per-lane divergence bookkeeping.
  {
    const FusedPlan plan(tqc);
    const std::size_t split = transpiled_split(c, tqc);
    BatchedStateVector bsv(n, c.lanes);
    apply_plan_range(plan, bsv, 0, split);
    std::string violation = check_lane_norms(bsv, kEngineTol);
    const int probe_lane = c.lanes - 1;
    bsv.apply_pauli(probe_lane, Pauli::kX, 0);
    bsv.apply_pauli(probe_lane, Pauli::kX, 0);
    apply_plan_range(plan, bsv, split, tqc.gates().size());
    if (violation.empty()) violation = check_lane_norms(bsv, kEngineTol);

    EngineResult r;
    r.name = "batched";
    r.probabilities = bsv.lane_probabilities(0);
    const auto lane_margs = bsv.all_lane_marginal_probabilities(marg);
    r.marginal = lane_margs.front();
    if (violation.empty()) {
      for (int l = 1; l < c.lanes && violation.empty(); ++l) {
        const double d =
            std::max(max_abs_diff(r.probabilities, bsv.lane_probabilities(l)),
                     max_abs_diff(r.marginal,
                                  lane_margs[static_cast<std::size_t>(l)]));
        if (d > kEngineTol) {
          std::ostringstream os;
          os << "lane " << l << " diverged from lane 0 by " << d
             << " on identical inputs (tol " << kEngineTol << ")";
          violation = os.str();
        }
      }
    }
    if (violation.empty())
      violation = check_probability_simplex(r.probabilities, kEngineTol);
    r.violation = std::move(violation);
    results.push_back(std::move(r));
  }

  // Exact density matrix: ρ = |ψ><ψ| evolved as a 2^{2n} buffer; trace and
  // purity are the segment invariants on this engine.
  {
    DensityMatrix dm(n);
    dm.apply_circuit(qc);
    EngineResult r;
    r.name = "density";
    r.probabilities = dm.probabilities();
    r.marginal = dm.marginal_probabilities(marg);
    std::ostringstream os;
    if (std::abs(dm.trace() - 1.0) > kEngineTol) {
      os << "trace " << dm.trace() << " drifted from 1";
      r.violation = os.str();
    } else if (std::abs(dm.purity() - 1.0) > kEngineTol) {
      os << "purity " << dm.purity() << " drifted from 1 on a pure state";
      r.violation = os.str();
    } else {
      r.violation = check_probability_simplex(r.probabilities, kEngineTol);
    }
    results.push_back(std::move(r));
  }

  return results;
}

std::string check_float32_leg(const VerifyCase& c, const EngineOptions& opt) {
  const QuantumCircuit& qc = c.circuit;
  const int n = qc.num_qubits();
  const QuantumCircuit tqc = transpile_to_basis(qc);
  const std::size_t split = transpiled_split(c, tqc);
  const std::vector<int> marg = marginal_qubits(n);

  StateVector ref(n);
  ref.apply_circuit(qc);

  const FusedPlan plan(tqc);
  BatchedStateVectorF bsf(n, c.lanes);
  apply_plan_range(plan, bsf, 0, split);
  std::string violation = check_lane_norms(bsf, opt.f32_tol);
  if (!violation.empty()) return "batched-f32: " + violation;
  const int probe_lane = c.lanes - 1;
  bsf.apply_pauli(probe_lane, Pauli::kX, 0);
  bsf.apply_pauli(probe_lane, Pauli::kX, 0);
  apply_plan_range(plan, bsf, split, tqc.gates().size());
  violation = check_lane_norms(bsf, opt.f32_tol);
  if (!violation.empty()) return "batched-f32: " + violation;

  const std::vector<double> probs = bsf.lane_probabilities(0);
  const auto lane_margs = bsf.all_lane_marginal_probabilities(marg);
  const double d_full = max_abs_diff(probs, ref.probabilities());
  const double d_marg =
      max_abs_diff(lane_margs.front(), ref.marginal_probabilities(marg));
  if (std::max(d_full, d_marg) > opt.f32_tol) {
    std::ostringstream os;
    os << "batched-f32 vs statevector: max |dp| = " << std::max(d_full, d_marg)
       << " (f32 tol " << opt.f32_tol << ")";
    return os.str();
  }
  for (int l = 1; l < c.lanes; ++l) {
    const double d =
        std::max(max_abs_diff(probs, bsf.lane_probabilities(l)),
                 max_abs_diff(lane_margs.front(),
                              lane_margs[static_cast<std::size_t>(l)]));
    // Identical inputs through identical float32 arithmetic: lanes must
    // agree bitwise, so any nonzero divergence is a lane-indexing defect.
    if (d > 0.0) {
      std::ostringstream os;
      os << "batched-f32 lane " << l << " diverged from lane 0 by " << d
         << " on identical inputs";
      return os.str();
    }
  }
  return {};
}

std::string check_noisy_channel(const VerifyCase& c,
                                const EngineOptions& opt) {
  const int n = c.circuit.num_qubits();
  const QuantumCircuit tqc = transpile_to_basis(c.circuit);
  const std::size_t tgates = tqc.gates().size();
  if (tgates == 0) return {};

  // Keep the expected error-event count O(1) so the trajectory average
  // converges to the exact channel within kChannelTol at the configured
  // trajectory budget (the rate still scales every gate's error).
  NoiseModel noise;
  noise.p1q = noise.p2q =
      std::min(c.depolarizing_p, 2.0 / static_cast<double>(tgates));

  DensityMatrix dm(n);
  dm.apply_noisy_circuit(tqc, noise);
  const std::vector<double> exact = dm.probabilities();
  if (std::abs(dm.trace() - 1.0) > kEngineTol)
    return "noisy density: trace " + std::to_string(dm.trace()) +
           " drifted from 1";
  std::string violation = check_probability_simplex(exact, kEngineTol);
  if (!violation.empty()) return "noisy density: " + violation;

  // Scalar vs batched stratified estimators: identical rng streams, so
  // they must agree to replay rounding — a far tighter differential than
  // either is to the exact channel. The batched side is the engine the
  // sweeps run: a BatchedCleanRun group whose members all start from the
  // case's |0…0>, with every replay group loaded from its checkpoints.
  const auto plan = std::make_shared<const FusedPlan>(tqc);
  const CleanRun clean(tqc, StateVector(n), 64);
  const int members = std::max(2, c.lanes);
  const BatchedCleanRun batched(
      plan, std::vector<std::vector<BasisTerm>>(
                static_cast<std::size_t>(members), {BasisTerm{0, 1.0}}));
  const int lane = members - 1;  // loads map a member other than 0
  const ErrorLocations errors(tqc, noise);
  const std::vector<int> outputs = all_qubits(n);
  EstimatorOptions eopt;
  eopt.error_trajectories = opt.error_trajectories;
  const std::uint64_t stream = 0xd1ffe7e47ULL ^ c.root_seed;

  Pcg64 rng_scalar(stream, c.index);
  const std::vector<double> est_scalar =
      estimate_channel_marginal(clean, errors, outputs, eopt, rng_scalar);
  Pcg64 rng_batched(stream, c.index);
  const std::vector<double> est_batched = estimate_channel_marginal_batched(
      batched, lane, errors, outputs, eopt, members, rng_batched);

  violation = check_probability_simplex(est_scalar, kEngineTol);
  if (!violation.empty()) return "estimator(scalar): " + violation;
  const double d_est = max_abs_diff(est_scalar, est_batched);
  if (d_est > kEngineTol) {
    std::ostringstream os;
    os << "estimator scalar vs batched: max |dp| = " << d_est << " (tol "
       << kEngineTol << ")";
    return os.str();
  }
  // Float32 replay leg: identical rng stream (events are pre-sampled, so
  // the narrow tier consumes it exactly like the double tier), compared to
  // the scalar double estimate at the float32 drift tolerance.
  EstimatorOptions fopt = eopt;
  fopt.precision = Precision::kFloat32;
  Pcg64 rng_f32(stream, c.index);
  const std::vector<double> est_f32 = estimate_channel_marginal_batched(
      batched, lane, errors, outputs, fopt, members, rng_f32);
  violation = check_probability_simplex(est_f32, kEngineTol);
  if (!violation.empty()) return "estimator(float32): " + violation;
  const double d_f32 = max_abs_diff(est_scalar, est_f32);
  if (d_f32 > opt.f32_tol) {
    std::ostringstream os;
    os << "estimator double vs float32 replay: max |dp| = " << d_f32
       << " (f32 tol " << opt.f32_tol << ")";
    return os.str();
  }

  const double tv = total_variation(est_scalar, exact);
  if (tv > kChannelTol) {
    std::ostringstream os;
    os << "estimator vs exact channel: total variation " << tv << " (tol "
       << kChannelTol << ", " << eopt.error_trajectories
       << " trajectories)";
    return os.str();
  }

  // Shared-trajectory cluster estimator over {rate/2, rate}, on the whole
  // batched group with every member on the same streams: each member's
  // proposal column samples the stream the stratified estimators consumed,
  // so it must match them to replay rounding; each reweighted half-rate
  // column must stay within a (variance-inflated) statistical TV tolerance
  // of its own exact channel. An ESS fallback on the half-rate column is
  // fine — it reproduces the per-rate estimator, which meets the same
  // bound.
  NoiseModel half = noise;
  half.p1q *= 0.5;
  half.p2q *= 0.5;
  std::vector<ErrorLocations> cluster;
  cluster.emplace_back(tqc, half);
  cluster.emplace_back(tqc, noise);  // proposal (largest expected events)
  SharedEstimatorOptions sopt;
  sopt.error_trajectories = opt.error_trajectories;
  std::vector<std::vector<Pcg64>> rngs(2);
  for (int m = 0; m < members; ++m) {
    rngs[0].emplace_back(stream ^ 0x51a7edULL, c.index);
    rngs[1].emplace_back(stream, c.index);  // the stratified stream
  }
  const std::vector<std::vector<std::vector<double>>> shared =
      estimate_channel_marginals_shared(batched, cluster, outputs, sopt, rngs);
  DensityMatrix dm_half(n);
  dm_half.apply_noisy_circuit(tqc, half);
  const std::vector<double> exact_half = dm_half.probabilities();
  for (int m = 0; m < members; ++m) {
    const std::size_t mi = static_cast<std::size_t>(m);
    const double d_shared = max_abs_diff(shared[1][mi], est_scalar);
    if (d_shared > kEngineTol) {
      std::ostringstream os;
      os << "shared-trajectory proposal column (member " << m
         << ") vs stratified: max |dp| = " << d_shared << " (tol " << kEngineTol
         << ")";
      return os.str();
    }
    violation = check_probability_simplex(shared[0][mi], kEngineTol);
    if (!violation.empty())
      return "estimator(shared half-rate, member " + std::to_string(m) +
             "): " + violation;
    const double tv_half = total_variation(shared[0][mi], exact_half);
    if (tv_half > 1.5 * kChannelTol) {
      std::ostringstream os;
      os << "shared-trajectory half-rate column (member " << m
         << ") vs exact channel: total variation " << tv_half << " (tol "
         << 1.5 * kChannelTol << ", " << sopt.error_trajectories
         << " trajectories)";
      return os.str();
    }
  }
  return {};
}

std::string check_case(const VerifyCase& c, const EngineOptions& opt) {
  const std::vector<EngineResult> exact = run_exact_engines(c);
  std::string failure = compare_engine_results(exact, kEngineTol);
  if (!failure.empty()) return failure;
  failure = check_float32_leg(c, opt);
  if (!failure.empty()) return failure;
  if (opt.check_noisy) return check_noisy_channel(c, opt);
  return {};
}

}  // namespace qfab::verify
