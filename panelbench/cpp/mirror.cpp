#include "mirror.h"

#include <algorithm>
#include <stdexcept>

#include "noise/estimator.h"
#include "sim/invariants.h"
#include "transpile/transpile.h"

namespace panelbench {

using namespace qfab;

namespace {

// The health-sentinel tolerance of src/exp/experiment.cpp.
constexpr double kHealthTol = 1e-6;

// src/exp/sweep.cpp point_rng: the per-(instance, depth, rate) stream.
Pcg64 point_rng(std::uint64_t seed, std::size_t instance, std::size_t depth_i,
                std::size_t rate_i) {
  const std::uint64_t salt = (static_cast<std::uint64_t>(instance) << 32) ^
                             (static_cast<std::uint64_t>(depth_i) << 16) ^
                             static_cast<std::uint64_t>(rate_i);
  Pcg64 root(seed, 0x5eedULL);
  return root.split(salt);
}

// src/exp/sweep.cpp noise_at.
NoiseModel noise_at(const SweepConfig& config, double rate_percent) {
  NoiseModel noise;
  (config.vary_2q ? noise.p2q : noise.p1q) = rate_percent / 100.0;
  noise.noisy_rz = config.run.noisy_rz;
  noise.noisy_id = config.run.noisy_id;
  return noise;
}

void check_channel(const RunOptions& run, const std::vector<double>& channel) {
  if (!run.health_checks) return;
  const std::string violation = check_probability_simplex(channel, kHealthTol);
  if (!violation.empty()) throw NumericalHealthError(violation);
}

InstanceOutcome shots_outcome(const RunOptions& run,
                              std::vector<double>& channel, Pcg64& rng,
                              const std::vector<u64>& correct) {
  check_channel(run, channel);
  if (run.readout.enabled()) apply_readout_error(channel, run.readout);
  return evaluate_counts(sample_shot_counts(channel, run.shots, rng), correct);
}

/// Replay the unit's unique proposal trajectories the way
/// estimate_channel_marginals_shared packs them: per member, T draws from
/// the proposal column's stream, deduplicated on (events, fired sites);
/// all members pooled, sorted by first error site, replayed L at a time.
template <typename Real>
void replay_proposals(const BatchedCleanRun& clean,
                      const std::vector<ErrorLocations>& errors,
                      const std::vector<std::size_t>& cluster,
                      const SweepConfig& config, std::size_t d, std::size_t i0,
                      const std::vector<int>& output_qubits, Tracer& tracer,
                      ReplayProbe& probe) {
  std::size_t p = 0;
  for (std::size_t c = 1; c < errors.size(); ++c)
    if (errors[c].expected_events() > errors[p].expected_events()) p = c;
  struct Traj {
    std::size_t site;
    int member;
    std::vector<ErrorEvent> events;
  };
  std::vector<Traj> pool;
  const int lanes = clean.lanes();
  for (int m = 0; m < lanes; ++m) {
    Pcg64 rng = point_rng(config.seed, i0 + static_cast<std::size_t>(m), d,
                          cluster[p]);
    std::vector<std::vector<ErrorEvent>> seen_events;
    std::vector<std::vector<std::uint32_t>> seen_fired;
    std::vector<std::uint32_t> fired;
    for (int t = 0; t < config.run.error_trajectories; ++t) {
      std::vector<ErrorEvent> events =
          errors[p].sample_at_least_one(rng, &fired);
      bool dup = false;
      for (std::size_t k = 0; k < seen_events.size() && !dup; ++k)
        dup = seen_events[k] == events && seen_fired[k] == fired;
      if (dup) continue;
      seen_events.push_back(events);
      seen_fired.push_back(fired);
      pool.push_back(Traj{events.front().gate_index, m, std::move(events)});
    }
  }
  std::stable_sort(
      pool.begin(), pool.end(),
      [](const Traj& a, const Traj& b) { return a.site < b.site; });

  const Scope span(tracer, "sim.replay");
  BatchedStateVectorT<Real> bsv(clean.circuit().num_qubits(), 1);
  std::vector<std::vector<double>> margs;
  std::vector<double> acc;
  const double t0 = tracer.now();
  const std::size_t L = static_cast<std::size_t>(lanes);
  for (std::size_t lo = 0; lo < pool.size(); lo += L) {
    const std::size_t n = std::min(L, pool.size() - lo);
    std::vector<int> lane_map(n);
    std::vector<std::vector<ErrorEvent>> lane_events(n);
    for (std::size_t j = 0; j < n; ++j) {
      lane_map[j] = pool[lo + j].member;
      lane_events[j] = pool[lo + j].events;
    }
    const std::size_t g0 = pool[lo].site + 1;
    clean.load_states_at(g0, lane_map, bsv);
    run_trajectories_batched(clean.plan(), bsv, g0, lane_events);
    bsv.all_lane_marginal_probabilities(output_qubits, margs, acc);
    probe.lane_slots += lanes;
  }
  probe.seconds += tracer.now() - t0;
  probe.trajectories += static_cast<long>(pool.size());
}

}  // namespace

MirrorSetup mirror_setup(const SweepConfig& config, Tracer& tracer) {
  MirrorSetup setup;
  for (int depth : config.depths) {
    CircuitSpec spec = config.base;
    spec.depth = depth;
    QuantumCircuit abstract = [&] {
      const Scope span(tracer, "qfb.build");
      return build_arith_circuit(spec);
    }();
    {
      const Scope span(tracer, "transpile");
      setup.circuits.push_back(transpile_to_basis(abstract));
    }
    const Scope span(tracer, "sim.fuse");
    setup.plans.push_back(
        std::make_shared<const FusedPlan>(setup.circuits.back()));
  }
  return setup;
}

UnitResult mirror_unit(const SweepConfig& config,
                       const std::vector<ArithInstance>& instances,
                       const SweepGrid& grid, const MirrorSetup& setup,
                       std::size_t u, Tracer& tracer, ReplayProbe* probe) {
  if (grid.block <= 1)
    throw std::logic_error("the mirror covers the batched unit path only");
  const SweepGrid::UnitKey key = grid.key(u);
  const std::size_t d = key.depth_index;
  const std::size_t i0 = key.block_begin;
  const std::size_t members = key.block_end - key.block_begin;
  const RunOptions& run = config.run;
  const std::vector<double> rates = config.expanded_rates();
  std::vector<std::size_t> cluster;
  for (std::size_t r = 0; r < rates.size(); ++r)
    if (rates[r] > 0.0) cluster.push_back(r);
  const bool use_shared =
      run.shared_trajectories && !run.per_shot && !cluster.empty();
  CircuitSpec spec = config.base;
  spec.depth = config.depths[d];
  const std::shared_ptr<const FusedPlan>& plan = setup.plans[d];

  UnitResult out;
  out.outcomes.assign(rates.size(), std::vector<InstanceOutcome>(members));
  std::unique_ptr<BatchedCleanRun> clean;
  std::vector<int> oq;
  std::vector<ErrorLocations> cluster_errors;
  {
    const Scope unit_span(tracer, "exp.unit");
    // InstanceBatch's constructor: initial states, the batched ideal run,
    // its norm sentinel, then each member's correct outputs.
    std::vector<StateVector> states;
    {
      const Scope span(tracer, "arith.prep");
      states.reserve(members);
      for (std::size_t m = 0; m < members; ++m)
        states.push_back(make_initial_state(spec, instances[i0 + m]));
    }
    {
      const Scope span(tracer, "noise.clean");
      clean = std::make_unique<BatchedCleanRun>(plan, states,
                                                run.checkpoint_interval);
      if (run.health_checks) {
        const std::string violation =
            check_lane_norms(clean->final_states(), kHealthTol);
        if (!violation.empty()) throw NumericalHealthError(violation);
      }
    }
    std::vector<std::vector<u64>> correct;
    {
      const Scope span(tracer, "arith.prep");
      oq = output_qubits(spec);
      correct.reserve(members);
      for (std::size_t m = 0; m < members; ++m)
        correct.push_back(correct_outputs(spec, instances[i0 + m]));
    }
    const Precision precision =
        resolve_precision(run, clean->plan().gate_count());

    // Columns outside the shared cluster (the noise-free one): per rate.
    for (std::size_t r = 0; r < rates.size(); ++r) {
      if (use_shared && rates[r] > 0.0) continue;
      std::vector<Pcg64> rngs;
      for (std::size_t m = 0; m < members; ++m)
        rngs.push_back(point_rng(config.seed, i0 + m, d, r));
      const ErrorLocations errors = [&] {
        const Scope span(tracer, "noise.locations");
        return ErrorLocations(clean->circuit(), noise_at(config, rates[r]));
      }();
      EstimatorOptions est;
      est.error_trajectories = run.error_trajectories;
      est.precision = precision;
      est.float_drift_budget = run.float_drift_budget;
      std::vector<std::vector<double>> channels;
      {
        const Scope span(tracer, "noise.estimate");
        channels = estimate_channel_marginals_batched(*clean, errors, oq, est,
                                                      rngs);
      }
      const Scope span(tracer, "exp.shots");
      for (std::size_t m = 0; m < members; ++m)
        out.outcomes[r][m] =
            shots_outcome(run, channels[m], rngs[m], correct[m]);
    }

    if (use_shared) {
      std::vector<std::vector<Pcg64>> rngs(cluster.size());
      for (std::size_t c = 0; c < cluster.size(); ++c)
        for (std::size_t m = 0; m < members; ++m)
          rngs[c].push_back(point_rng(config.seed, i0 + m, d, cluster[c]));
      {
        const Scope span(tracer, "noise.locations");
        for (std::size_t r : cluster)
          cluster_errors.emplace_back(clean->circuit(),
                                      noise_at(config, rates[r]));
      }
      SharedEstimatorOptions opt;
      opt.error_trajectories = run.error_trajectories;
      opt.min_ess_fraction = run.shared_min_ess;
      opt.precision = precision;
      opt.float_drift_budget = run.float_drift_budget;
      std::vector<std::vector<std::vector<double>>> channels;
      {
        const Scope span(tracer, "noise.estimate");
        channels = estimate_channel_marginals_shared(*clean, cluster_errors, oq,
                                                     opt, rngs, &out.stats);
      }
      const Scope span(tracer, "exp.shots");
      for (std::size_t c = 0; c < cluster.size(); ++c)
        for (std::size_t m = 0; m < members; ++m)
          out.outcomes[cluster[c]][m] =
              shots_outcome(run, channels[c][m], rngs[c][m], correct[m]);
    }
  }

  if (probe != nullptr && use_shared && cluster.size() > 1) {
    if (resolve_precision(run, plan->gate_count()) == Precision::kFloat32)
      replay_proposals<float>(*clean, cluster_errors, cluster, config, d, i0,
                              oq, tracer, *probe);
    else
      replay_proposals<double>(*clean, cluster_errors, cluster, config, d, i0,
                               oq, tracer, *probe);
  }
  return out;
}

bool same_unit_result(const UnitResult& a, const UnitResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (std::size_t r = 0; r < a.outcomes.size(); ++r) {
    if (a.outcomes[r].size() != b.outcomes[r].size()) return false;
    for (std::size_t m = 0; m < a.outcomes[r].size(); ++m)
      if (a.outcomes[r][m].success != b.outcomes[r][m].success ||
          a.outcomes[r][m].margin != b.outcomes[r][m].margin)
        return false;
  }
  const SharedEstimateStats& s = a.stats;
  const SharedEstimateStats& t = b.stats;
  return s.proposal_trajectories == t.proposal_trajectories &&
         s.unique_trajectories == t.unique_trajectories &&
         s.fallback_trajectories == t.fallback_trajectories &&
         s.rate_columns == t.rate_columns &&
         s.fallback_columns == t.fallback_columns &&
         s.ess_fraction_min == t.ess_fraction_min &&
         s.ess_fraction_sum == t.ess_fraction_sum &&
         s.ess_fraction_count == t.ess_fraction_count &&
         a.retried == b.retried && a.poisoned == b.poisoned;
}

}  // namespace panelbench
