#include "noise/estimator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

namespace qfab {

namespace {

std::atomic<long> g_precision_fallbacks{0};

/// Per-thread replay scratch: the batched state vectors (one per replay
/// precision), the scalar trajectory state, and the marginal accumulation
/// buffers that every estimate would otherwise allocate per replay group.
struct ReplayWorkspace {
  StateVector sv{1};
  BatchedStateVector bsv{1, 1};
  BatchedStateVectorF bsf{1, 1};           // float32 replay tier
  std::vector<std::vector<double>> margs;  // per-lane group marginals
  std::vector<double> acc;                 // lane-minor accumulation plane
  std::vector<double> marg;                // scalar-path marginal
  std::vector<double> lane_sums;           // per-lane marginal sums (norm²)
};

ReplayWorkspace& replay_workspace() {
  thread_local ReplayWorkspace ws;
  return ws;
}

/// Replay one trajectory group at the requested precision and leave the
/// per-lane output marginals in ws.margs. `seed` is a generic callback
/// that loads the group's start states into a batched vector of either
/// precision (a lane-permuted checkpoint load, or on the scalar CleanRun
/// a broadcast of one ideal state).
///
/// Float32 groups run the drift sentinel afterwards: every lane's norm² is
/// the sum of its marginal, so a lane that drifted from 1 beyond the
/// budget (or went non-finite) is detected without an extra pass. A
/// tripped sentinel re-replays the whole group in double — bit-for-bit the
/// double path for these trajectories — and bumps the process-wide
/// fallback counter. Surviving float32 marginals are normalized per lane:
/// the residual drift is pure replay rounding, and normalizing keeps every
/// downstream simplex invariant at double tolerances.
template <typename Seed>
void replay_group_marginals(const FusedPlan& plan, std::size_t g0,
                            const std::vector<std::vector<ErrorEvent>>& events,
                            const std::vector<int>& output_qubits,
                            Precision precision, double drift_budget,
                            ReplayWorkspace& ws, Seed&& seed) {
  if (precision == Precision::kFloat32) {
    seed(ws.bsf);
    run_trajectories_batched(plan, ws.bsf, g0, events);
    ws.bsf.all_lane_marginal_probabilities(output_qubits, ws.margs, ws.acc);
    // One pass over the marginal planes serves both the sentinel and the
    // normalization: each lane's sum is computed once, checked against the
    // drift budget, and reused as the normalizer.
    ws.lane_sums.resize(ws.margs.size());
    bool ok = true;
    for (std::size_t l = 0; l < ws.margs.size(); ++l) {
      double s = 0.0;
      for (double v : ws.margs[l]) s += v;
      ws.lane_sums[l] = s;
      if (!(std::abs(s - 1.0) <= drift_budget)) {  // catches NaN too
        ok = false;
        break;
      }
    }
    if (ok) {
      for (std::size_t l = 0; l < ws.margs.size(); ++l) {
        const double inv = 1.0 / ws.lane_sums[l];
        for (double& v : ws.margs[l]) v *= inv;
      }
      return;
    }
    g_precision_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  seed(ws.bsv);
  run_trajectories_batched(plan, ws.bsv, g0, events);
  ws.bsv.all_lane_marginal_probabilities(output_qubits, ws.margs, ws.acc);
}

/// Shared body of the two batched-estimator overloads. `group_seed(g0,
/// lanes)` returns one replay group's seed (see replay_group_marginals):
/// a callback that loads `lanes` copies of the estimated instance's ideal
/// state after g0 gates.
template <typename GroupSeed>
std::vector<double> channel_marginal_batched_impl(
    const FusedPlan& plan, const std::vector<double>& ideal,
    GroupSeed&& group_seed, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    int max_lanes, Pcg64& rng) {
  const double w0 = errors.clean_probability();
  if (errors.noisy_gate_count() == 0 || w0 >= 1.0) return ideal;
  QFAB_CHECK(options.error_trajectories >= 1);
  QFAB_CHECK(max_lanes >= 1 && max_lanes <= BatchedStateVector::kMaxLanes);
  const int T = options.error_trajectories;
  ReplayWorkspace& ws = replay_workspace();

  // Pre-sample every trajectory's event list sequentially: the rng stream
  // is identical to the scalar estimator's and independent of lane packing.
  std::vector<std::vector<ErrorEvent>> all_events(T);
  for (int t = 0; t < T; ++t) all_events[t] = errors.sample_at_least_one(rng);

  // Stratify: sort trajectory indices by first-error site so lanes batched
  // together share (almost) all of their ideal prefix and the group's
  // common start state wastes little replay.
  std::vector<int> order(static_cast<std::size_t>(T));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return all_events[a].front().gate_index < all_events[b].front().gate_index;
  });

  std::vector<std::vector<double>> margs(static_cast<std::size_t>(T));
  for (int lo = 0; lo < T; lo += max_lanes) {
    const int lanes = std::min(max_lanes, T - lo);
    // Scalar run_trajectory resumes at first_gate_index + 1; the group
    // resumes at the earliest such site and the later lanes replay the
    // few extra ideal gates batched.
    const std::size_t g0 = all_events[order[lo]].front().gate_index + 1;
    std::vector<std::vector<ErrorEvent>> lane_events(lanes);
    for (int l = 0; l < lanes; ++l) lane_events[l] = all_events[order[lo + l]];
    replay_group_marginals(plan, g0, lane_events, output_qubits,
                           options.precision, options.float_drift_budget, ws,
                           group_seed(g0, lanes));
    for (int l = 0; l < lanes; ++l)
      margs[order[lo + l]] = ws.margs[static_cast<std::size_t>(l)];
  }

  // Accumulate in original sample order, not lane order, so the estimate
  // does not depend on the stratified packing.
  std::vector<double> err_mean(ideal.size(), 0.0);
  for (int t = 0; t < T; ++t)
    for (std::size_t i = 0; i < err_mean.size(); ++i)
      err_mean[i] += margs[t][i];
  const double scale = (1.0 - w0) / static_cast<double>(T);
  std::vector<double> out(ideal.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = w0 * ideal[i] + scale * err_mean[i];
  return out;
}

/// T proposal trajectories after dedup: unique (fired set, event list)
/// pairs with multiplicities. The event list alone is not a sufficient key:
/// with thermal (kWeighted) locations alongside depolarizing ones, two
/// different fired sets can emit identical event lists but carry different
/// importance weights.
struct UniqueTrajectories {
  std::vector<std::vector<ErrorEvent>> events;    // per unique
  std::vector<std::vector<std::uint32_t>> fired;  // per unique
  std::vector<int> multiplicity;                  // per unique
  int total = 0;                                  // trajectories sampled
};

std::uint64_t hash_fired(std::uint64_t h,
                         const std::vector<std::uint32_t>& fired) {
  for (std::uint32_t f : fired) {
    h ^= f;
    h *= 0x100000001b3ULL;
  }
  return h;
}

UniqueTrajectories sample_unique_trajectories(const ErrorLocations& proposal,
                                              int T, Pcg64& rng) {
  UniqueTrajectories uniq;
  uniq.total = T;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  std::vector<std::uint32_t> fired;
  for (int t = 0; t < T; ++t) {
    std::vector<ErrorEvent> events = proposal.sample_at_least_one(rng, &fired);
    const std::uint64_t h = hash_fired(hash_events(events), fired);
    std::vector<std::size_t>& bucket = buckets[h];
    bool merged = false;
    for (std::size_t u : bucket) {
      if (uniq.events[u] == events && uniq.fired[u] == fired) {
        ++uniq.multiplicity[u];
        merged = true;
        break;
      }
    }
    if (!merged) {
      bucket.push_back(uniq.events.size());
      uniq.events.push_back(std::move(events));
      uniq.fired.push_back(fired);
      uniq.multiplicity.push_back(1);
    }
  }
  return uniq;
}

/// Self-normalized importance weights of the unique trajectories for one
/// target rate. `delta_log_odds[i]` = target log-odds − proposal log-odds
/// of location i; log w_u = Σ_{i ∈ fired_u} delta. Returned weights sum to
/// 1 over uniques (multiplicity folded in); `ess` is in trajectory units:
/// (Σ_t w_t)² / Σ_t w_t² over the T originals, computed from the uniques as
/// S² / Σ_u mult_u·e_u² with e_u = exp(log w_u − max) and S = Σ_u mult_u·e_u.
struct RateWeights {
  std::vector<double> w;
  double ess = 0.0;
};

RateWeights reweight(const UniqueTrajectories& uniq,
                     const std::vector<double>& delta_log_odds) {
  const std::size_t U = uniq.events.size();
  RateWeights rw;
  rw.w.resize(U);
  double max_ell = -std::numeric_limits<double>::infinity();
  for (std::size_t u = 0; u < U; ++u) {
    double ell = 0.0;
    for (std::uint32_t f : uniq.fired[u]) ell += delta_log_odds[f];
    rw.w[u] = ell;
    max_ell = std::max(max_ell, ell);
  }
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t u = 0; u < U; ++u) {
    const double e = std::exp(rw.w[u] - max_ell);
    const double m = static_cast<double>(uniq.multiplicity[u]);
    rw.w[u] = m * e;
    sum += m * e;
    sum_sq += m * e * e;
  }
  for (double& w : rw.w) w /= sum;
  rw.ess = sum * sum / sum_sq;
  return rw;
}

/// Proposal = the cluster member with the largest expected event count:
/// heavier trajectories downweight cleanly, while a light proposal starves
/// the heavy columns of multi-event trajectories.
std::size_t pick_proposal(const std::vector<ErrorLocations>& rate_errors) {
  std::size_t best = 0;
  for (std::size_t r = 1; r < rate_errors.size(); ++r)
    if (rate_errors[r].expected_events() >
        rate_errors[best].expected_events())
      best = r;
  return best;
}

/// Per-location log-odds deltas from `proposal` to each rate (the
/// proposal's own row is all zeros, so its weights are uniform).
std::vector<std::vector<double>> delta_log_odds_per_rate(
    const std::vector<ErrorLocations>& rate_errors, std::size_t proposal) {
  const ErrorLocations& prop = rate_errors[proposal];
  std::vector<std::vector<double>> deltas(rate_errors.size());
  for (std::size_t r = 0; r < rate_errors.size(); ++r) {
    deltas[r].resize(prop.location_count());
    for (std::size_t i = 0; i < prop.location_count(); ++i)
      deltas[r][i] =
          rate_errors[r].location_log_odds(i) - prop.location_log_odds(i);
  }
  return deltas;
}

void note_ess(SharedEstimateStats* stats, double ess_fraction) {
  if (!stats) return;
  stats->ess_fraction_min = std::min(stats->ess_fraction_min, ess_fraction);
  stats->ess_fraction_sum += ess_fraction;
  ++stats->ess_fraction_count;
}

/// Blend one rate column: w0·ideal + (1−w0)·Σ_u w_u·marg_u.
std::vector<double> blend_weighted(const std::vector<double>& ideal, double w0,
                                   const RateWeights& rw,
                                   const std::vector<std::vector<double>>& margs) {
  std::vector<double> out(ideal.size());
  for (std::size_t b = 0; b < out.size(); ++b) out[b] = w0 * ideal[b];
  const double err_w = 1.0 - w0;
  for (std::size_t u = 0; u < rw.w.size(); ++u) {
    const double wu = err_w * rw.w[u];
    const std::vector<double>& m = margs[u];
    for (std::size_t b = 0; b < out.size(); ++b) out[b] += wu * m[b];
  }
  return out;
}

}  // namespace

long precision_fallback_count() {
  return g_precision_fallbacks.load(std::memory_order_relaxed);
}

void reset_precision_fallback_count() {
  g_precision_fallbacks.store(0, std::memory_order_relaxed);
}

void SharedEstimateStats::merge(const SharedEstimateStats& other) {
  proposal_trajectories += other.proposal_trajectories;
  unique_trajectories += other.unique_trajectories;
  fallback_trajectories += other.fallback_trajectories;
  rate_columns += other.rate_columns;
  fallback_columns += other.fallback_columns;
  ess_fraction_min = std::min(ess_fraction_min, other.ess_fraction_min);
  ess_fraction_sum += other.ess_fraction_sum;
  ess_fraction_count += other.ess_fraction_count;
}

std::vector<double> estimate_channel_marginal(
    const CleanRun& clean, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    Pcg64& rng) {
  const std::vector<double> ideal = clean.ideal_marginal(output_qubits);
  const double w0 = errors.clean_probability();
  if (errors.noisy_gate_count() == 0 || w0 >= 1.0) return ideal;
  QFAB_CHECK(options.error_trajectories >= 1);

  ReplayWorkspace& ws = replay_workspace();
  std::vector<double> err_mean(ideal.size(), 0.0);
  for (int t = 0; t < options.error_trajectories; ++t) {
    const std::vector<ErrorEvent> events = errors.sample_at_least_one(rng);
    run_trajectory(clean, events, ws.sv);
    ws.sv.marginal_probabilities(output_qubits, ws.marg);
    for (std::size_t i = 0; i < err_mean.size(); ++i) err_mean[i] += ws.marg[i];
  }
  const double scale =
      (1.0 - w0) / static_cast<double>(options.error_trajectories);
  std::vector<double> out(ideal.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = w0 * ideal[i] + scale * err_mean[i];
  return out;
}

std::vector<double> estimate_channel_marginal_batched(
    const CleanRun& clean, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    int max_lanes, Pcg64& rng) {
  // Every lane broadcasts one scalar resume state, computed once per group
  // so a double redo reuses it.
  const auto group_seed = [&clean](std::size_t g0, int lanes) {
    return [&clean, lanes, start = clean.state_at(g0)](auto& bsv) {
      bsv.reset(clean.circuit().num_qubits(), lanes,
                clean.plan().row_layout());
      bsv.broadcast(start);
    };
  };
  return channel_marginal_batched_impl(
      clean.plan(), clean.ideal_marginal(output_qubits), group_seed, errors,
      output_qubits, options, max_lanes, rng);
}

std::vector<double> estimate_channel_marginal_batched(
    const BatchedCleanRun& clean, int lane, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    int max_lanes, Pcg64& rng) {
  QFAB_CHECK(lane >= 0 && lane < clean.lanes());
  // Every lane loads `lane`'s state: the live-tile checkpoint copy and
  // batched resume that seed the pooled groups too.
  const auto group_seed = [&clean, lane](std::size_t g0, int lanes) {
    return [&clean, g0, lane_map = std::vector<int>(lanes, lane)](auto& bsv) {
      clean.load_states_at(g0, lane_map, bsv);
    };
  };
  return channel_marginal_batched_impl(
      clean.plan(), clean.lane_ideal_marginal(lane, output_qubits),
      group_seed, errors, output_qubits, options, max_lanes, rng);
}

std::vector<std::vector<double>> estimate_channel_marginals_batched(
    const BatchedCleanRun& clean, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    std::vector<Pcg64>& rngs) {
  const std::size_t L = static_cast<std::size_t>(clean.lanes());
  QFAB_CHECK(rngs.size() == L);
  std::vector<std::vector<double>> ideals(L);
  for (std::size_t i = 0; i < L; ++i)
    ideals[i] = clean.lane_ideal_marginal(static_cast<int>(i), output_qubits);
  const double w0 = errors.clean_probability();
  if (errors.noisy_gate_count() == 0 || w0 >= 1.0) return ideals;
  QFAB_CHECK(options.error_trajectories >= 1);
  const std::size_t T = static_cast<std::size_t>(options.error_trajectories);

  // Pre-sample every member's trajectories from its own stream (identical
  // rng consumption to the per-member estimator), then pool all L*T
  // trajectories across members and sort by first-error site. Groups of L
  // consecutive pooled trajectories — whichever members they came from —
  // share nearly all of their ideal prefix, so each group's batched replay
  // from the common resume point wastes little work and its injection
  // sites cluster into few fused ops. Marginals are written back per
  // (member, original sample index), and the fused walk replays each
  // lane with exactly the decomposition its trajectory would get solo
  // from the same resume point (see run_trajectories_batched) — what
  // varies with the packing is only the group resume gate, so the
  // estimate is packing-independent up to replay rounding on that
  // shared prefix.
  std::vector<std::vector<std::vector<ErrorEvent>>> all_events(
      L, std::vector<std::vector<ErrorEvent>>(T));
  struct Traj {
    std::size_t site;  // first-error gate index
    std::size_t member;
    std::size_t t;  // original sample index within the member
  };
  std::vector<Traj> pool;
  pool.reserve(L * T);
  for (std::size_t i = 0; i < L; ++i)
    for (std::size_t t = 0; t < T; ++t) {
      all_events[i][t] = errors.sample_at_least_one(rngs[i]);
      pool.push_back(Traj{all_events[i][t].front().gate_index, i, t});
    }
  std::stable_sort(pool.begin(), pool.end(),
                   [](const Traj& a, const Traj& b) { return a.site < b.site; });

  std::vector<std::vector<std::vector<double>>> margs(
      L, std::vector<std::vector<double>>(T));
  ReplayWorkspace& ws = replay_workspace();
  for (std::size_t lo = 0; lo < pool.size(); lo += L) {
    const std::size_t lanes = std::min(L, pool.size() - lo);
    std::vector<int> lane_map(lanes);
    std::vector<std::vector<ErrorEvent>> lane_events(lanes);
    for (std::size_t j = 0; j < lanes; ++j) {
      const Traj& traj = pool[lo + j];
      lane_map[j] = static_cast<int>(traj.member);
      lane_events[j] = all_events[traj.member][traj.t];
    }
    // Scalar run_trajectory resumes at first_gate_index + 1; the group
    // resumes at its earliest such site (pool is sorted, so that is the
    // first entry) and later lanes replay the few extra ideal gates
    // batched.
    const std::size_t g0 = pool[lo].site + 1;
    replay_group_marginals(
        clean.plan(), g0, lane_events, output_qubits, options.precision,
        options.float_drift_budget, ws,
        [&](auto& bsv) { clean.load_states_at(g0, lane_map, bsv); });
    for (std::size_t j = 0; j < lanes; ++j)
      margs[pool[lo + j].member][pool[lo + j].t] = ws.margs[j];
  }

  // Per member, accumulate in the original sample order (grouping-
  // independent) and blend with the analytic clean weight.
  const double scale = (1.0 - w0) / static_cast<double>(T);
  std::vector<std::vector<double>> out(L);
  for (std::size_t i = 0; i < L; ++i) {
    const std::vector<double>& ideal = ideals[i];
    std::vector<double> err_mean(ideal.size(), 0.0);
    for (std::size_t t = 0; t < T; ++t)
      for (std::size_t b = 0; b < err_mean.size(); ++b)
        err_mean[b] += margs[i][t][b];
    out[i].resize(ideal.size());
    for (std::size_t b = 0; b < out[i].size(); ++b)
      out[i][b] = w0 * ideal[b] + scale * err_mean[b];
  }
  return out;
}

std::vector<std::vector<double>> estimate_channel_marginal_shared(
    const CleanRun& clean, const std::vector<ErrorLocations>& rate_errors,
    const std::vector<int>& output_qubits,
    const SharedEstimatorOptions& options, int max_lanes,
    std::vector<Pcg64>& rngs, SharedEstimateStats* stats) {
  const std::size_t R = rate_errors.size();
  QFAB_CHECK(R >= 1 && rngs.size() == R);
  QFAB_CHECK(options.error_trajectories >= 1);
  QFAB_CHECK(max_lanes >= 1 && max_lanes <= BatchedStateVector::kMaxLanes);
  const int T = options.error_trajectories;
  const EstimatorOptions eopt{T, options.precision,
                              options.float_drift_budget};
  auto per_rate = [&](std::size_t r) {
    return max_lanes > 1
               ? estimate_channel_marginal_batched(clean, rate_errors[r],
                                                   output_qubits, eopt,
                                                   max_lanes, rngs[r])
               : estimate_channel_marginal(clean, rate_errors[r],
                                           output_qubits, eopt, rngs[r]);
  };
  if (stats) stats->rate_columns += static_cast<long>(R);

  // A single-rate cluster has nothing to share: delegate to the per-rate
  // estimator (exact stream-for-stream match).
  if (R == 1) {
    if (stats && rate_errors[0].noisy_gate_count() > 0) {
      stats->proposal_trajectories += T;
      stats->unique_trajectories += T;
    }
    return {per_rate(0)};
  }

  const std::vector<double> ideal = clean.ideal_marginal(output_qubits);
  const std::size_t p = pick_proposal(rate_errors);
  if (rate_errors[p].noisy_gate_count() == 0)
    return std::vector<std::vector<double>>(R, ideal);
  for (std::size_t r = 0; r < R; ++r)
    QFAB_CHECK_MSG(rate_errors[p].reweightable_to(rate_errors[r]),
                   "shared-trajectory cluster rates are not reweightable");

  const UniqueTrajectories uniq =
      sample_unique_trajectories(rate_errors[p], T, rngs[p]);
  const std::size_t U = uniq.events.size();
  if (stats) {
    stats->proposal_trajectories += T;
    stats->unique_trajectories += static_cast<long>(U);
  }

  // Replay each unique trajectory once, stratified by first-error site.
  std::vector<std::size_t> order(U);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return uniq.events[a].front().gate_index < uniq.events[b].front().gate_index;
  });
  ReplayWorkspace& ws = replay_workspace();
  std::vector<std::vector<double>> umargs(U);
  if (max_lanes > 1) {
    for (std::size_t lo = 0; lo < U; lo += static_cast<std::size_t>(max_lanes)) {
      const int lanes =
          static_cast<int>(std::min<std::size_t>(max_lanes, U - lo));
      const std::size_t g0 = uniq.events[order[lo]].front().gate_index + 1;
      clean.state_at(g0, ws.sv);
      std::vector<std::vector<ErrorEvent>> lane_events(lanes);
      for (int l = 0; l < lanes; ++l)
        lane_events[l] = uniq.events[order[lo + static_cast<std::size_t>(l)]];
      replay_group_marginals(clean.plan(), g0, lane_events, output_qubits,
                             options.precision, options.float_drift_budget, ws,
                             [&](auto& bsv) {
                               bsv.reset(clean.circuit().num_qubits(), lanes,
                                         clean.plan().row_layout());
                               bsv.broadcast(ws.sv);
                             });
      for (int l = 0; l < lanes; ++l)
        umargs[order[lo + static_cast<std::size_t>(l)]] =
            ws.margs[static_cast<std::size_t>(l)];
    }
  } else {
    for (std::size_t u = 0; u < U; ++u) {
      run_trajectory(clean, uniq.events[u], ws.sv);
      ws.sv.marginal_probabilities(output_qubits, umargs[u]);
    }
  }

  const std::vector<std::vector<double>> deltas =
      delta_log_odds_per_rate(rate_errors, p);
  const double min_ess =
      options.min_ess_fraction * static_cast<double>(T);
  std::vector<std::vector<double>> out(R);
  for (std::size_t r = 0; r < R; ++r) {
    const RateWeights rw = reweight(uniq, deltas[r]);
    if (r != p) note_ess(stats, rw.ess / static_cast<double>(T));
    if (r != p && rw.ess < min_ess) {
      // Weight degeneracy: this column is re-estimated from its own
      // stream by exactly the call the per-rate path would have made.
      if (stats) {
        ++stats->fallback_columns;
        stats->fallback_trajectories += T;
      }
      out[r] = per_rate(r);
      continue;
    }
    out[r] = blend_weighted(ideal, rate_errors[r].clean_probability(), rw,
                            umargs);
  }
  return out;
}

std::vector<std::vector<std::vector<double>>> estimate_channel_marginals_shared(
    const BatchedCleanRun& clean, const std::vector<ErrorLocations>& rate_errors,
    const std::vector<int>& output_qubits,
    const SharedEstimatorOptions& options,
    std::vector<std::vector<Pcg64>>& rngs, SharedEstimateStats* stats) {
  const std::size_t L = static_cast<std::size_t>(clean.lanes());
  const std::size_t R = rate_errors.size();
  QFAB_CHECK(R >= 1 && rngs.size() == R);
  for (const std::vector<Pcg64>& r : rngs) QFAB_CHECK(r.size() == L);
  QFAB_CHECK(options.error_trajectories >= 1);
  const int T = options.error_trajectories;
  const EstimatorOptions eopt{T, options.precision,
                              options.float_drift_budget};
  if (stats) stats->rate_columns += static_cast<long>(R * L);

  // Single-rate cluster: the pooled per-rate estimator outright.
  if (R == 1) {
    if (stats && rate_errors[0].noisy_gate_count() > 0) {
      stats->proposal_trajectories += static_cast<long>(L) * T;
      stats->unique_trajectories += static_cast<long>(L) * T;
    }
    std::vector<std::vector<std::vector<double>>> out(1);
    out[0] = estimate_channel_marginals_batched(clean, rate_errors[0],
                                                output_qubits, eopt, rngs[0]);
    return out;
  }

  std::vector<std::vector<double>> ideals(L);
  for (std::size_t m = 0; m < L; ++m)
    ideals[m] = clean.lane_ideal_marginal(static_cast<int>(m), output_qubits);
  const std::size_t p = pick_proposal(rate_errors);
  if (rate_errors[p].noisy_gate_count() == 0)
    return std::vector<std::vector<std::vector<double>>>(R, ideals);
  for (std::size_t r = 0; r < R; ++r)
    QFAB_CHECK_MSG(rate_errors[p].reweightable_to(rate_errors[r]),
                   "shared-trajectory cluster rates are not reweightable");

  // Member-major sampling from the proposal streams (the order the pooled
  // per-rate estimator consumes them), each member deduplicated on its own.
  std::vector<UniqueTrajectories> uniq;
  uniq.reserve(L);
  for (std::size_t m = 0; m < L; ++m)
    uniq.push_back(sample_unique_trajectories(rate_errors[p], T, rngs[p][m]));
  if (stats)
    for (const UniqueTrajectories& u : uniq) {
      stats->proposal_trajectories += u.total;
      stats->unique_trajectories += static_cast<long>(u.events.size());
    }

  // Pool every member's unique trajectories, sort by first-error site, and
  // replay lanes-at-a-time from the batched checkpoints (see
  // estimate_channel_marginals_batched for why the bands are tight).
  struct Traj {
    std::size_t site;
    std::size_t member;
    std::size_t u;  // unique index within the member
  };
  std::vector<Traj> pool;
  for (std::size_t m = 0; m < L; ++m)
    for (std::size_t u = 0; u < uniq[m].events.size(); ++u)
      pool.push_back(Traj{uniq[m].events[u].front().gate_index, m, u});
  std::stable_sort(pool.begin(), pool.end(),
                   [](const Traj& a, const Traj& b) { return a.site < b.site; });

  ReplayWorkspace& ws = replay_workspace();
  std::vector<std::vector<std::vector<double>>> umargs(L);
  for (std::size_t m = 0; m < L; ++m) umargs[m].resize(uniq[m].events.size());
  for (std::size_t lo = 0; lo < pool.size(); lo += L) {
    const std::size_t lanes = std::min(L, pool.size() - lo);
    std::vector<int> lane_map(lanes);
    std::vector<std::vector<ErrorEvent>> lane_events(lanes);
    for (std::size_t j = 0; j < lanes; ++j) {
      const Traj& traj = pool[lo + j];
      lane_map[j] = static_cast<int>(traj.member);
      lane_events[j] = uniq[traj.member].events[traj.u];
    }
    const std::size_t g0 = pool[lo].site + 1;
    replay_group_marginals(
        clean.plan(), g0, lane_events, output_qubits, options.precision,
        options.float_drift_budget, ws,
        [&](auto& bsv) { clean.load_states_at(g0, lane_map, bsv); });
    for (std::size_t j = 0; j < lanes; ++j)
      umargs[pool[lo + j].member][pool[lo + j].u] = ws.margs[j];
  }

  const std::vector<std::vector<double>> deltas =
      delta_log_odds_per_rate(rate_errors, p);
  const double min_ess = options.min_ess_fraction * static_cast<double>(T);
  const int fallback_lanes =
      std::min<int>(clean.lanes(), BatchedStateVector::kMaxLanes);
  std::vector<std::vector<std::vector<double>>> out(
      R, std::vector<std::vector<double>>(L));
  for (std::size_t r = 0; r < R; ++r) {
    const double w0 = rate_errors[r].clean_probability();
    for (std::size_t m = 0; m < L; ++m) {
      const RateWeights rw = reweight(uniq[m], deltas[r]);
      if (r != p) note_ess(stats, rw.ess / static_cast<double>(T));
      if (r != p && rw.ess < min_ess) {
        // Weight degeneracy: re-estimate this column from its own stream,
        // with the per-rate estimator's trajectories, in groups of this
        // member only, each seeded from the batched checkpoints like the
        // pooled groups above. Its groups (so its resume gates) differ from
        // the pooled per-rate estimator's, so the two agree to replay
        // rounding. Pooling fallback columns across members was slower in
        // a prototype: each member's data sits in its own tiles.
        if (stats) {
          ++stats->fallback_columns;
          stats->fallback_trajectories += T;
        }
        out[r][m] = estimate_channel_marginal_batched(
            clean, static_cast<int>(m), rate_errors[r], output_qubits, eopt,
            fallback_lanes, rngs[r][m]);
        continue;
      }
      out[r][m] = blend_weighted(ideals[m], w0, rw, umargs[m]);
    }
  }
  return out;
}

std::vector<std::uint64_t> sample_shot_counts(
    const std::vector<double>& distribution, std::uint64_t shots,
    Pcg64& rng) {
  return multinomial(rng, shots, distribution);
}

std::vector<std::uint64_t> sample_counts_per_shot(
    const CleanRun& clean, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, std::uint64_t shots, Pcg64& rng,
    const ReadoutError& readout) {
  const std::vector<double> ideal = clean.ideal_marginal(output_qubits);
  const int bits = static_cast<int>(output_qubits.size());
  std::vector<std::uint64_t> counts(ideal.size(), 0);

  // Clean shots all draw from the ideal marginal: build its cumulative
  // table once and binary-search per shot. Noisy shots get a fresh
  // single-draw sampler for their own trajectory's marginal.
  const CdfSampler ideal_sampler(ideal);
  // Flip each measured bit through the confusion matrix.
  auto misread = [&rng, &readout, bits](std::size_t v) {
    if (!readout.enabled()) return v;
    for (int b = 0; b < bits; ++b) {
      const bool one = (v >> b) & 1u;
      const double flip = one ? readout.p10 : readout.p01;
      if (flip > 0.0 && rng.bernoulli(flip)) v ^= std::size_t{1} << b;
    }
    return v;
  };

  for (std::uint64_t s = 0; s < shots; ++s) {
    const std::vector<ErrorEvent> events = errors.sample(rng);
    if (events.empty()) {
      ++counts[misread(ideal_sampler.draw(rng))];
      continue;
    }
    const StateVector sv = run_trajectory(clean, events);
    const CdfSampler sampler(sv.marginal_probabilities(output_qubits));
    ++counts[misread(sampler.draw(rng))];
  }
  return counts;
}

}  // namespace qfab
