#include "noise/estimator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
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
/// per-lane output marginals in ws.margs. Lane j starts from member
/// lane_map[j]'s ideal state after g0 gates, loaded from the batched
/// checkpoints (BatchedCleanRun::load_states_at).
///
/// Float32 groups run the drift sentinel afterwards: every lane's norm² is
/// the sum of its marginal, so a lane that drifted from 1 beyond the
/// budget (or went non-finite) is detected without an extra pass. A
/// tripped sentinel re-replays the whole group in double — bit-for-bit the
/// double path for these trajectories — and bumps the process-wide
/// fallback counter. Surviving float32 marginals are normalized per lane:
/// the residual drift is pure replay rounding, and normalizing keeps every
/// downstream simplex invariant at double tolerances.
void replay_group_marginals(const BatchedCleanRun& clean, std::size_t g0,
                            const std::vector<int>& lane_map,
                            const std::vector<std::vector<ErrorEvent>>& events,
                            const std::vector<int>& output_qubits,
                            Precision precision, double drift_budget,
                            ReplayWorkspace& ws) {
  if (precision == Precision::kFloat32) {
    clean.load_states_at(g0, lane_map, ws.bsf);
    run_trajectories_batched(clean.plan(), ws.bsf, g0, events);
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
  clean.load_states_at(g0, lane_map, ws.bsv);
  run_trajectories_batched(clean.plan(), ws.bsv, g0, events);
  ws.bsv.all_lane_marginal_probabilities(output_qubits, ws.margs, ws.acc);
}

/// One trajectory of a pooled replay: the member whose checkpoints seed its
/// lane, and its event list (owned by the caller).
struct PooledTrajectory {
  int member;
  const std::vector<ErrorEvent>* events;
};

/// Replay a pool of trajectories `width` lanes at a time and return each
/// one's output marginal at its input position. The pool is stable-sorted
/// by first-error site, so the lanes of a group share (almost) all of their
/// ideal prefix, whichever members they came from, and their injection
/// sites cluster into few fused ops. Scalar run_trajectory resumes at
/// first_gate_index + 1; a group resumes at its earliest such site (the
/// first of its band) and its later lanes replay the few extra ideal gates
/// batched. The fused walk replays each lane with exactly the decomposition
/// its trajectory would get solo from that resume gate (see
/// run_trajectories_batched), so only the gate varies with the packing and
/// a marginal depends on it only to replay rounding.
std::vector<std::vector<double>> replay_pooled(
    const BatchedCleanRun& clean, const std::vector<PooledTrajectory>& pool,
    std::size_t width, const std::vector<int>& output_qubits,
    Precision precision, double drift_budget) {
  auto site = [&pool](std::size_t k) {
    return pool[k].events->front().gate_index;
  };
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return site(a) < site(b);
                   });

  ReplayWorkspace& ws = replay_workspace();
  std::vector<std::vector<double>> margs(pool.size());
  for (std::size_t lo = 0; lo < order.size(); lo += width) {
    const std::size_t lanes = std::min(width, order.size() - lo);
    std::vector<int> lane_map(lanes);
    std::vector<std::vector<ErrorEvent>> lane_events(lanes);
    for (std::size_t j = 0; j < lanes; ++j) {
      const PooledTrajectory& traj = pool[order[lo + j]];
      lane_map[j] = traj.member;
      lane_events[j] = *traj.events;
    }
    replay_group_marginals(clean, site(order[lo]) + 1, lane_map, lane_events,
                           output_qubits, precision, drift_budget, ws);
    for (std::size_t j = 0; j < lanes; ++j) margs[order[lo + j]] = ws.margs[j];
  }
  return margs;
}

/// The stratified estimate of each listed member from its own stream:
/// p̂ = w0·ideal + (1−w0)·mean of T trajectory marginals. Every member's
/// event lists are pre-sampled sequentially from rngs[i], so each stream
/// is consumed exactly as the scalar estimator consumes it, whatever the
/// packing. All members' trajectories then replay `width` lanes at a time
/// in one pool, and each member's marginals are accumulated in sample
/// order, so the estimate does not depend on the packing beyond replay
/// rounding.
std::vector<std::vector<double>> pooled_stratified(
    const BatchedCleanRun& clean, const std::vector<int>& members,
    const ErrorLocations& errors, const std::vector<int>& output_qubits,
    const EstimatorOptions& options, std::size_t width,
    const std::vector<Pcg64*>& rngs) {
  std::vector<std::vector<double>> out(members.size());
  for (std::size_t i = 0; i < members.size(); ++i)
    out[i] = clean.lane_ideal_marginal(members[i], output_qubits);
  const double w0 = errors.clean_probability();
  if (errors.noisy_gate_count() == 0 || w0 >= 1.0) return out;
  QFAB_CHECK(options.error_trajectories >= 1);
  const std::size_t T = static_cast<std::size_t>(options.error_trajectories);

  std::vector<std::vector<ErrorEvent>> events(members.size() * T);
  std::vector<PooledTrajectory> pool(events.size());
  for (std::size_t i = 0; i < members.size(); ++i)
    for (std::size_t t = 0; t < T; ++t) {
      const std::size_t k = i * T + t;
      events[k] = errors.sample_at_least_one(*rngs[i]);
      pool[k] = PooledTrajectory{members[i], &events[k]};
    }
  const std::vector<std::vector<double>> margs =
      replay_pooled(clean, pool, width, output_qubits, options.precision,
                    options.float_drift_budget);

  const double scale = (1.0 - w0) / static_cast<double>(T);
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::vector<double> err_mean(out[i].size(), 0.0);
    for (std::size_t t = i * T; t < (i + 1) * T; ++t)
      for (std::size_t b = 0; b < err_mean.size(); ++b)
        err_mean[b] += margs[t][b];
    for (std::size_t b = 0; b < out[i].size(); ++b)
      out[i][b] = w0 * out[i][b] + scale * err_mean[b];
  }
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
};

/// Self-normalized importance weights of the unique trajectories for one
/// rate: they sum to 1 over uniques (multiplicity folded in). `ess` is in
/// trajectory units.
struct RateWeights {
  std::vector<double> w;
  double ess = 0.0;
};

std::uint64_t hash_fired(std::uint64_t h,
                         const std::vector<std::uint32_t>& fired) {
  for (std::uint32_t f : fired) {
    h ^= f;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The sharing policy of one rate cluster, which both shared estimators
/// follow: which rate proposes the trajectories, how the proposal set is
/// deduplicated and reweighted to every rate, and which columns the ESS
/// guard sends back to per-rate sampling. It also keeps the cluster's
/// SharedEstimateStats. `members` is the number of estimates made per rate
/// (the lanes of a batched group; 1 for a CleanRun).
class ClusterSharing {
 public:
  ClusterSharing(const std::vector<ErrorLocations>& rate_errors,
                 const SharedEstimatorOptions& options, std::size_t members,
                 SharedEstimateStats* stats)
      : rate_errors_(rate_errors),
        T_(options.error_trajectories),
        min_ess_(options.min_ess_fraction * static_cast<double>(T_)),
        stats_(stats) {
    const std::size_t R = rate_errors.size();
    QFAB_CHECK(R >= 1);
    QFAB_CHECK(T_ >= 1);
    if (stats_) stats_->rate_columns += static_cast<long>(R * members);
    if (R == 1) {
      if (stats_ && rate_errors[0].noisy_gate_count() > 0) {
        stats_->proposal_trajectories += static_cast<long>(members) * T_;
        stats_->unique_trajectories += static_cast<long>(members) * T_;
      }
      return;
    }
    // Proposal = the member with the largest expected event count: heavier
    // trajectories downweight cleanly, while a light proposal starves the
    // heavy columns of multi-event trajectories.
    for (std::size_t r = 1; r < R; ++r)
      if (rate_errors[r].expected_events() >
          rate_errors[proposal_].expected_events())
        proposal_ = r;
    if (noiseless()) return;
    const ErrorLocations& prop = rate_errors[proposal_];
    for (std::size_t r = 0; r < R; ++r)
      QFAB_CHECK_MSG(prop.reweightable_to(rate_errors[r]),
                     "shared-trajectory cluster rates are not reweightable");
    // Per-location log-odds deltas from the proposal to each rate (the
    // proposal's own row is all zeros, so its weights are uniform).
    deltas_.resize(R);
    for (std::size_t r = 0; r < R; ++r) {
      deltas_[r].resize(prop.location_count());
      for (std::size_t i = 0; i < prop.location_count(); ++i)
        deltas_[r][i] =
            rate_errors[r].location_log_odds(i) - prop.location_log_odds(i);
    }
  }

  /// A single-rate cluster has nothing to share: the caller delegates to
  /// the per-rate estimator (an exact stream-for-stream match).
  bool delegates() const { return rate_errors_.size() == 1; }

  /// The proposal fires nowhere, so every column is the ideal marginal.
  bool noiseless() const {
    return rate_errors_[proposal_].noisy_gate_count() == 0;
  }

  std::size_t proposal() const { return proposal_; }

  /// T trajectories from the proposal's stream `rng`, consumed exactly as
  /// the per-rate estimator consumes it (T sequential sample_at_least_one
  /// calls), deduplicated by (fired sites, event list).
  UniqueTrajectories sample(Pcg64& rng) {
    UniqueTrajectories uniq;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
    std::vector<std::uint32_t> fired;
    for (int t = 0; t < T_; ++t) {
      std::vector<ErrorEvent> events =
          rate_errors_[proposal_].sample_at_least_one(rng, &fired);
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
    if (stats_) {
      stats_->proposal_trajectories += T_;
      stats_->unique_trajectories += static_cast<long>(uniq.events.size());
    }
    return uniq;
  }

  /// The weights of rate column `r` over one member's unique trajectories,
  /// or nothing when the column's ESS falls below the guard (weight
  /// degeneracy): the caller then re-estimates the column per-rate from its
  /// own, still untouched, stream. log w_u = Σ_{i ∈ fired_u} delta_i; the
  /// ESS (Σ_t w_t)² / Σ_t w_t² over the T originals is computed from the
  /// uniques as S² / Σ_u mult_u·e_u² with e_u = exp(log w_u − max) and
  /// S = Σ_u mult_u·e_u. The proposal column never falls back.
  std::optional<RateWeights> weights(std::size_t r,
                                     const UniqueTrajectories& uniq) {
    const std::size_t U = uniq.events.size();
    RateWeights rw;
    rw.w.resize(U);
    double max_ell = -std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < U; ++u) {
      double ell = 0.0;
      for (std::uint32_t f : uniq.fired[u]) ell += deltas_[r][f];
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
    if (r == proposal_) return rw;
    const double ess_fraction = rw.ess / static_cast<double>(T_);
    if (stats_) {
      stats_->ess_fraction_min =
          std::min(stats_->ess_fraction_min, ess_fraction);
      stats_->ess_fraction_sum += ess_fraction;
      ++stats_->ess_fraction_count;
    }
    if (!(rw.ess < min_ess_)) return rw;
    if (stats_) {
      ++stats_->fallback_columns;
      stats_->fallback_trajectories += T_;
    }
    return std::nullopt;
  }

 private:
  const std::vector<ErrorLocations>& rate_errors_;
  const int T_;
  const double min_ess_;
  SharedEstimateStats* const stats_;
  std::size_t proposal_ = 0;
  std::vector<std::vector<double>> deltas_;  // [rate][location]
};

/// Blend one rate column: w0·ideal + (1−w0)·Σ_u w_u·margs[first + u].
std::vector<double> blend_weighted(const std::vector<double>& ideal, double w0,
                                   const RateWeights& rw,
                                   const std::vector<std::vector<double>>& margs,
                                   std::size_t first) {
  std::vector<double> out(ideal.size());
  for (std::size_t b = 0; b < out.size(); ++b) out[b] = w0 * ideal[b];
  const double err_w = 1.0 - w0;
  for (std::size_t u = 0; u < rw.w.size(); ++u) {
    const double wu = err_w * rw.w[u];
    const std::vector<double>& m = margs[first + u];
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
    const BatchedCleanRun& clean, int lane, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    int max_lanes, Pcg64& rng) {
  QFAB_CHECK(lane >= 0 && lane < clean.lanes());
  QFAB_CHECK(max_lanes >= 1 && max_lanes <= BatchedStateVector::kMaxLanes);
  // Every lane of every group loads `lane`'s state.
  return pooled_stratified(clean, {lane}, errors, output_qubits, options,
                           static_cast<std::size_t>(max_lanes), {&rng})
      .front();
}

std::vector<std::vector<double>> estimate_channel_marginals_batched(
    const BatchedCleanRun& clean, const ErrorLocations& errors,
    const std::vector<int>& output_qubits, const EstimatorOptions& options,
    std::vector<Pcg64>& rngs) {
  const std::size_t L = static_cast<std::size_t>(clean.lanes());
  QFAB_CHECK(rngs.size() == L);
  std::vector<int> members(L);
  std::iota(members.begin(), members.end(), 0);
  std::vector<Pcg64*> streams;
  for (Pcg64& rng : rngs) streams.push_back(&rng);
  return pooled_stratified(clean, members, errors, output_qubits, options, L,
                           streams);
}

std::vector<std::vector<double>> estimate_channel_marginal_shared(
    const CleanRun& clean, const std::vector<ErrorLocations>& rate_errors,
    const std::vector<int>& output_qubits,
    const SharedEstimatorOptions& options, std::vector<Pcg64>& rngs,
    SharedEstimateStats* stats) {
  const std::size_t R = rate_errors.size();
  QFAB_CHECK(rngs.size() == R);
  ClusterSharing sharing(rate_errors, options, 1, stats);
  const EstimatorOptions eopt{options.error_trajectories};
  auto per_rate = [&](std::size_t r) {
    return estimate_channel_marginal(clean, rate_errors[r], output_qubits,
                                     eopt, rngs[r]);
  };
  if (sharing.delegates()) return {per_rate(0)};

  const std::vector<double> ideal = clean.ideal_marginal(output_qubits);
  if (sharing.noiseless()) return std::vector<std::vector<double>>(R, ideal);
  const UniqueTrajectories uniq = sharing.sample(rngs[sharing.proposal()]);

  // Replay each unique trajectory once.
  ReplayWorkspace& ws = replay_workspace();
  std::vector<std::vector<double>> umargs(uniq.events.size());
  for (std::size_t u = 0; u < umargs.size(); ++u) {
    run_trajectory(clean, uniq.events[u], ws.sv);
    ws.sv.marginal_probabilities(output_qubits, umargs[u]);
  }

  std::vector<std::vector<double>> out(R);
  for (std::size_t r = 0; r < R; ++r) {
    const std::optional<RateWeights> rw = sharing.weights(r, uniq);
    // An ESS fallback column is exactly the call the per-rate path makes.
    out[r] = rw ? blend_weighted(ideal, rate_errors[r].clean_probability(),
                                 *rw, umargs, 0)
                : per_rate(r);
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
  QFAB_CHECK(rngs.size() == R);
  for (const std::vector<Pcg64>& r : rngs) QFAB_CHECK(r.size() == L);
  ClusterSharing sharing(rate_errors, options, L, stats);
  const EstimatorOptions eopt{options.error_trajectories, options.precision,
                              options.float_drift_budget};
  if (sharing.delegates()) {
    std::vector<std::vector<std::vector<double>>> out(1);
    out[0] = estimate_channel_marginals_batched(clean, rate_errors[0],
                                                output_qubits, eopt, rngs[0]);
    return out;
  }

  std::vector<std::vector<double>> ideals(L);
  for (std::size_t m = 0; m < L; ++m)
    ideals[m] = clean.lane_ideal_marginal(static_cast<int>(m), output_qubits);
  if (sharing.noiseless())
    return std::vector<std::vector<std::vector<double>>>(R, ideals);

  // Member-major sampling from the proposal streams (the order the pooled
  // per-rate estimator consumes them), each member deduplicated on its own;
  // then every member's unique trajectories replay in one pool.
  std::vector<UniqueTrajectories> uniq;
  uniq.reserve(L);
  for (std::size_t m = 0; m < L; ++m)
    uniq.push_back(sharing.sample(rngs[sharing.proposal()][m]));
  std::vector<PooledTrajectory> pool;
  std::vector<std::size_t> first(L);  // member m's first pool position
  for (std::size_t m = 0; m < L; ++m) {
    first[m] = pool.size();
    for (const std::vector<ErrorEvent>& events : uniq[m].events)
      pool.push_back(PooledTrajectory{static_cast<int>(m), &events});
  }
  const std::vector<std::vector<double>> umargs =
      replay_pooled(clean, pool, L, output_qubits, options.precision,
                    options.float_drift_budget);

  const int fallback_lanes =
      std::min<int>(clean.lanes(), BatchedStateVector::kMaxLanes);
  std::vector<std::vector<std::vector<double>>> out(
      R, std::vector<std::vector<double>>(L));
  for (std::size_t r = 0; r < R; ++r) {
    const double w0 = rate_errors[r].clean_probability();
    for (std::size_t m = 0; m < L; ++m) {
      const std::optional<RateWeights> rw = sharing.weights(r, uniq[m]);
      if (rw) {
        out[r][m] = blend_weighted(ideals[m], w0, *rw, umargs, first[m]);
        continue;
      }
      // ESS fallback: re-estimate this column from its own stream, with the
      // per-rate estimator's trajectories, in groups of this member only,
      // each seeded from the batched checkpoints like the pooled groups.
      // Its groups (so its resume gates) differ from the pooled per-rate
      // estimator's, so the two agree to replay rounding. Pooling fallback
      // columns across members was slower in a prototype: each member's
      // data sits in its own tiles.
      out[r][m] = estimate_channel_marginal_batched(
          clean, static_cast<int>(m), rate_errors[r], output_qubits, eopt,
          fallback_lanes, rngs[r][m]);
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
