#include "noise/trajectory.h"

#include <algorithm>
#include <cmath>

namespace qfab {

std::uint64_t hash_events(const std::vector<ErrorEvent>& events) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const ErrorEvent& ev : events) {
    mix(ev.gate_index);
    mix(static_cast<std::uint64_t>(ev.pauli0) |
        (static_cast<std::uint64_t>(ev.pauli1) << 2));
  }
  return h;
}

CleanRun::CleanRun(const QuantumCircuit& circuit, StateVector initial,
                   std::size_t checkpoint_interval)
    : circuit_(circuit), interval_(checkpoint_interval) {
  QFAB_CHECK(circuit.num_qubits() == initial.num_qubits());
  QFAB_CHECK(interval_ >= 1);
  const std::size_t total = circuit.gates().size();
  checkpoints_.reserve(total / interval_ + 2);
  checkpoints_.push_back(initial);  // after 0 gates
  StateVector sv = std::move(initial);
  std::size_t applied = 0;
  while (applied < total) {
    const std::size_t next = std::min(applied + interval_, total);
    sv.apply_circuit_range(circuit_, applied, next);
    applied = next;
    checkpoints_.push_back(sv);
  }
  // When total is a multiple of interval the final state is the last
  // checkpoint; otherwise the loop above already pushed it.
}

std::vector<double> CleanRun::ideal_marginal(
    const std::vector<int>& qubits) const {
  return final_state().marginal_probabilities(qubits);
}

StateVector CleanRun::state_at(std::size_t gate_count) const {
  StateVector sv(circuit_.num_qubits());
  state_at(gate_count, sv);
  return sv;
}

void CleanRun::state_at(std::size_t gate_count, StateVector& out) const {
  QFAB_CHECK(gate_count <= circuit_.gates().size());
  const std::size_t k = std::min(gate_count / interval_,
                                 checkpoints_.size() - 1);
  const std::size_t base_gates = std::min(k * interval_, gate_count);
  out = checkpoints_[k];  // vector assignment reuses out's heap storage
  out.apply_circuit_range(circuit_, base_gates, gate_count);
}

ErrorLocations::ErrorLocations(const QuantumCircuit& circuit,
                               const NoiseModel& noise) {
  const auto& gates = circuit.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const double q = noise.error_event_prob(gates[i]);
    QFAB_CHECK(q >= 0.0 && q < 1.0);
    if (q > 0.0) {
      const auto kind = gates[i].arity() == 2 ? Location::Kind::kDepol2q
                                              : Location::Kind::kDepol1q;
      locations_.push_back(Location{i, q, kind, 0, 0.0, 0.0, 0.0});
    }
    if (noise.thermal_enabled()) {
      const PauliProbs t = noise.thermal_probs(gates[i]);
      if (t.total() > 0.0)
        for (int slot = 0; slot < gates[i].arity() && slot < 2; ++slot)
          locations_.push_back(Location{i, t.total(),
                                        Location::Kind::kWeighted, slot,
                                        t.px, t.py, t.pz});
    }
  }
  suffix_clean_.assign(locations_.size() + 1, 1.0);
  for (std::size_t i = locations_.size(); i-- > 0;)
    suffix_clean_[i] = suffix_clean_[i + 1] * (1.0 - locations_[i].prob);
  clean_prob_ = suffix_clean_.empty() ? 1.0 : suffix_clean_[0];
  for (const Location& loc : locations_) expected_events_ += loc.prob;
}

ErrorEvent ErrorLocations::make_event(std::size_t loc, Pcg64& rng) const {
  const Location& l = locations_[loc];
  ErrorEvent ev;
  ev.gate_index = l.gate_index;
  switch (l.kind) {
    case Location::Kind::kDepol2q: {
      // Uniform over the 15 non-identity Pauli pairs.
      const auto code = static_cast<std::uint32_t>(rng.uniform_int(15) + 1);
      ev.pauli0 = static_cast<Pauli>(code & 3u);
      ev.pauli1 = static_cast<Pauli>(code >> 2);
      break;
    }
    case Location::Kind::kDepol1q:
      ev.pauli0 = static_cast<Pauli>(rng.uniform_int(3) + 1);
      break;
    case Location::Kind::kWeighted: {
      const double u = rng.uniform() * (l.wx + l.wy + l.wz);
      Pauli p = Pauli::kZ;
      if (u < l.wx) p = Pauli::kX;
      else if (u < l.wx + l.wy) p = Pauli::kY;
      if (l.slot == 0) ev.pauli0 = p;
      else ev.pauli1 = p;
      break;
    }
  }
  return ev;
}

std::vector<ErrorEvent> ErrorLocations::sample(Pcg64& rng) const {
  std::vector<ErrorEvent> events;
  for (std::size_t i = 0; i < locations_.size(); ++i)
    if (rng.bernoulli(locations_[i].prob)) events.push_back(make_event(i, rng));
  return events;
}

std::vector<ErrorEvent> ErrorLocations::sample_at_least_one(
    Pcg64& rng, std::vector<std::uint32_t>* fired) const {
  QFAB_CHECK_MSG(!locations_.empty() && clean_prob_ < 1.0,
                 "cannot condition on an error with no noisy gates");
  std::vector<ErrorEvent> events;
  if (fired) fired->clear();
  // Sequential conditional Bernoulli: while no event has occurred yet,
  // location i fires with probability q_i / (1 - S_i) where S_i is the
  // probability that all of [i, end) stay clean. Once one event exists the
  // remaining locations are unconditioned.
  bool have_event = false;
  for (std::size_t i = 0; i < locations_.size(); ++i) {
    double p = locations_[i].prob;
    if (!have_event) {
      const double denom = 1.0 - suffix_clean_[i];
      QFAB_CHECK(denom > 0.0);
      p = p / denom;
      // The last location, if still unconditioned, must fire (p -> 1).
      if (p > 1.0) p = 1.0;
    }
    if (rng.bernoulli(p)) {
      events.push_back(make_event(i, rng));
      if (fired) fired->push_back(static_cast<std::uint32_t>(i));
      have_event = true;
    }
  }
  QFAB_CHECK(!events.empty());
  return events;
}

double ErrorLocations::location_log_odds(std::size_t i) const {
  QFAB_CHECK(i < locations_.size());
  const double q = locations_[i].prob;
  return std::log(q) - std::log1p(-q);
}

bool ErrorLocations::reweightable_to(const ErrorLocations& other) const {
  if (locations_.size() != other.locations_.size()) return false;
  for (std::size_t i = 0; i < locations_.size(); ++i) {
    const Location& a = locations_[i];
    const Location& b = other.locations_[i];
    if (a.gate_index != b.gate_index || a.kind != b.kind || a.slot != b.slot)
      return false;
    if (a.prob <= 0.0 || b.prob <= 0.0) return false;
    // The Pauli pick distribution must match so it cancels in the ratio;
    // for depolarizing kinds it is uniform by construction.
    if (a.kind == Location::Kind::kWeighted &&
        (a.wx != b.wx || a.wy != b.wy || a.wz != b.wz))
      return false;
  }
  return true;
}

StateVector run_trajectory(const CleanRun& clean,
                           const std::vector<ErrorEvent>& events) {
  StateVector sv(clean.circuit().num_qubits());
  run_trajectory(clean, events, sv);
  return sv;
}

void run_trajectory(const CleanRun& clean,
                    const std::vector<ErrorEvent>& events, StateVector& out) {
  const QuantumCircuit& qc = clean.circuit();
  const std::size_t total = qc.gates().size();
  if (events.empty()) {
    out = clean.final_state();
    return;
  }
  QFAB_CHECK(std::is_sorted(events.begin(), events.end(),
                            [](const ErrorEvent& a, const ErrorEvent& b) {
                              return a.gate_index < b.gate_index;
                            }));
  // Resume the ideal run just after the first faulty gate.
  clean.state_at(events.front().gate_index + 1, out);
  std::size_t applied = events.front().gate_index + 1;
  for (std::size_t e = 0; e < events.size(); ++e) {
    const ErrorEvent& ev = events[e];
    QFAB_CHECK(ev.gate_index < total);
    // Replay ideal gates up to and including the faulty one.
    if (ev.gate_index + 1 > applied) {
      out.apply_circuit_range(qc, applied, ev.gate_index + 1);
      applied = ev.gate_index + 1;
    }
    const Gate& g = qc.gates()[ev.gate_index];
    if (ev.pauli0 != Pauli::kI) out.apply_pauli(ev.pauli0, g.qubits[0]);
    if (ev.pauli1 != Pauli::kI) {
      QFAB_CHECK(g.arity() >= 2);
      out.apply_pauli(ev.pauli1, g.qubits[1]);
    }
  }
  out.apply_circuit_range(qc, applied, total);
}

namespace {

/// Each dense state's nonzero terms, checked against the plan's width.
std::vector<std::vector<BasisTerm>> lane_terms(
    const FusedPlan* plan, const std::vector<StateVector>& states) {
  QFAB_CHECK(plan != nullptr);
  std::vector<std::vector<BasisTerm>> terms;
  terms.reserve(states.size());
  for (const StateVector& sv : states) {
    QFAB_CHECK(sv.num_qubits() == plan->circuit().num_qubits());
    terms.push_back(nonzero_terms(sv));
  }
  return terms;
}

}  // namespace

BatchedCleanRun::BatchedCleanRun(std::shared_ptr<const FusedPlan> plan,
                                 const std::vector<StateVector>& initials,
                                 std::size_t checkpoint_interval)
    : BatchedCleanRun(plan, lane_terms(plan.get(), initials),
                      checkpoint_interval) {}

BatchedCleanRun::BatchedCleanRun(
    std::shared_ptr<const FusedPlan> plan,
    const std::vector<std::vector<BasisTerm>>& initials,
    std::size_t checkpoint_interval)
    : plan_(std::move(plan)), interval_(checkpoint_interval) {
  QFAB_CHECK(plan_ != nullptr);
  QFAB_CHECK(!initials.empty() &&
             initials.size() <=
                 static_cast<std::size_t>(BatchedStateVector::kMaxLanes));
  QFAB_CHECK(interval_ >= 1);
  const int nq = plan_->circuit().num_qubits();
  const int lanes = static_cast<int>(initials.size());
  const std::size_t total = plan_->gate_count();
  checkpoints_.reserve(total / interval_ + 2);
  boundaries_.reserve(total / interval_ + 2);
  // The ideal run advances one vector in the plan's row layout; each
  // checkpoint, the final state too, keeps its live tiles only. The full
  // planes are one per thread and reset from run to run: planes freed per
  // run come back from the allocator with other runs' rows resident, so
  // the process's resident set would depend on how it reuses them.
  thread_local BatchedStateVector cur(1, 1);
  cur.reset(nq, lanes, plan_->row_layout());
  for (std::size_t l = 0; l < initials.size(); ++l)
    cur.set_lane(static_cast<int>(l), initials[l]);
  boundaries_.push_back(0);
  std::size_t applied = 0;
  while (applied < total) {
    std::size_t next = std::min(applied + interval_, total);
    if (next < total) {
      // Snap forward to the next fused-op boundary: an interval boundary
      // inside an op would force a partial-op pass both here and on every
      // resume from the checkpoint.
      const FusedOp& op = plan_->ops()[plan_->op_of_gate(next)];
      if (op.gate_begin != next) next = std::min(op.gate_end, total);
    }
    checkpoints_.push_back(cur.packed());
    apply_plan_range(*plan_, cur, applied, next);
    applied = next;
    boundaries_.push_back(applied);
  }
  checkpoints_.push_back(cur.packed());
}

std::vector<double> BatchedCleanRun::lane_ideal_marginal(
    int lane, const std::vector<int>& qubits) const {
  return checkpoints_.back().lane_marginal_probabilities(lane, qubits);
}

std::size_t BatchedCleanRun::checkpoint_before(std::size_t gate_count) const {
  const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(),
                                   gate_count);
  return static_cast<std::size_t>(it - boundaries_.begin()) - 1;
}

template <typename Real>
void BatchedCleanRun::load_states_at(std::size_t gate_count,
                                     const std::vector<int>& lane_map,
                                     BatchedStateVectorT<Real>& out) const {
  QFAB_CHECK(gate_count <= plan_->gate_count());
  const std::size_t k = checkpoint_before(gate_count);
  out.assign_permuted(checkpoints_[k], lane_map);
  apply_plan_range(*plan_, out, boundaries_[k], gate_count);
}

template void BatchedCleanRun::load_states_at<double>(
    std::size_t, const std::vector<int>&, BatchedStateVector&) const;
template void BatchedCleanRun::load_states_at<float>(
    std::size_t, const std::vector<int>&, BatchedStateVectorF&) const;

namespace {

/// One merged per-lane Pauli insertion of a batched trajectory group.
struct Injection {
  std::size_t site;  // gate count at which the Pauli lands (index + 1)
  int lane;
  std::size_t gate_index;
  Pauli pauli0, pauli1;
};

/// Merge every lane's events into one ascending injection schedule; the
/// stable sort keeps same-site injections in lane order (the order never
/// matters physically — Paulis on different lanes commute — but it keeps
/// the execution deterministic).
std::vector<Injection> merge_schedule(
    const std::vector<std::vector<ErrorEvent>>& lane_events,
    std::size_t start_gates, std::size_t total) {
  std::vector<Injection> schedule;
  for (std::size_t l = 0; l < lane_events.size(); ++l) {
    QFAB_CHECK(std::is_sorted(lane_events[l].begin(), lane_events[l].end(),
                              [](const ErrorEvent& a, const ErrorEvent& b) {
                                return a.gate_index < b.gate_index;
                              }));
    for (const ErrorEvent& ev : lane_events[l]) {
      QFAB_CHECK(ev.gate_index < total);
      QFAB_CHECK(ev.gate_index + 1 >= start_gates);
      schedule.push_back(Injection{ev.gate_index + 1, static_cast<int>(l),
                                   ev.gate_index, ev.pauli0, ev.pauli1});
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Injection& a, const Injection& b) {
                     return a.site < b.site;
                   });
  return schedule;
}

}  // namespace

template <typename Real>
void run_trajectories_batched(
    const FusedPlan& plan, BatchedStateVectorT<Real>& bsv,
    std::size_t start_gates,
    const std::vector<std::vector<ErrorEvent>>& lane_events) {
  QFAB_CHECK(lane_events.size() == static_cast<std::size_t>(bsv.lanes()));
  // Steps address the vector's rows, and so do the plan's gates: a Pauli
  // lands on the row bit its gate names.
  const auto& gates = plan.circuit().gates();
  const std::size_t total = plan.gate_count();
  const std::vector<Injection> schedule =
      merge_schedule(lane_events, start_gates, total);

  // Fused tile walk over a PER-LANE schedule: the whole replay — shared
  // gate segments, per-lane op slices, and the Paulis between them —
  // flattens into one step sequence, and apply_batch_walk loads each
  // L1-sized amplitude tile once per maximal run instead of once per
  // injection site. Two properties keep the per-trajectory cost flat in
  // the lane count, where one full-vector pass per injection site would
  // grow with the merged schedule length:
  //
  //  * op-interior splits are priced per lane, not per batch: only the
  //    lane whose Pauli lands inside a fused op takes that op as subrange
  //    slices (single-lane spans, run by the kernels' single-lane bodies);
  //    every other lane takes the fused op whole in bystander spans. The
  //    per-trajectory replay cost is therefore flat in the lane count, and
  //    each lane's arithmetic is that of a one-lane walk of its own
  //    trajectory, whichever trajectories share the batch (packing-invariant
  //    bitwise). run_trajectory, the scalar reference, replays gate by gate,
  //    so lanes match it to ~1e-15 in double, not bitwise.
  //  * the walk visits only the tiles a lane's data occupies (see
  //    apply_batch_walk), and in the plan's row layout the operand
  //    registers select tiles, so a replay costs a few tiles, not 2^n rows.
  const int L = bsv.lanes();
  std::vector<BatchWalkStep> steps;
  steps.reserve(plan.op_count() + 4 * schedule.size());
  const auto& ops = plan.ops();
  const auto emit_paulis = [&](const Injection& inj) {
    const Gate& g = gates[inj.gate_index];
    if (inj.pauli0 != Pauli::kI)
      steps.push_back(
          BatchWalkStep::pauli_step(inj.lane, inj.pauli0, g.qubits[0]));
    if (inj.pauli1 != Pauli::kI) {
      QFAB_CHECK(g.arity() >= 2);
      steps.push_back(
          BatchWalkStep::pauli_step(inj.lane, inj.pauli1, g.qubits[1]));
    }
  };

  std::size_t applied = start_gates;
  std::size_t si = 0;
  // Paulis at the resume point precede every replayed gate.
  while (si < schedule.size() && schedule[si].site <= applied) {
    emit_paulis(schedule[si]);
    ++si;
  }
  std::vector<std::vector<std::size_t>> lane_injs(
      static_cast<std::size_t>(L));
  while (applied < total) {
    if (si >= schedule.size()) {  // no more injections: clean tail
      append_range_steps(plan, applied, total, 0, L, steps);
      applied = total;
      break;
    }
    const std::size_t site = schedule[si].site;
    // Is the next site interior to a fused op, or on an op boundary?
    const FusedOp* host =
        site < total ? &ops[plan.op_of_gate(site)] : nullptr;
    if (host == nullptr || host->gate_begin == site) {
      // Boundary site: shared clean segment up to it, then its Paulis in
      // schedule order.
      append_range_steps(plan, applied, site, 0, L, steps);
      applied = site;
      while (si < schedule.size() && schedule[si].site == applied) {
        emit_paulis(schedule[si]);
        ++si;
      }
      continue;
    }
    // Interior site: shared clean segment up to its host op, then the
    // host op decomposed per lane.
    const std::size_t he = host->gate_end;
    const std::size_t op_lo = std::max(host->gate_begin, applied);
    if (op_lo > applied) {
      append_range_steps(plan, applied, op_lo, 0, L, steps);
      applied = op_lo;
    }
    std::size_t sj = si;
    while (sj < schedule.size() && schedule[sj].site < he) ++sj;
    for (auto& v : lane_injs) v.clear();
    for (std::size_t k = si; k < sj; ++k)
      lane_injs[static_cast<std::size_t>(schedule[k].lane)].push_back(k);
    // Bystander lanes (no split inside this op) take it fused, in
    // maximal contiguous spans.
    int seg = 0;
    for (int l = 0; l <= L; ++l) {
      const bool event_lane =
          l < L && !lane_injs[static_cast<std::size_t>(l)].empty();
      if (l == L || event_lane) {
        if (l > seg)
          append_range_steps(plan, applied, he, seg, l - seg, steps);
        seg = l + 1;
      }
    }
    // Each event lane replays the op as its own slices with its Paulis
    // interleaved — what a one-lane walk of that lane's sites would run.
    for (int l = 0; l < L; ++l) {
      const auto& inj_idx = lane_injs[static_cast<std::size_t>(l)];
      if (inj_idx.empty()) continue;
      std::size_t a = applied;
      for (const std::size_t k : inj_idx) {
        if (schedule[k].site > a) {
          append_range_steps(plan, a, schedule[k].site, l, 1, steps);
          a = schedule[k].site;
        }
        emit_paulis(schedule[k]);
      }
      if (a < he) append_range_steps(plan, a, he, l, 1, steps);
    }
    si = sj;
    applied = he;
  }
  // Site `total` (an error on the last gate, whose Paulis land after the
  // whole circuit) is reached without a boundary visit when the final
  // fused op ends at `total` and the interior branch above consumed it:
  // that branch only collects sites < gate_end, so flush the remainder.
  for (; si < schedule.size(); ++si) {
    QFAB_CHECK(schedule[si].site == total);
    emit_paulis(schedule[si]);
  }
  apply_batch_walk(plan, bsv, steps.data(), steps.size());
  detail::maybe_inject_nan(bsv, start_gates, total);
}

template void run_trajectories_batched<double>(
    const FusedPlan&, BatchedStateVector&, std::size_t,
    const std::vector<std::vector<ErrorEvent>>&);
template void run_trajectories_batched<float>(
    const FusedPlan&, BatchedStateVectorF&, std::size_t,
    const std::vector<std::vector<ErrorEvent>>&);

}  // namespace qfab
