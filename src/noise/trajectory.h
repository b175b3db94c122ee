// Pauli-trajectory machinery.
//
// A *trajectory* is one stochastic unraveling of the depolarizing channel:
// the ideal circuit with a sampled set of Pauli insertions (each directly
// after its gate, matching Qiskit Aer's gate-error composition). Averaging
// |ψ|² over trajectories reproduces the channel's output distribution.
//
// CleanRun caches the ideal evolution with periodic state checkpoints so a
// trajectory only replays gates from its first error onward — on the
// paper's circuits that halves the per-trajectory cost on average.
//
// CleanRun and run_trajectory are the scalar reference: all their replay
// (checkpoint construction, state_at, trajectory resumption) runs gate by
// gate on the StateVector kernels (StateVector::apply_circuit_range), so a
// reference result depends on no fused op. BatchedCleanRun and
// run_trajectories_batched run the same trajectories on the batched walk
// over a compiled FusedPlan (sim/fusion.h, sim/batch.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "noise/noise_model.h"
#include "sim/batch.h"
#include "sim/fusion.h"
#include "sim/statevector.h"

namespace qfab {

/// One sampled Pauli insertion. For 1q gates pauli0 hits the gate's qubit;
/// for CX, pauli0 hits the target (qubits[0]) and pauli1 the control.
struct ErrorEvent {
  std::size_t gate_index = 0;  // error applied after this gate
  Pauli pauli0 = Pauli::kI;
  Pauli pauli1 = Pauli::kI;

  friend bool operator==(const ErrorEvent&, const ErrorEvent&) = default;
};

/// FNV-1a hash of an event list (gate sites and Pauli choices): the
/// trajectory-dedup key used by the shared-trajectory estimator. Confirm
/// collisions with element-wise equality before merging.
std::uint64_t hash_events(const std::vector<ErrorEvent>& events);

/// The ideal run of a (transpiled) circuit from a fixed initial state,
/// with checkpoints every `checkpoint_interval` gates.
class CleanRun {
 public:
  /// Holds a copy of `circuit`.
  CleanRun(const QuantumCircuit& circuit, StateVector initial,
           std::size_t checkpoint_interval = 64);

  const QuantumCircuit& circuit() const { return circuit_; }
  /// State after the full circuit (global phase *not* applied — it never
  /// affects probabilities).
  const StateVector& final_state() const { return checkpoints_.back(); }
  /// Ideal output distribution of `qubits`.
  std::vector<double> ideal_marginal(const std::vector<int>& qubits) const;

  /// State after the first `gate_count` gates (copies the nearest
  /// checkpoint and replays the remainder).
  StateVector state_at(std::size_t gate_count) const;
  /// In-place form of state_at: assigns into `out` (redimensioning it,
  /// reusing its storage when sizes match) instead of constructing a
  /// fresh vector.
  void state_at(std::size_t gate_count, StateVector& out) const;

 private:
  QuantumCircuit circuit_;
  std::size_t interval_;
  std::vector<StateVector> checkpoints_;  // checkpoints_[k] = after k*interval
                                          // gates; last = final state
};

/// Per-gate error-event probabilities of a circuit under a noise model,
/// with samplers for trajectory generation.
class ErrorLocations {
 public:
  ErrorLocations(const QuantumCircuit& circuit, const NoiseModel& noise);

  /// Π (1 - q_i): probability a shot sees no error anywhere.
  double clean_probability() const { return clean_prob_; }
  /// Number of gates with q_i > 0.
  std::size_t noisy_gate_count() const { return locations_.size(); }
  /// Expected number of error events per shot.
  double expected_events() const { return expected_events_; }

  /// Unconditional sample (may be empty), in gate order.
  std::vector<ErrorEvent> sample(Pcg64& rng) const;
  /// Sample conditioned on at least one event (exact sequential method).
  /// When `fired` is non-null it receives the index of the location behind
  /// each returned event (aligned with the result); the rng stream is
  /// consumed identically either way.
  std::vector<ErrorEvent> sample_at_least_one(
      Pcg64& rng, std::vector<std::uint32_t>* fired = nullptr) const;

  /// Number of error locations (noisy gate × slot entries).
  std::size_t location_count() const { return locations_.size(); }
  /// log(q_i / (1 - q_i)): the per-site log odds. A trajectory sampled
  /// from a proposal location set reweights to a target set by
  /// exp(Σ_{i fired} [target odds_i − proposal odds_i]) up to a constant
  /// that cancels under self-normalization (see estimator.h).
  double location_log_odds(std::size_t i) const;

  /// Whether trajectories sampled from this location set can be
  /// importance-reweighted to `other` by per-site event probabilities
  /// alone: same gate sites, kinds, slots, and within-location Pauli
  /// distributions (the Pauli pick factors then cancel in the importance
  /// ratio), with every event probability positive on both sides.
  bool reweightable_to(const ErrorLocations& other) const;

 private:
  ErrorEvent make_event(std::size_t loc, Pcg64& rng) const;

  struct Location {
    std::size_t gate_index;
    double prob;
    enum class Kind {
      kDepol1q,   // uniform over {X, Y, Z} on the gate's qubit
      kDepol2q,   // uniform over the 15 non-identity Pauli pairs
      kWeighted,  // weighted 1q Pauli on gate qubit `slot` (thermal PTA)
    } kind;
    int slot;                  // kWeighted: 0 = target, 1 = control
    double wx, wy, wz;         // kWeighted: relative Pauli weights
  };
  std::vector<Location> locations_;
  std::vector<double> suffix_clean_;  // Π_{j>=i} (1 - q_j)
  double clean_prob_ = 1.0;
  double expected_events_ = 0.0;
};

/// Run one trajectory: replay `clean` from the first event, injecting all
/// events. Events must be sorted by gate_index. Returns the final state.
StateVector run_trajectory(const CleanRun& clean,
                           const std::vector<ErrorEvent>& events);

/// In-place form of run_trajectory: writes the trajectory's final state
/// into `out`, reusing its storage — the scalar estimator's per-trajectory
/// scratch path (no state-vector allocation per trajectory).
void run_trajectory(const CleanRun& clean,
                    const std::vector<ErrorEvent>& events, StateVector& out);

/// The ideal runs of one circuit from up to kMaxLanes *different* initial
/// states (a group of operand instances), advanced in lockstep through one
/// shared FusedPlan on the batched engine, in the plan's row layout (see
/// sim/batch.h). Checkpoints are stored batched and packed to their live
/// tiles — a few hundred KiB where the full planes take MiBs. Nothing here
/// holds a lane as a dense 2^n StateVector: lanes start from their nonzero
/// basis terms and resume states load batched (load_states_at).
class BatchedCleanRun {
 public:
  /// initials[l] holds lane l's initial state as its nonzero basis terms
  /// (BatchedStateVectorT::set_lane).
  BatchedCleanRun(std::shared_ptr<const FusedPlan> plan,
                  const std::vector<std::vector<BasisTerm>>& initials,
                  std::size_t checkpoint_interval = 64);
  /// Adapter for dense initial states: forwards their nonzero terms, so
  /// the run is bitwise the one built from those terms.
  BatchedCleanRun(std::shared_ptr<const FusedPlan> plan,
                  const std::vector<StateVector>& initials,
                  std::size_t checkpoint_interval = 64);

  int lanes() const { return checkpoints_.front().lanes(); }
  const FusedPlan& plan() const { return *plan_; }
  const QuantumCircuit& circuit() const { return plan_->circuit(); }

  /// All lanes' final states, batched, without extraction (lane pending
  /// phases not folded in — norms are phase-invariant, which is what the
  /// health sentinels need this for; BatchedStateVectorT::lane_state
  /// extracts one lane with its phase folded in).
  const BatchedStateVector& final_states() const { return checkpoints_.back(); }
  /// The cached ideal run: checkpoints()[k] holds every lane after
  /// boundaries()[k] gates.
  const std::vector<BatchedStateVector>& checkpoints() const {
    return checkpoints_;
  }
  const std::vector<std::size_t>& boundaries() const { return boundaries_; }
  /// Ideal output distribution of `qubits` for one lane.
  std::vector<double> lane_ideal_marginal(int lane,
                                          const std::vector<int>& qubits) const;
  /// Members' states after the first `gate_count` gates, as one batched
  /// vector in the plan's row layout: `out` lane j becomes member
  /// lane_map[j]'s state (members may repeat, so one group can carry
  /// several trajectories of the same member). The nearest checkpoint is
  /// copied and the remainder replayed batched (fused via subrange plans).
  /// Reuses `out`'s storage across calls. The float32 replay tier
  /// passes a BatchedStateVectorF: checkpoints stay double (the ideal run
  /// is always reference precision) and amplitudes are rounded once here,
  /// then the checkpoint-to-site replay runs at the narrow precision.
  template <typename Real>
  void load_states_at(std::size_t gate_count, const std::vector<int>& lane_map,
                      BatchedStateVectorT<Real>& out) const;

 private:
  /// Index of the last checkpoint at or before `gate_count` gates.
  std::size_t checkpoint_before(std::size_t gate_count) const;

  std::shared_ptr<const FusedPlan> plan_;
  std::size_t interval_;
  /// Checkpoints land on fused-op boundaries at (or just past) every
  /// `interval_` gates, so building and resuming from them never splits an
  /// op. boundaries_[k] is the gate count of checkpoints_[k]; the last
  /// checkpoint is the final state, unpacked; the others are packed.
  std::vector<std::size_t> boundaries_;
  std::vector<BatchedStateVector> checkpoints_;
};

/// Advance every lane of `bsv` — pre-loaded with its trajectory's state
/// after `start_gates` gates — through the rest of the plan, injecting
/// lane_events[l] into lane l at the exact gate sites. Each lane's events
/// must be sorted by gate_index with first site >= start_gates (site =
/// gate_index + 1). The circuit global phase is NOT applied (mirrors
/// run_trajectory). Instantiated for both replay precisions (see Precision
/// in sim/batch.h).
///
/// Execution is a fused tile walk (apply_batch_walk in sim/batch.h): the
/// shared gate segments and the per-lane Paulis between them flatten into
/// one step sequence, and every maximal run of tile-local steps takes a
/// single pass over the live amplitude tiles — so the replay cost no
/// longer grows with the number of distinct injection sites (which is
/// ~lanes × events/lane for a batched group). `plan` is the logical plan;
/// a vector in its row layout (as BatchedCleanRun loads them) walks the
/// relabelled twin. Op-interior sites decompose the host op per lane: the
/// lane whose event lands inside an op runs that op as the compiled slices
/// on either side of its site, and every other lane takes the op whole, so
/// a lane's arithmetic depends on its own trajectory only and its replay is
/// bitwise independent of which trajectories share the batch. Against
/// run_trajectory, which replays gate by gate on the StateVector kernels,
/// agreement is at rounding level (<= 1e-12 double), not bitwise.
/// Raw-plane comparisons must fold each lane's pending phase
/// (lane_pending_phase): fused tables carry absolute phases in the
/// amplitudes while sliced application routes the same phase through the
/// deferred accumulator.
template <typename Real>
void run_trajectories_batched(
    const FusedPlan& plan, BatchedStateVectorT<Real>& bsv,
    std::size_t start_gates,
    const std::vector<std::vector<ErrorEvent>>& lane_events);

extern template void run_trajectories_batched<double>(
    const FusedPlan&, BatchedStateVector&, std::size_t,
    const std::vector<std::vector<ErrorEvent>>&);
extern template void run_trajectories_batched<float>(
    const FusedPlan&, BatchedStateVectorF&, std::size_t,
    const std::vector<std::vector<ErrorEvent>>&);

}  // namespace qfab
