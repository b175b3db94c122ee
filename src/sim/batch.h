// Batched SIMD state-vector engine.
//
// Every data point of the paper's sweeps replays the *same* fused execution
// plan over hundreds of operand instances and many noise trajectories; only
// the initial states and the Pauli injection sites differ. The single-state
// path walks each 2^n vector alone, so vector units run half-empty and
// every op's decode (matrix loads, phase-table key gathers) is repaid per
// state. BatchedStateVectorT<Real> runs B such states ("lanes") through one
// plan pass in a structure-of-arrays layout:
//
//     re[amp * B + lane],  im[amp * B + lane]
//
// — amplitude-major, lane-minor, split real/imaginary planes — so every
// kernel's inner loop is a unit-stride stream of B reals: the shape that
// autovectorizes to full-width FMAs with no shuffles, and that amortizes
// per-amplitude op decode (diagonal key gathers, matrix broadcast) across
// all lanes.
//
// Precision tiers: the engine is templated on the amplitude scalar `Real`.
//   BatchedStateVector  (double)  — the bitwise reference tier; matches the
//                                   scalar StateVector path to rounding.
//   BatchedStateVectorF (float)   — half the working set, twice the lanes
//                                   per vector register; used by the noise
//                                   trajectory estimators when the precision
//                                   policy (exp/experiment.h) decides the
//                                   replay drift budget allows it. Gate
//                                   matrices, phase tables and marginal
//                                   accumulators stay double; only the
//                                   amplitude planes are narrowed.
//
// Kernels are compiled per (ISA, precision): a portable scalar build, an
// AVX2+FMA build, and an AVX-512 build ("target" function attributes), each
// instantiated for double and float. One table per precision is selected at
// startup by CPUID (overridable via the QFAB_SIMD environment variable or
// set_simd_mode(); the QFAB_SIMD CMake option pins the choice at build
// time). The scalar table is the reference fallback CI runs under
// sanitizers.
//
// Lane divergence: shared plan segments execute batched; per-lane Pauli
// injections (apply_pauli with a lane index) land at their exact gate sites
// between apply_plan_range calls, exactly mirroring the scalar trajectory
// split-point protocol, then batched execution resumes. See
// noise/trajectory.h for the batched trajectory driver built on top.
//
// One execution loop: apply_plan, apply_plan_range and the noisy replay
// driver (noise/trajectory.h) all compile their gate range into
// BatchWalkStep sequences (append_range_steps) and run them through
// apply_batch_walk, which applies runs of steps tile by tile with the tile
// height shrunk by lanes × sizeof(Real) so a tile is always L1-sized.
// Diagonal ops are tile-eligible at any qubit span because their phase-key
// gather needs only the global row index, which the tile walk supplies;
// high-qubit ops reach their partner rows in co-resident sibling tiles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fusion.h"
#include "sim/statevector.h"

namespace qfab {

/// Which kernel table executes batched ops.
enum class SimdMode {
  kAuto,    // detect at startup: widest tier the CPU supports
  kAvx512,  // force the AVX-512 table (falls back if unavailable)
  kAvx2,    // force the AVX2+FMA table (falls back if unavailable)
  kScalar,  // force the portable table
};

/// The resolved mode (never kAuto): what batched kernels actually run.
/// Resolution order: set_simd_mode() override, else the QFAB_SIMD
/// environment variable ("auto" | "avx512" | "avx2" | "scalar"), else the
/// build's QFAB_SIMD CMake default, else CPUID.
SimdMode simd_mode();

/// Override the dispatch (tests and benches; kAuto restores detection).
/// Affects every precision's table.
void set_simd_mode(SimdMode mode);

/// "avx512", "avx2" or "scalar" for the resolved mode.
const char* simd_mode_name();

/// Amplitude precision for batched trajectory replay (see the precision
/// policy in exp/experiment.h; kAuto resolves per run against a drift
/// budget).
enum class Precision {
  kDouble,   // bitwise reference tier
  kFloat32,  // narrow tier: half the bytes, twice the SIMD lanes
  kAuto,     // policy decides per (n, depth, rate); falls back on drift
};

/// "double", "float32" or "auto".
const char* precision_name(Precision p);

namespace detail {
/// Fault-injection hook for the differential verifier's self-test ONLY
/// (tools/qfab_verify --inject-kernel-bug): when enabled, the batched
/// kMatrix1 dispatch flips the sign of one matrix entry, emulating a
/// batched-kernel regression that the verify harness must catch and shrink
/// to a repro. Applies to every (ISA, precision) kernel tier. Never enable
/// outside tests.
void set_batch_fault_injection(bool on);
bool batch_fault_injection();
}  // namespace detail

/// Cache-line-aligned storage for the amplitude planes. With 8 double (or
/// 16 float) lanes a row is exactly one 64-byte line, so a full-width row
/// op touches one line per plane instead of straddling two. The block
/// comes from the plain allocator, one line (plus a pointer) larger, and
/// the block's address is kept just below the aligned start: aligned
/// operator new (memalign) fragmented the heap over repeated multi-MiB
/// plane allocations and raised peak RSS by up to 18% on a QFM panel.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::uintptr_t kLine = 64;
  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}
  T* allocate(std::size_t n) {
    void* block = ::operator new(n * sizeof(T) + kLine + sizeof(void*));
    const std::uintptr_t start =
        (reinterpret_cast<std::uintptr_t>(block) + sizeof(void*) + kLine -
         1) &
        ~(kLine - 1);
    reinterpret_cast<void**>(start)[-1] = block;
    return reinterpret_cast<T*>(start);
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

/// B state vectors advanced in lockstep through shared plan segments.
/// `Real` is the amplitude scalar (double or float); the double
/// instantiation is bitwise-stable against the scalar StateVector path,
/// the float instantiation carries a bounded replay drift (see DESIGN.md
/// §11).
template <typename Real>
class BatchedStateVectorT {
 public:
  /// Lanes start as |0...0>. 1 <= lanes <= kMaxLanes; ragged final batches
  /// of a sweep simply construct with fewer lanes.
  BatchedStateVectorT(int num_qubits, int lanes);

  static constexpr int kMaxLanes = 64;

  int num_qubits() const { return num_qubits_; }
  int lanes() const { return lanes_; }
  u64 dim() const { return pow2(num_qubits_); }

  /// Re-dimension to (num_qubits, lanes) reusing the existing heap
  /// storage; lane contents are unspecified until set via broadcast /
  /// set_lane / assign_permuted. This is the trajectory estimators'
  /// per-group workspace path: one BatchedStateVectorT per thread instead
  /// of one allocation per replay group.
  void reset(int num_qubits, int lanes);

  /// Copy a state into one lane (pending phase folded in; amplitudes
  /// rounded to Real).
  void set_lane(int lane, const StateVector& sv);
  /// Copy one state into every lane (trajectory batches of one instance).
  void broadcast(const StateVector& sv);
  /// Extract one lane as a StateVector (lane pending phase folded in).
  StateVector lane_state(int lane) const;
  /// Reload this vector from `src` with lanes permuted: lane j becomes
  /// src lane lane_map[j] (repeats allowed, so several trajectories of one
  /// member can occupy their own lanes). Reuses this vector's storage —
  /// the allocation-free way to seed a trajectory group from a batched
  /// checkpoint. `src` may be of a different precision (the float replay
  /// tier seeds from double checkpoints; amplitudes are rounded once here).
  template <typename SrcReal>
  void assign_permuted(const BatchedStateVectorT<SrcReal>& src,
                       const std::vector<int>& lane_map);

  /// Per-lane divergence: apply a Pauli to one lane only (noise injection
  /// between batched segments).
  void apply_pauli(int lane, Pauli p, int q);
  /// Accumulate a global phase on every lane (lazy, like StateVector).
  void apply_global_phase(double phase);
  /// ... or on one lane.
  void apply_lane_global_phase(int lane, double phase);

  /// One lane's accumulated pending global phase (radians). The raw
  /// planes represent the lane state up to this factor: two replays that
  /// route scalar phase work differently (fused table vs pending) hold
  /// bitwise-different planes for the same state, so plane-level
  /// comparisons must fold this in (lane_state already does).
  double lane_pending_phase(int lane) const {
    return pending_[static_cast<std::size_t>(lane)];
  }

  /// |amp|^2 of one lane (phase-free; pending phase is irrelevant).
  /// Accumulation is always double, whatever Real is.
  std::vector<double> lane_probabilities(int lane) const;
  /// Marginal distribution of `qubits` for one lane (see
  /// StateVector::marginal_probabilities).
  std::vector<double> lane_marginal_probabilities(
      int lane, const std::vector<int>& qubits) const;
  /// Marginal distribution of `qubits` for every lane in one pass over the
  /// planes (one key decode per amplitude row, unit-stride accumulation
  /// across lanes). Per lane, the sums are bitwise equal to
  /// lane_marginal_probabilities.
  std::vector<std::vector<double>> all_lane_marginal_probabilities(
      const std::vector<int>& qubits) const;
  /// Allocation-reusing form: `out` is resized to lanes() (inner vectors
  /// reuse capacity) and `scratch` holds the lane-minor accumulation
  /// plane between calls. Identical sums to the allocating overload.
  void all_lane_marginal_probabilities(const std::vector<int>& qubits,
                                       std::vector<std::vector<double>>& out,
                                       std::vector<double>& scratch) const;
  double lane_norm(int lane) const;

  /// Raw planes for the batched kernels (amp-major, lane-minor).
  Real* re() { return re_.data(); }
  Real* im() { return im_.data(); }
  const Real* re() const { return re_.data(); }
  const Real* im() const { return im_.data(); }

 private:
  template <typename OtherReal>
  friend class BatchedStateVectorT;

  int num_qubits_ = 0;
  int lanes_ = 1;
  std::vector<Real, CacheLineAllocator<Real>> re_, im_;
  std::vector<double> pending_;  // per-lane lazy global phase (radians)
};

/// The bitwise-reference double tier (the pre-existing engine name; all
/// exact-path consumers use this alias).
using BatchedStateVector = BatchedStateVectorT<double>;
/// The narrow trajectory-replay tier.
using BatchedStateVectorF = BatchedStateVectorT<float>;

extern template class BatchedStateVectorT<double>;
extern template class BatchedStateVectorT<float>;

/// Apply the full plan to every lane, including the circuit's global phase
/// (mirrors FusedPlan::apply).
template <typename Real>
void apply_plan(const FusedPlan& plan, BatchedStateVectorT<Real>& bsv);

/// Apply original gates [gate_begin, gate_end) to every lane; global phase
/// NOT applied (mirrors FusedPlan::apply_range). Boundaries may fall inside
/// fused ops — a partially covered op runs as the cached subrange plan of
/// its covered gates — so per-lane noise injection can split anywhere. Runs
/// as one walk (append_range_steps + apply_batch_walk).
template <typename Real>
void apply_plan_range(const FusedPlan& plan, BatchedStateVectorT<Real>& bsv,
                      std::size_t gate_begin, std::size_t gate_end);

extern template void apply_plan<double>(const FusedPlan&, BatchedStateVector&);
extern template void apply_plan<float>(const FusedPlan&, BatchedStateVectorF&);
extern template void apply_plan_range<double>(const FusedPlan&,
                                              BatchedStateVector&, std::size_t,
                                              std::size_t);
extern template void apply_plan_range<float>(const FusedPlan&,
                                             BatchedStateVectorF&, std::size_t,
                                             std::size_t);

/// Rows-per-tile exponent of the lane-aware cache blocking at `lanes`
/// lanes of `real_size`-byte amplitudes: 2^result rows × lanes × 2 planes
/// matches the scalar path's 2^tile_bits-amplitude L1 budget, clamped to
/// [4, num_qubits]. apply_batch_walk tiles with it.
int batched_tile_rows_log2(const FusionOptions& options, int lanes,
                           int num_qubits, std::size_t real_size);

/// One step of a fused trajectory walk (see apply_batch_walk): either a
/// fused op of some plan — the trajectory's root plan or one of its cached
/// subrange plans — applied to a contiguous lane span, or a single-lane
/// Pauli injection. Op steps keep `plan` non-null; the plan must outlive
/// the walk (subrange plans are owned by their root plan's cache, so
/// holding the root alive suffices).
///
/// The lane span is how the walk prices per-lane schedule divergence: in
/// the amp-major lane-minor layout, "lanes [b, b+c) of every row" is just
/// the kernel's unit-stride inner loop shortened to c entries at column
/// offset b, so an op-interior split needed by ONE lane runs its slices
/// with c = 1 while the uninvolved lanes take the fused op in bystander
/// spans. A c = 1 step does not cost 1/L of a pass: at 8 double lanes it
/// loads and stores the same cache line per row and plane as a full-width
/// step, so the two cost about the same per row (DESIGN.md §12, "Cost of
/// a step"). lane_count = -1 means every lane.
struct BatchWalkStep {
  const FusedPlan* plan = nullptr;  // null = Pauli step
  std::size_t op = 0;               // op index within *plan
  int lane = -1;                    // Pauli steps only
  Pauli pauli = Pauli::kI;
  int qubit = -1;
  int lane_begin = 0;               // op steps: first lane of the span
  int lane_count = -1;              // op steps: span width (-1 = all lanes)

  static BatchWalkStep op_step(const FusedPlan* plan, std::size_t op) {
    BatchWalkStep s;
    s.plan = plan;
    s.op = op;
    return s;
  }
  static BatchWalkStep op_span_step(const FusedPlan* plan, std::size_t op,
                                    int lane_begin, int lane_count) {
    BatchWalkStep s;
    s.plan = plan;
    s.op = op;
    s.lane_begin = lane_begin;
    s.lane_count = lane_count;
    return s;
  }
  static BatchWalkStep pauli_step(int lane, Pauli pauli, int qubit) {
    BatchWalkStep s;
    s.lane = lane;
    s.pauli = pauli;
    s.qubit = qubit;
    return s;
  }
};

/// Append the walk steps that apply original gates [gate_begin, gate_end)
/// of `plan` to lanes [lane_begin, lane_begin + lane_count) (lane_count -1
/// = every lane), decomposed exactly as the scalar FusedPlan::apply_range
/// does: maximal runs of fully covered ops come from the plan itself, and
/// op-interior slices from its cached subrange plans (a 1-gate slice
/// compiles to a kGate op, the per-gate kernel). This is the one
/// range-to-steps compiler: apply_plan_range and the noisy replay driver
/// both build their walks with it. The subrange plans are owned by the
/// plan's cache, so holding `plan` alive keeps every step valid.
void append_range_steps(const FusedPlan& plan, std::size_t gate_begin,
                        std::size_t gate_end, int lane_begin, int lane_count,
                        std::vector<BatchWalkStep>& steps);

/// Execute a fused trajectory walk: maximal runs of steps whose high
/// coupling bits fit the XOR-group cap load each L1-sized amplitude tile
/// (plus its coupled sibling tiles) once and apply the whole interleaved
/// sequence — op spans and lane Paulis alike — to it before the next
/// group streams in, so a replay's memory traffic no longer multiplies
/// with the number of injection sites. High-qubit ops run through the
/// group kernel variants, which address partner rows absolutely in the
/// co-resident siblings instead of forcing a full-width pass.
///
/// Within one lane, per-amplitude arithmetic, kernel selection, and
/// pending-phase accumulation order are exactly those of the step
/// sequence scoped to that lane's spans — a lane's amplitudes never
/// depend on which other lanes share the batch (the walk's determinism
/// contract; see run_trajectories_batched for the per-lane schedule it
/// builds on top). `plan` supplies the tiling options and qubit count;
/// op steps may reference it or any plan compiled with the same options.
/// Global phase is NOT applied (mirrors apply_plan_range).
template <typename Real>
void apply_batch_walk(const FusedPlan& plan, BatchedStateVectorT<Real>& bsv,
                      const BatchWalkStep* steps, std::size_t count);

extern template void apply_batch_walk<double>(const FusedPlan&,
                                              BatchedStateVector&,
                                              const BatchWalkStep*,
                                              std::size_t);
extern template void apply_batch_walk<float>(const FusedPlan&,
                                             BatchedStateVectorF&,
                                             const BatchWalkStep*,
                                             std::size_t);

}  // namespace qfab
