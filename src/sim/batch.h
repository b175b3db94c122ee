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
// Kernels are compiled three times: a portable build for each precision
// and an AVX2 double build (a "target" function attribute), which CPUID
// picks once on hosts that have AVX2. Nothing in the libraries contracts
// a*b+c into an FMA (-ffp-contract=off, src/CMakeLists.txt), so both
// double builds give the same bits and the results do not depend on the
// host (DESIGN.md §7 "SIMD dispatch").
//
// Lane divergence: shared plan segments execute batched; per-lane Pauli
// injections (apply_pauli with a lane index) land at their exact gate sites
// between apply_plan_range calls, the sites where the scalar run_trajectory
// injects them, then batched execution resumes. See
// noise/trajectory.h for the batched trajectory driver built on top.
//
// Row layout and live tiles (DESIGN.md §14): a vector stores its rows in a
// RowLayout (sim/fusion.h) — the layout its constructor or reset() names,
// which must be the row layout of every plan it runs (FusedPlan::
// row_layout(); a walk throws a CheckError otherwise) — and keeps one lane
// mask per tile of 2^tile_log2() rows: bit l clear means lane l is exactly
// zero in that tile, and a tile with mask 0 holds no data and is never
// read. Operand registers are classical qubits in the paper's circuits, so
// in the plan's layout a lane's data sits in a handful of tiles, and every
// load, walk, copy and reduction touches those tiles only. Methods taking
// qubits, basis terms or StateVectors speak logical qubits and translate;
// plans and walk steps speak row bits.
//
// One execution loop: apply_plan, apply_plan_range and the noisy replay
// driver (noise/trajectory.h) all compile their gate range into
// BatchWalkStep sequences (append_range_steps) and run them through
// apply_batch_walk over the live tiles. A tile is L1-sized: kTileBits
// fixes its budget, and its height shrinks by lanes × sizeof(Real), so a
// vector and its walks always use one tile height. Diagonal ops are
// tile-local at any qubit span because their phase-key gather needs only
// the global row index, which the tile walk supplies; ops and Paulis that
// couple rows across tiles run alone, on the groups of tiles they pair.
// A plan holds three op kinds (sim/fusion.h): 2x2s, phase tables and single
// basis gates, so the kernel table has one entry for each of them and one
// for the single-lane Pauli, and every entry is correct at any qubit span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/fusion.h"
#include "sim/statevector.h"

namespace qfab {

/// The kernel build that runs batched `Real` amplitudes on this host:
/// "avx2" or "scalar" (the portable build) for double, "scalar" for float.
/// Follows detail::set_portable_kernels.
template <typename Real>
const char* kernel_tier_name();

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
/// to a repro. Applies to every kernel build. Never enable outside tests.
void set_batch_fault_injection(bool on);
bool batch_fault_injection();

/// Tier switch for the tier-equivalence tests ONLY: while on, double
/// kernels run the portable build even where CPUID picked AVX2, so a test
/// can run both builds in one process and compare their bits. Float32 has
/// one build and is unaffected. Never enable outside tests.
void set_portable_kernels(bool on);
}  // namespace detail

/// Cache-line-aligned storage for the amplitude planes. With 8 double (or
/// 16 float) lanes a row is exactly one 64-byte line, so a full-width row
/// op touches one line per plane instead of straddling two. The block
/// comes from the plain allocator, one line (plus a pointer) larger, and
/// the block's address is kept just below the aligned start: aligned
/// operator new (memalign) fragmented the heap over repeated multi-MiB
/// plane allocations and raised peak RSS by up to 18% on a QFM panel.
/// resize() default-initializes: planes are written tile by tile as tiles
/// come alive, so pages of tiles that never hold data are never touched.
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
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

struct BatchWalkStep;

/// L1 budget of the batched walk's tiles: 2^kTileBits complex doubles
/// (32 KiB), shared out among a vector's lanes and planes by
/// batched_tile_rows_log2.
constexpr int kTileBits = 11;

/// Rows-per-tile exponent of the lane-aware cache blocking at `lanes`
/// lanes of `real_size`-byte amplitudes: 2^result rows × lanes × 2 planes
/// matches the 2^kTileBits-amplitude L1 budget, clamped to [4,
/// num_qubits]. A vector's live masks cut its rows into tiles of this
/// height, and its walks tile with it.
int batched_tile_rows_log2(int lanes, int num_qubits, std::size_t real_size);

/// B state vectors advanced in lockstep through shared plan segments.
/// `Real` is the amplitude scalar (double or float); the double
/// instantiation matches the per-gate StateVector path to rounding (the
/// tests hold it to 1e-12; fused ops multiply in another order), the float
/// instantiation carries a bounded replay drift (see DESIGN.md §11).
template <typename Real>
class BatchedStateVectorT {
 public:
  /// Lanes start as |0...0>, in row layout `layout` (null = identity; pass
  /// a plan's row_layout() to run the plan). 1 <= lanes <= kMaxLanes;
  /// ragged final batches of a sweep simply construct with fewer lanes.
  BatchedStateVectorT(int num_qubits, int lanes,
                      std::shared_ptr<const RowLayout> layout = nullptr);
  /// Copies hold the source's live tiles only.
  BatchedStateVectorT(const BatchedStateVectorT& other);
  BatchedStateVectorT& operator=(const BatchedStateVectorT& other);
  BatchedStateVectorT(BatchedStateVectorT&&) noexcept = default;
  BatchedStateVectorT& operator=(BatchedStateVectorT&&) noexcept = default;

  static constexpr int kMaxLanes = 64;

  int num_qubits() const { return num_qubits_; }
  int lanes() const { return lanes_; }
  u64 dim() const { return pow2(num_qubits_); }

  /// Re-dimension to (num_qubits, lanes) in row layout `layout` (null =
  /// identity) reusing the existing heap storage; every tile is dead and
  /// lane contents are unspecified until set via broadcast / set_lane /
  /// assign_permuted. This is the trajectory estimators' per-group
  /// workspace path: one BatchedStateVectorT per thread instead of one
  /// allocation per replay group.
  void reset(int num_qubits, int lanes,
             std::shared_ptr<const RowLayout> layout = nullptr);

  /// Row layout of the planes (null = identity).
  const std::shared_ptr<const RowLayout>& layout() const { return layout_; }

  /// Load one lane with the state whose nonzero amplitudes are `terms`
  /// (indices distinct and logical; amplitudes rounded to Real; lane
  /// pending phase cleared). Writes only the tiles the terms occupy, so a
  /// basis-sparse operand state costs its terms, not 2^n rows
  /// (nonzero_terms converts a dense state).
  void set_lane(int lane, const std::vector<BasisTerm>& terms);
  /// Copy one state into every lane (tests and micro_kernels seed walks
  /// from a StateVector with it). Writes only the state's nonzero tiles.
  void broadcast(const StateVector& sv);
  /// Extract one lane as a StateVector (lane pending phase folded in).
  StateVector lane_state(int lane) const;
  /// Reload this vector from `src` with lanes permuted: lane j becomes
  /// src lane lane_map[j] (repeats allowed, so several trajectories of one
  /// member can occupy their own lanes). Reuses this vector's storage —
  /// the allocation-free way to seed a trajectory group from a batched
  /// checkpoint — and copies only src's live tiles, taking src's layout.
  /// `src` may be of a different precision (the float replay tier seeds
  /// from double checkpoints; amplitudes are rounded once here) and may be
  /// packed.
  template <typename SrcReal>
  void assign_permuted(const BatchedStateVectorT<SrcReal>& src,
                       const std::vector<int>& lane_map);

  /// A copy holding only the live tiles, packed (BatchedCleanRun's
  /// checkpoints). A packed vector serves every read and is a source for
  /// assign_permuted, but walks and writes refuse it.
  BatchedStateVectorT packed() const;
  bool is_packed() const { return packed_; }

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
  /// live tiles (one key decode per amplitude row, unit-stride
  /// accumulation across lanes). Per lane, the sums are bitwise equal to
  /// lane_marginal_probabilities: each key adds its rows in ascending row
  /// order, which is ascending logical order when the qubits outside the
  /// key keep their relative order under the layout.
  std::vector<std::vector<double>> all_lane_marginal_probabilities(
      const std::vector<int>& qubits) const;
  /// Allocation-reusing form: `out` is resized to lanes() (inner vectors
  /// reuse capacity) and `scratch` holds the lane-minor accumulation
  /// plane between calls. Identical sums to the allocating overload.
  void all_lane_marginal_probabilities(const std::vector<int>& qubits,
                                       std::vector<std::vector<double>>& out,
                                       std::vector<double>& scratch) const;
  double lane_norm(int lane) const;

  /// Live-tile masks: tile t covers rows [t, t + 1) << tile_log2(); bit l
  /// of live_masks()[t] clear means lane l is exactly zero there, and a
  /// zero mask means the tile holds no data (its raw planes are
  /// unspecified).
  int tile_log2() const { return tb_; }
  const std::vector<u64>& live_masks() const { return live_; }
  /// Mark every lane of every tile live, zero-filling tiles that held no
  /// data: walks then touch every row, as an unmasked engine would — the
  /// reference tests hold the masked walk to.
  void make_dense();

  /// Raw planes for the batched kernels (amp-major, lane-minor, rows in
  /// layout() order). Only live tiles hold data.
  Real* re() { return re_.data(); }
  Real* im() { return im_.data(); }
  const Real* re() const { return re_.data(); }
  const Real* im() const { return im_.data(); }

 private:
  template <typename OtherReal>
  friend class BatchedStateVectorT;
  template <typename R>
  friend void apply_batch_walk(const FusedPlan&, BatchedStateVectorT<R>&,
                               const BatchWalkStep*, std::size_t);

  using Plane = std::vector<Real, CacheLineAllocator<Real>>;

  u64 tile_rows() const { return u64{1} << tb_; }
  u64 tile_count() const { return u64{1} << (num_qubits_ - tb_); }
  /// Plane offset of live tile t (packed vectors look it up in slot_).
  u64 tile_offset(u64 t) const {
    return (packed_ ? slot_[t] : t) * tile_rows() * static_cast<u64>(lanes_);
  }
  /// Size the planes for the current shape without touching them.
  void size_planes(std::size_t total);
  /// Write exact zeros over every lane of tile t.
  void zero_tile(u64 t);
  /// The walk loop behind apply_batch_walk and apply_pauli: steps address
  /// row bits.
  void walk(const BatchWalkStep* steps, std::size_t count);
  /// Marginal sums of lanes [lane_lo, lane_lo + width) into acc[key *
  /// width + lane - lane_lo] (see all_lane_marginal_probabilities).
  void accumulate_marginals(const std::vector<int>& qubits, int lane_lo,
                            int width, double* acc) const;

  int num_qubits_ = 0;
  int lanes_ = 1;
  int tb_ = 0;           // rows per tile, log2
  bool packed_ = false;  // planes hold the live tiles only, ascending
  Plane re_, im_;
  std::vector<double> pending_;  // per-lane lazy global phase (radians)
  std::vector<u64> live_;        // per-tile lane masks
  std::vector<std::uint32_t> slot_;  // packed: tile -> position in planes
  std::shared_ptr<const RowLayout> layout_;  // null = identity
};

/// The bitwise-reference double tier (the pre-existing engine name; all
/// exact-path consumers use this alias).
using BatchedStateVector = BatchedStateVectorT<double>;
/// The narrow trajectory-replay tier.
using BatchedStateVectorF = BatchedStateVectorT<float>;

extern template class BatchedStateVectorT<double>;
extern template class BatchedStateVectorT<float>;

/// Apply the full plan to every lane, including the circuit's global phase
/// (mirrors StateVector::apply_circuit). The vector must be in the plan's
/// row layout (a CheckError otherwise), here and below.
template <typename Real>
void apply_plan(const FusedPlan& plan, BatchedStateVectorT<Real>& bsv);

/// Apply original gates [gate_begin, gate_end) to every lane; global phase
/// NOT applied (mirrors StateVector::apply_circuit_range). Boundaries may
/// fall inside fused ops — a partially covered op runs as the subrange
/// plan of its covered gates, from the plan's slice store — so per-lane
/// noise injection can split anywhere. Runs as one walk
/// (append_range_steps + apply_batch_walk).
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

namespace detail {
/// QFAB_FAULT nan-at-gate hook of the batched engine, counterpart of
/// StateVector::apply_circuit_range's: after a pass that executed the
/// targeted gate, poison lane 0's first live row with a quiet NaN — a row
/// the health sentinels read. Inert without the env directive.
template <typename Real>
void maybe_inject_nan(BatchedStateVectorT<Real>& bsv, std::size_t gate_begin,
                      std::size_t gate_end);
extern template void maybe_inject_nan<double>(BatchedStateVector&,
                                              std::size_t, std::size_t);
extern template void maybe_inject_nan<float>(BatchedStateVectorF&,
                                             std::size_t, std::size_t);
}  // namespace detail

/// One step of a fused trajectory walk (see apply_batch_walk): either a
/// fused op of some plan — the trajectory's root plan or one of its cached
/// subrange plans — applied to a contiguous lane span, or a single-lane
/// Pauli injection. Op steps keep `plan` non-null; the plan must outlive
/// the walk (subrange plans are owned by their root plan's cache, so
/// holding the root alive suffices). Qubits are row bits of the vector the
/// walk runs on: op steps reference plans compiled in row labels (a root
/// plan and its slices), and Pauli steps name row bits.
///
/// The lane span is how the walk prices per-lane schedule divergence: in
/// the amp-major lane-minor layout, "lanes [b, b+c) of every row" is just
/// the kernel's unit-stride inner loop shortened to c entries at column
/// offset b, so an op-interior split needed by ONE lane runs its slices
/// with c = 1 while the uninvolved lanes take the fused op in bystander
/// spans, and a step is skipped on every tile where all of its lanes are
/// zero. lane_count = -1 means every lane.
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
/// = every lane): maximal runs of fully covered ops come from the plan
/// itself, and op-interior slices from its subrange plans (a 1-gate slice
/// compiles to a kGate op, the per-gate kernel). This is the one
/// range-to-steps compiler: apply_plan_range and the batched noisy replay
/// (noise/trajectory.cpp) both build their walks with it. The subrange
/// plans live in the plan's SliceStore, and holding `plan` alive keeps the
/// store, so every step, valid.
void append_range_steps(const FusedPlan& plan, std::size_t gate_begin,
                        std::size_t gate_end, int lane_begin, int lane_count,
                        std::vector<BatchWalkStep>& steps);

/// Execute a fused trajectory walk over the vector's live tiles. A maximal
/// run of steps that stay inside their tile visits the live tiles one by
/// one, applying the whole run to each while it is L1-resident and
/// skipping a step on a tile where all of its lanes are clear. A step that
/// couples rows across tiles runs alone, on the groups of tiles that hold
/// its lanes (dead group tiles are zero-filled first), and its kernel pairs
/// each tile with its sibling; a single-lane X/Y then moves its lane's mask
/// bit to the partner tile, and any other such op ORs its lanes' bits
/// across the group.
///
/// Within one lane, per-amplitude arithmetic, kernel row bodies, and
/// pending-phase accumulation order (once per op span, in step order) are
/// exactly those of the step sequence scoped to that lane's spans — a
/// lane's amplitudes never depend on which other lanes share the batch,
/// nor on which tiles are live: skipped work only multiplies and adds exact
/// zeros (the walk's determinism contract; see run_trajectories_batched
/// for the per-lane schedule it builds on top). `plan` is the walk's root
/// plan: the vector must be in its row layout (a CheckError otherwise),
/// and op steps reference it or its slices. Global phase is NOT applied
/// (mirrors apply_plan_range).
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
