// Fused gate execution plans.
//
// A FusedPlan is compiled once per transpiled circuit and replayed many
// times — once per operand instance and again per error trajectory — so the
// compile cost is amortized over thousands of 2^n-amplitude passes. It
// compiles circuits over the IBM basis {Id, X, SX, RZ, CX} only, the
// circuits every sweep runs (transpile_to_basis), and throws a CheckError
// naming the first gate outside it. The plan collapses the gate stream
// into fewer, cheaper ops:
//
//  * runs of consecutive 1q gates on the same qubit fuse into one 2x2
//    matrix (the transpiled RZ·SX·RZ Euler chains),
//  * runs confined to <= 3 qubits whose product is *exactly* diagonal
//    (CX·D·CX conjugation yields structural IEEE zeros) collapse into one
//    phase-table op — each transpiled CP block (CX·RZ·CX·RZ) and CCP
//    block becomes a single diagonal pass,
//  * adjacent diagonal ops (Id/RZ and collapsed blocks) merge into one
//    phase table over the union of their qubits (whole QFT ladders between
//    Hadamard layers), applied with a precompiled shift/mask key gather.
//
// Every rewrite is gated by a kernel cost model: at simulation sizes the
// amplitude vector is cache-resident and the workload is flop-bound, so a
// merge is accepted only when the fused pass is estimated no more
// expensive than its parts. A CX therefore merges with nothing pairwise
// (a dense 4x4 must not swallow a CX quarter-swap), and every op a plan
// holds is a kGate (one basis gate), a 2x2 or a phase table.
//
// A plan only compiles. Its one executor is the batched walk (sim/batch.h:
// apply_plan, apply_plan_range and the noisy replay run_trajectories_batched
// in noise/trajectory.h), which runs a plan on one to 64 lanes. The scalar
// reference (CleanRun, run_trajectory) runs none of these ops: it replays
// the circuit on the per-gate StateVector kernels, and the tests hold the
// walk to it at 1e-12.
//
// The walk stores amplitude rows in a RowLayout that puts the classical
// qubits high (DESIGN.md §14). A plan derives that layout from the caller's
// circuit once, when it is built, and compiles its own copy of the circuit
// with every qubit already in row labels: its one op list is the one the
// walk runs, and it runs only on vectors in that layout.
//
// Noise compatibility is the load-bearing invariant: the ops partition the
// original gate index range and `op_of_gate` maps every gate index to its
// op, so an injection site addresses a gate, not an op. The walk runs a
// range that starts or ends inside an op as the compiled plan of the
// covered slice (subrange_plan), so Pauli injections land at exact gate
// sites while fused ops run on either side. Slices come from a SliceStore
// keyed by content (their row-labelled gates): a sweep builds its depth
// plans over one store, so a slice the AQFT depths have in common compiles
// once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.h"

namespace qfab {

struct FusionOptions {
  /// false compiles every gate as its own kGate op, run on the batched
  /// per-gate kernel: bench_fusion's unfused baseline and micro_kernels'
  /// per-gate streams.
  bool enable = true;

  /// A SliceStore keys compiled slices by their options too: a field that
  /// compile() reads must also enter SliceStore::slice's hash.
  bool operator==(const FusionOptions&) const = default;
};

/// One compiled op covering the contiguous original-gate range
/// [gate_begin, gate_end).
struct FusedOp {
  enum class Kind : std::uint8_t {
    kGate,      // single basis gate, specialized per-kind kernel
    kMatrix1,   // fused 2x2 on qubit q0
    kMatrix2,   // a CX as a 4x4 on (q0, q1), gate-local bit 0 = q0: only
                // inside compile()'s passes, never in a compiled plan
    kDiagonal,  // fused phase table over `qubits` (sorted ascending)
  };

  /// One contiguous run of kDiagonal qubits: contributes
  /// ((index >> shift) & mask) << out to the phase-table key. Compiled so
  /// the per-amplitude key gather is a few shifts instead of a per-bit
  /// loop (QFT ladder unions are contiguous register ranges).
  struct DiagShift {
    int shift = 0;
    u64 mask = 0;
    int out = 0;
  };

  Kind kind = Kind::kGate;
  std::size_t gate_begin = 0;
  std::size_t gate_end = 0;
  int q0 = -1;
  int q1 = -1;
  int max_qubit = -1;        // highest qubit touched (tiling eligibility)
  /// kMatrix1: 4 entries row-major. kGate: the gate's operands for the
  /// batched per-gate kernel, decoded once at compile — SX's matrix,
  /// e^{i.theta} for RZ, empty otherwise — so no tile recomputes a matrix
  /// or a cos/sin. A lone gate demoted to kGate keeps its q0 and q1.
  std::vector<cplx> m;
  std::vector<int> qubits;   // kDiagonal: sorted qubit list
  std::vector<cplx> phases;  // kDiagonal: 2^qubits.size() diagonal entries
  std::vector<DiagShift> shifts;  // kDiagonal k >= 2: key extraction plan

  std::size_t gate_count() const { return gate_end - gate_begin; }
};

/// Phase-table key of amplitude row `row` under a kDiagonal op's shift
/// plan: the per-row gather.
inline u64 diag_key(const FusedOp::DiagShift* ss, int ns, u64 row) {
  u64 key = 0;
  for (int s = 0; s < ns; ++s)
    key |= ((row >> ss[s].shift) & ss[s].mask) << ss[s].out;
  return key;
}

/// The phase-table keys of the amplitude tile [base, base + len) of a
/// kDiagonal op, hoisted out of the row loop. `len` is a power of two and
/// `base` a multiple of it, so key(base | i) = key(base) | key(i). The
/// op's qubits inside the tile are its lowest ones, so key(i) is the rank
/// of i & low among the submasks of `low`: walking each submask c of
/// `rest`, then the submasks s of `low` in ascending order (next_submask),
/// visits every row c | s once and reads the table at key0 + 0, 1, 2, ...
/// for each c.
struct DiagTile {
  u64 key0;  // key of the tile's first row
  u64 low;   // row bits that are op qubits
  u64 rest;  // the tile's other row bits
};

inline DiagTile diag_tile(const FusedOp::DiagShift* ss, int ns, u64 base,
                          u64 len) {
  u64 qubits = 0;
  for (int s = 0; s < ns; ++s) qubits |= ss[s].mask << ss[s].shift;
  const u64 low = qubits & (len - 1);
  return DiagTile{diag_key(ss, ns, base), low, (len - 1) & ~low};
}

/// The submask of `mask` after `s` in ascending order; 0 after the last.
inline u64 next_submask(u64 s, u64 mask) { return (s - mask) & mask; }

/// Row order of the batched engine's amplitude planes: logical qubit q is
/// row bit phys[q]. A plan derives it from the caller's circuit
/// (row_layout): the superposed qubits take the low row bits and the
/// classical ones — those no gate puts into superposition — the high bits,
/// each group in logical order. Operand registers then select whole tiles,
/// so a lane's data sits in a few tiles (DESIGN.md §14).
class RowLayout {
 public:
  explicit RowLayout(std::vector<int> phys);

  int num_qubits() const { return static_cast<int>(phys_.size()); }
  int phys(int logical_qubit) const { return phys_[logical_qubit]; }
  int logical(int row_bit) const { return logical_[row_bit]; }
  /// Row of logical basis index `index`, and back (byte-table lookups).
  u64 to_row(u64 index) const { return permute(to_row_, index); }
  u64 to_logical(u64 row) const { return permute(to_logical_, row); }
  bool operator==(const RowLayout& other) const { return phys_ == other.phys_; }

 private:
  static u64 permute(const std::vector<u64>& table, u64 x) {
    u64 out = 0;
    for (std::size_t b = 0; x != 0; ++b, x >>= 8)
      out |= table[b * 256 + (x & 255)];
    return out;
  }

  std::vector<int> phys_, logical_;
  std::vector<u64> to_row_, to_logical_;  // 256 entries per index byte
};

class SliceStore;

class FusedPlan {
 public:
  /// A plan of `qc`, a basis circuit (a CheckError names the first gate
  /// outside the basis), with a private slice store.
  explicit FusedPlan(const QuantumCircuit& qc,
                     const FusionOptions& options = {});
  /// A plan whose subrange plans come from `store`, shared by content with
  /// every other plan over it.
  FusedPlan(const QuantumCircuit& qc, const FusionOptions& options,
            std::shared_ptr<SliceStore> store);
  /// Plans are held in place (shared_ptr or locals): walk steps point at
  /// them, and a slice points at the store that owns it.
  FusedPlan(const FusedPlan&) = delete;
  FusedPlan& operator=(const FusedPlan&) = delete;

  /// The compiled circuit: the plan's copy of the caller's circuit with
  /// every qubit mapped into row_layout(). Gate indices are the caller's;
  /// ops, their qubit fields and kGate gates address row bits. A caller
  /// that needs logical qubits keeps its own circuit.
  const QuantumCircuit& circuit() const { return circuit_; }
  const FusionOptions& options() const { return options_; }
  const std::vector<FusedOp>& ops() const { return ops_; }

  std::size_t gate_count() const { return circuit_.gates().size(); }
  std::size_t op_count() const { return ops_.size(); }

  /// Index of the op covering original gate `gate_index` (O(1)).
  std::size_t op_of_gate(std::size_t gate_index) const;

  /// Bitmask of qubits across which op `op_index` mixes amplitude rows:
  /// row r only ever combines with rows r ^ m for m in the span of this
  /// mask. Diagonal ops (and RZ/Id kGates) couple nothing; a fused 2x2, an
  /// X and an SX couple their qubit; a CX couples only its target (the
  /// control selects rows but never pairs them). The batched walk uses
  /// this to tell steps that stay inside their tile from those that pair
  /// tiles, and which tiles.
  u64 op_coupling_mask(std::size_t op_index) const;

  /// The fused plan of the original-gate subrange [gate_begin, gate_end),
  /// compiled on first use (thread-safe) from the row-labelled gates. It
  /// lives in the plan's slice store, which keys it by content: every plan
  /// over the same store gets the same object for a slice whose gates
  /// match, and the object lives as long as the store. A slice has no
  /// layout of its own (row_layout() is null): it runs on the rows of its
  /// root plan's vectors, inside that plan's walks. Noise injection splits
  /// the same few sites over and over across a sweep's trajectories, so
  /// the walk runs the partial slice of a big fused op as a handful of
  /// fused passes compiled once, not as one amplitude pass per gate.
  const FusedPlan& subrange_plan(std::size_t gate_begin,
                                 std::size_t gate_end) const;

  /// The batched engine's row layout for this plan's states (see
  /// RowLayout): it maps the caller's qubit labels to the row labels of
  /// circuit(). Null when it is the identity, and for slices.
  const std::shared_ptr<const RowLayout>& row_layout() const {
    return layout_;
  }

 private:
  friend class SliceStore;
  struct SliceTag {};
  /// A slice plan of `store`, which owns it: compiles `slice`, already in
  /// row labels, in place.
  FusedPlan(QuantumCircuit&& slice, const FusionOptions& options,
            SliceStore& store, SliceTag);
  void compile();

  std::shared_ptr<const RowLayout> layout_;  // null = identity
  QuantumCircuit circuit_;                  // in row labels
  FusionOptions options_;
  std::vector<FusedOp> ops_;                // partition of [0, gate_count)
  std::vector<std::uint32_t> op_of_gate_;   // gate index -> op index
  // Subrange plans live in the store. Plans built on their own or over a
  // sweep's store hold it; the store's own slices only point at it.
  std::shared_ptr<SliceStore> store_owner_;
  SliceStore* store_ = nullptr;
};

/// Compiled slice plans shared by content. A slice's compile reads only
/// its gates (kind, row-labelled qubits and the bit pattern of the param),
/// its qubit count and its FusionOptions, and its ops do not depend on
/// where the slice sits: gate ranges are relative to the slice and kGate
/// ops point into the slice's own circuit. So the store keys a slice by
/// those fields (a 64-bit hash picks the bucket, a full comparison of the
/// gates decides) and one object serves every plan over the store whose
/// row-labelled gates match, whatever their callers' labels were.
///
/// A sweep builds its depth plans over one store, which then lives as long
/// as they do (SweepExecution); plans built on their own get a private one.
/// Read-mostly: hits take the shared lock, compiles run outside any lock,
/// and the first thread to publish a slice wins (the others drop their
/// duplicate). The store owns its slices, so references stay valid until
/// it dies.
class SliceStore {
 public:
  SliceStore() = default;
  SliceStore(const SliceStore&) = delete;
  SliceStore& operator=(const SliceStore&) = delete;

 private:
  friend class FusedPlan;
  /// The plan of gates [gate_begin, gate_end) of `source` (a plan's
  /// row-labelled circuit) under `options`.
  const FusedPlan& slice(const QuantumCircuit& source, std::size_t gate_begin,
                         std::size_t gate_end, const FusionOptions& options);

  std::shared_mutex mutex_;
  std::unordered_multimap<std::uint64_t, std::unique_ptr<const FusedPlan>>
      slices_;
};

}  // namespace qfab
