#include "sim/fusion.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace qfab {

namespace {

cplx expi(double t) { return {std::cos(t), std::sin(t)}; }

int index_of(const std::vector<int>& v, int q) {
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i] == q) return static_cast<int>(i);
  return -1;
}

/// Row-major flattening of a square Matrix.
std::vector<cplx> to_flat(const Matrix& m) {
  std::vector<cplx> out(m.rows() * m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) out[r * m.cols() + c] = m.at(r, c);
  return out;
}

/// Row-major product out = a*b of two d x d flats (b applied first).
/// Zero entries of `a` are skipped: each entry of `out` starts at +0, and
/// in round-to-nearest a sum that starts at +0 never becomes -0, so adding
/// the signed-zero product of a zero entry would not change it.
void matmul_flat(const cplx* a, const cplx* b, std::size_t d, cplx* out) {
  std::fill(out, out + d * d, cplx{0.0, 0.0});
  for (std::size_t r = 0; r < d; ++r)
    for (std::size_t k = 0; k < d; ++k) {
      const cplx ark = a[r * d + k];
      if (ark == cplx{0.0, 0.0}) continue;
      for (std::size_t c = 0; c < d; ++c) out[r * d + c] += ark * b[k * d + c];
    }
}

/// Diagonal entries of a diagonal gate over its local bits.
std::vector<cplx> gate_diagonal(const Gate& g) {
  const Matrix m = g.matrix();
  std::vector<cplx> d(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) d[i] = m.at(i, i);
  return d;
}

int gate_max_qubit(const Gate& g) {
  int mx = -1;
  for (int b = 0; b < g.arity(); ++b) mx = std::max(mx, g.qubits[b]);
  return mx;
}

// ---------------------------------------------------------------------------
// Compilation.
//
// A plan compiles basis circuits only ({Id, X, SX, RZ, CX}, what the
// transpiler emits). Gates are converted 1:1 into ops — RZ and Id to
// phase tables, X and SX to 2x2s, CX to a 4x4 — then rewritten to a
// fixpoint by three passes:
//  * merge:    cost-gated pairwise fusion of adjacent ops (the gate only
//              accepts merges whose fused kernel is no more expensive than
//              running the two ops separately; a CX merges with nothing),
//  * sandwich: detects runs from a CX over up to three qubits whose
//              product is *exactly* diagonal (CX·D·CX conjugation yields
//              structural zeros, so each transpiled CP block collapses)
//              and replaces them with a phase-table op — the one rewrite
//              that has to pass through an intermediate dense 4x4 or 8x8,
//  * simplify: converts 2x2s with exactly zero off-diagonals to
//              kDiagonal, drops diagonal qubits the table does not depend
//              on, and reduces constant tables to scalar (k = 0) ops that
//              execute as pending global phase.
// A CX no pass absorbed ends as a kGate op, so the batched walk runs three
// op kinds: kGate over the five basis gates, kMatrix1 and kDiagonal.
// All rewrites are exact: off-diagonals are dropped only when they are
// IEEE zeros (products of permutation and diagonal factors), so fused
// execution differs from the per-gate reference path by rounding only.
//
// Compile time matters: a noisy sweep compiles a plan for every distinct
// op slice its injection sites leave (SliceStore). Making the passes
// cheaper must not move a bit of any op, or the figure CSVs move;
// FusedPlan.CompiledOpsMatchPinnedDigest (tests/test_fusion.cpp) pins them.
// ---------------------------------------------------------------------------

/// Relative kernel cost per amplitude of a multi-gate op: a phase table
/// over `diag_k` qubits, or a fused 2x2 (the passes build no other
/// multi-gate op).
double kind_cost(FusedOp::Kind kind, std::size_t diag_k) {
  if (kind != FusedOp::Kind::kDiagonal) return 2.0;
  if (diag_k == 0) return 0.05;  // executes as pending global phase
  if (diag_k == 1) return 0.7;
  return 1.0 + 0.1 * static_cast<double>(diag_k);
}

/// Relative kernel cost per amplitude of an op, used to gate merges.
/// Single-gate ops are priced at their demoted per-gate kernel (a lone CX
/// is a quarter-swap, not a dense 4x4).
double op_cost(const FusedOp& op, const std::vector<Gate>& gates) {
  if (op.gate_count() == 1) {
    switch (gates[op.gate_begin].kind) {
      case GateKind::kId:
        return 0.0;
      case GateKind::kSX:
        return 2.0;  // dense 2x2
      default:
        return 0.6;  // swap / phase strided kernels
    }
  }
  return kind_cost(op.kind, op.qubits.size());
}

/// Extend a diagonal table from `qubits` to the sorted superset
/// `new_qubits`.
void extend_diagonal(std::vector<int>& qubits, std::vector<cplx>& phases,
                     const std::vector<int>& new_qubits) {
  if (qubits == new_qubits) return;
  std::vector<int> oldpos(qubits.size());
  for (std::size_t b = 0; b < qubits.size(); ++b)
    oldpos[b] = index_of(new_qubits, qubits[b]);
  std::vector<cplx> np(pow2(static_cast<int>(new_qubits.size())));
  for (u64 key = 0; key < np.size(); ++key) {
    u64 okey = 0;
    for (std::size_t b = 0; b < oldpos.size(); ++b)
      okey |= ((key >> oldpos[b]) & u64{1}) << b;
    np[key] = phases[okey];
  }
  qubits = new_qubits;
  phases = std::move(np);
}

/// Sorted union of two qubit lists.
std::vector<int> qubit_union(const std::vector<int>& a,
                             const std::vector<int>& b) {
  std::vector<int> u = a;
  for (int q : b)
    if (index_of(u, q) < 0)
      u.insert(std::upper_bound(u.begin(), u.end(), q), q);
  return u;
}

/// The largest qubit set the rewrite passes multiply dense matrices over,
/// and a fixed buffer for one such matrix.
constexpr std::size_t kMaxDenseQubits = 3;
/// Cap on the qubit count of a fused diagonal op (its phase table has 2^k
/// entries); a diagonal that would push a run past it starts a new op.
constexpr std::size_t kMaxDiagonalQubits = 10;
using Dense = std::array<cplx, 64>;

/// At most kMaxDenseQubits distinct qubits; bit b of a dense matrix over
/// the set is qubit q[b]. absorb() keeps the set sorted.
struct QubitSet {
  int q[kMaxDenseQubits] = {};
  std::size_t size = 0;

  int index(int x) const {
    for (std::size_t i = 0; i < size; ++i)
      if (q[i] == x) return static_cast<int>(i);
    return -1;
  }
  /// Add `op`'s qubits, unless the union would exceed kMaxDenseQubits:
  /// then return false and leave the set as it was.
  bool absorb(const FusedOp& op) {
    QubitSet u = *this;
    const auto add = [&u](int x) {
      if (u.index(x) >= 0) return true;
      if (u.size == kMaxDenseQubits) return false;
      std::size_t at = u.size++;
      for (; at > 0 && u.q[at - 1] > x; --at) u.q[at] = u.q[at - 1];
      u.q[at] = x;
      return true;
    };
    switch (op.kind) {
      case FusedOp::Kind::kMatrix1:
        if (!add(op.q0)) return false;
        break;
      case FusedOp::Kind::kMatrix2:
        if (!add(op.q0) || !add(op.q1)) return false;
        break;
      case FusedOp::Kind::kDiagonal:
        for (int x : op.qubits)
          if (!add(x)) return false;
        break;
      case FusedOp::Kind::kGate:
        break;
    }
    *this = u;
    return true;
  }
};

/// An op's dense matrix in the local basis where bit b is global qubit
/// `qs.q[b]`, written to `out` (row-major, 2^qs.size square). Requires
/// the op's qubits to be a subset of `qs`. Dense ops place each nonzero entry
/// as embed_gate does, +0 plus the entry into a zeroed matrix, which turns
/// a -0 part of the entry into +0.
void embed_op(const FusedOp& op, const QubitSet& qs, cplx* out) {
  const std::size_t d = pow2(static_cast<int>(qs.size));
  std::fill(out, out + d * d, cplx{0.0, 0.0});
  switch (op.kind) {
    case FusedOp::Kind::kMatrix1:
    case FusedOp::Kind::kMatrix2: {
      const int k = op.kind == FusedOp::Kind::kMatrix1 ? 1 : 2;
      const int t[2] = {qs.index(op.q0), k == 2 ? qs.index(op.q1) : 0};
      const u64 gd = u64{1} << k;
      u64 targets = 0;
      for (int b = 0; b < k; ++b) targets |= u64{1} << t[b];
      for (u64 col = 0; col < d; ++col) {
        u64 gcol = 0;
        for (int b = 0; b < k; ++b) gcol |= ((col >> t[b]) & 1) << b;
        for (u64 grow = 0; grow < gd; ++grow) {
          const cplx a = op.m[grow * gd + gcol];
          if (a == cplx{0.0, 0.0}) continue;
          u64 row = col & ~targets;
          for (int b = 0; b < k; ++b) row |= ((grow >> b) & 1) << t[b];
          out[row * d + col] += a;
        }
      }
      return;
    }
    case FusedOp::Kind::kDiagonal: {
      int pos[kMaxDenseQubits];
      for (std::size_t b = 0; b < op.qubits.size(); ++b)
        pos[b] = qs.index(op.qubits[b]);
      for (u64 key = 0; key < d; ++key) {
        u64 dk = 0;
        for (std::size_t b = 0; b < op.qubits.size(); ++b)
          dk |= ((key >> pos[b]) & u64{1}) << b;
        out[key * d + key] = op.phases[dk];
      }
      return;
    }
    case FusedOp::Kind::kGate:
      break;
  }
  QFAB_CHECK_MSG(false, "op has no dense form");
}

bool exactly_diagonal(const cplx* m, std::size_t d) {
  for (std::size_t r = 0; r < d; ++r)
    for (std::size_t c = 0; c < d; ++c)
      if (r != c && !(m[r * d + c] == cplx{0.0, 0.0})) return false;
  return true;
}

/// Convert a 2x2 with exactly zero off-diagonals to kDiagonal.
void dense_to_diagonal(FusedOp& op) {
  op.kind = FusedOp::Kind::kDiagonal;
  op.qubits = {op.q0};
  op.phases = {op.m[0], op.m[3]};
  op.q0 = op.q1 = -1;
  op.m.clear();
}

/// Drop diagonal qubits the table does not depend on (exact equality) and
/// collapse all-constant tables to scalar (k = 0) ops.
bool reduce_diagonal(FusedOp& op) {
  bool changed = false;
  for (std::size_t b = 0; b < op.qubits.size();) {
    const u64 bit = u64{1} << b;
    bool relevant = false;
    for (u64 key = 0; key < op.phases.size() && !relevant; ++key)
      if (!(key & bit) && !(op.phases[key] == op.phases[key | bit]))
        relevant = true;
    if (relevant) {
      ++b;
      continue;
    }
    std::vector<cplx> np(op.phases.size() / 2);
    for (u64 key = 0; key < np.size(); ++key) {
      const u64 low = key & (bit - 1);
      np[key] = op.phases[((key ^ low) << 1) | low];
    }
    op.phases = std::move(np);
    op.qubits.erase(op.qubits.begin() + static_cast<std::ptrdiff_t>(b));
    changed = true;
  }
  if (changed)
    op.max_qubit = op.qubits.empty() ? -1 : op.qubits.back();
  return changed;
}

/// Try to fuse `B` (applied after `A`) into `A`. Accepts only merges whose
/// fused kernel is no more expensive than running the two ops separately.
bool try_merge_ops(FusedOp& A, const FusedOp& B,
                   const std::vector<Gate>& gates) {
  using K = FusedOp::Kind;
  const double budget = op_cost(A, gates) + op_cost(B, gates) + 1e-9;
  const auto finish = [&](K kind) {
    A.kind = kind;
    A.gate_end = B.gate_end;
    A.max_qubit = std::max(A.max_qubit, B.max_qubit);
  };

  // Diagonal x diagonal: pointwise product over the qubit union (B's
  // entry for each union key read through B's own key bits).
  if (A.kind == K::kDiagonal && B.kind == K::kDiagonal) {
    std::size_t union_size = A.qubits.size();
    for (int q : B.qubits) union_size += index_of(A.qubits, q) < 0;
    if (union_size > kMaxDiagonalQubits) return false;
    if (kind_cost(K::kDiagonal, union_size) > budget) return false;
    const std::vector<int> u = qubit_union(A.qubits, B.qubits);
    extend_diagonal(A.qubits, A.phases, u);
    std::array<int, 64> bpos;
    for (std::size_t b = 0; b < B.qubits.size(); ++b)
      bpos[b] = index_of(u, B.qubits[b]);
    for (u64 key = 0; key < A.phases.size(); ++key) {
      u64 bkey = 0;
      for (std::size_t b = 0; b < B.qubits.size(); ++b)
        bkey |= ((key >> bpos[b]) & u64{1}) << b;
      A.phases[key] *= B.phases[bkey];
    }
    finish(K::kDiagonal);
    return true;
  }

  // A CX (the only kMatrix2) merges with nothing pairwise: a 4x4 would
  // cost 4.0, more than a lone CX (0.6) and any other op (at most 2.0)
  // together. Only the sandwich pass multiplies it.
  if (A.kind == K::kMatrix2 || B.kind == K::kMatrix2) return false;

  // 1-qubit dense chains: kMatrix1 with kMatrix1 / single-qubit diagonal /
  // scalar diagonal, all on one qubit.
  if (A.kind != K::kMatrix1 && B.kind != K::kMatrix1) return false;
  QubitSet one;
  if (!one.absorb(A) || !one.absorb(B) || one.size != 1) return false;
  const int q = one.q[0];
  if (kind_cost(K::kMatrix1, 0) > budget) return false;
  const auto to2 = [&](const FusedOp& op) -> std::array<cplx, 4> {
    if (op.kind == K::kMatrix1) return {op.m[0], op.m[1], op.m[2], op.m[3]};
    const cplx p1 = op.qubits.empty() ? op.phases[0] : op.phases[1];
    return {op.phases[0], cplx{0.0, 0.0}, cplx{0.0, 0.0}, p1};
  };
  const std::array<cplx, 4> a = to2(A), b = to2(B);
  A.m.resize(4);
  matmul_flat(b.data(), a.data(), 2, A.m.data());
  A.q0 = q;
  A.qubits.clear();
  A.phases.clear();
  finish(K::kMatrix1);
  return true;
}

/// The op list a compile rewrites, with the change marks the sandwich pass
/// uses to skip windows it has already tried. marks[k] belongs to ops[k]
/// and moves with it.
struct OpList {
  struct Marks {
    /// The tick of the op's last rewrite (0: as converted from its gate).
    std::uint64_t version = 0;
    /// The tick at which the sandwich window starting at this op was last
    /// tried and left uncollapsed (0: never), and the offset of that
    /// window's last op: the op that stopped its growth, if any.
    std::uint64_t tried = 0;
    std::size_t reach = 0;
  };

  std::vector<FusedOp> ops;
  std::vector<Marks> marks;
  std::uint64_t tick = 1;

  void touch(std::size_t k) { marks[k].version = ++tick; }
  void erase(std::size_t begin, std::size_t end) {
    const auto b = static_cast<std::ptrdiff_t>(begin);
    const auto e = static_cast<std::ptrdiff_t>(end);
    ops.erase(ops.begin() + b, ops.begin() + e);
    marks.erase(marks.begin() + b, marks.begin() + e);
  }
  /// Whether the window starting at op i was tried and left uncollapsed
  /// and none of its ops has been rewritten since. A pass neither inserts
  /// ops nor erases one without rewriting a neighbour that survives, so
  /// the window then holds the same ops and its answer is the same.
  bool window_unchanged(std::size_t i) const {
    const Marks& m = marks[i];
    if (m.tried == 0 || i + m.reach >= ops.size()) return false;
    for (std::size_t k = i; k <= i + m.reach; ++k)
      if (marks[k].version > m.tried) return false;
    return true;
  }
  void mark_tried(std::size_t i, std::size_t last) {
    marks[i].tried = tick;
    marks[i].reach = last - i;
  }
};

/// Merge each op into its left neighbour where try_merge_ops accepts it;
/// an op that grew may then merge into the op on its left. The merged ops
/// are compacted in place: ops[0..top] is the merged prefix.
bool merge_pass(OpList& list, const std::vector<Gate>& gates) {
  std::vector<FusedOp>& ops = list.ops;
  if (ops.empty()) return false;
  bool changed = false;
  std::size_t top = 0;
  for (std::size_t next = 1; next < ops.size(); ++next) {
    if (try_merge_ops(ops[top], ops[next], gates)) {
      list.touch(top);
      changed = true;
      while (top > 0 && try_merge_ops(ops[top - 1], ops[top], gates))
        list.touch(--top);
    } else if (++top != next) {
      ops[top] = std::move(ops[next]);
      list.marks[top] = list.marks[next];
    }
  }
  list.erase(top + 1, ops.size());
  return changed;
}

/// Collapse runs confined to a small qubit set (up to 3 qubits, greedily
/// grown from a CX's pair) whose product is *exactly* diagonal
/// (CX·D·CX conjugation yields structural IEEE zeros) into a phase-table
/// op. Each transpiled CP block collapses on its pair; transpiled CCP
/// blocks, whose CX sandwiches straddle three qubits, collapse on a
/// triple. This is the rewrite the pairwise cost gate cannot reach: it
/// must pass through an intermediate dense matrix that is more expensive
/// than its parts. A window whose ops are unchanged since an earlier pass
/// left it uncollapsed is skipped: it would be left uncollapsed again.
bool sandwich_pass(OpList& list, const std::vector<Gate>& gates) {
  std::vector<FusedOp>& ops = list.ops;
  bool changed = false;
  Dense buf0, buf1, factor;
  cplx best_diag[1 << kMaxDenseQubits];
  for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
    if (ops[i].kind != FusedOp::Kind::kMatrix2) continue;
    if (list.window_unchanged(i)) continue;
    // Greedily grow the qubit set over the following ops.
    QubitSet set;
    set.absorb(ops[i]);
    std::size_t j = i + 1;
    while (j < ops.size() && set.absorb(ops[j])) ++j;
    const std::size_t last = j < ops.size() ? j : j - 1;
    if (j < i + 2) {
      list.mark_tried(i, last);
      continue;
    }
    // Longest prefix of the run with an exactly diagonal product.
    const std::size_t d = pow2(static_cast<int>(set.size));
    cplx* prod = buf0.data();
    cplx* next = buf1.data();
    embed_op(ops[i], set, prod);
    double sum = op_cost(ops[i], gates);
    std::size_t best_end = 0;
    double best_sum = 0.0;
    for (std::size_t t = i + 1; t < j; ++t) {
      embed_op(ops[t], set, factor.data());
      matmul_flat(factor.data(), prod, d, next);
      std::swap(prod, next);
      sum += op_cost(ops[t], gates);
      if (exactly_diagonal(prod, d)) {
        best_end = t + 1;
        for (u64 key = 0; key < d; ++key) best_diag[key] = prod[key * d + key];
        best_sum = sum;
      }
    }
    if (best_end == 0) {
      list.mark_tried(i, last);
      continue;
    }
    FusedOp rep;
    rep.kind = FusedOp::Kind::kDiagonal;
    rep.gate_begin = ops[i].gate_begin;
    rep.gate_end = ops[best_end - 1].gate_end;
    rep.qubits.assign(set.q, set.q + set.size);  // local bit b is set.q[b]
    rep.max_qubit = rep.qubits.back();
    rep.phases.assign(best_diag, best_diag + d);
    reduce_diagonal(rep);
    if (op_cost(rep, gates) > best_sum) {
      list.mark_tried(i, last);
      continue;
    }
    list.erase(i + 1, best_end);
    ops[i] = std::move(rep);
    list.touch(i);
    list.marks[i].tried = 0;
    changed = true;
  }
  return changed;
}

/// A kGate op's batched-kernel operands (see FusedOp::m).
std::vector<cplx> gate_kernel_operands(const Gate& g) {
  switch (g.kind) {
    case GateKind::kRZ:
      return {expi(g.param)};
    case GateKind::kSX:
      return to_flat(g.matrix());
    default:
      return {};
  }
}

/// Compile a kDiagonal op's key-extraction plan: one DiagShift per
/// contiguous run of its (sorted) qubits.
void build_diag_shifts(FusedOp& op) {
  op.shifts.clear();
  std::size_t b = 0;
  while (b < op.qubits.size()) {
    std::size_t e = b + 1;
    while (e < op.qubits.size() && op.qubits[e] == op.qubits[e - 1] + 1) ++e;
    FusedOp::DiagShift s;
    s.shift = op.qubits[b];
    s.mask = (u64{1} << (e - b)) - 1;
    s.out = static_cast<int>(b);
    op.shifts.push_back(s);
    b = e;
  }
}

bool simplify_pass(OpList& list) {
  bool changed = false;
  for (std::size_t k = 0; k < list.ops.size(); ++k) {
    FusedOp& op = list.ops[k];
    bool rewritten = false;
    // A CX is never diagonal, so only a 2x2 can become a phase table.
    if (op.kind == FusedOp::Kind::kMatrix1 &&
        exactly_diagonal(op.m.data(), 2)) {
      dense_to_diagonal(op);
      rewritten = true;
    }
    if (op.kind == FusedOp::Kind::kDiagonal) rewritten |= reduce_diagonal(op);
    if (rewritten) {
      list.touch(k);
      changed = true;
    }
  }
  return changed;
}

/// Whether each qubit is superposed: some gate may put it into
/// superposition. Every gate on a classical qubit is diagonal, uses it as
/// a control, or is an X or a CX whose control is classical; an SX
/// superposes its qubit. Marking a control superposed can unclassify an
/// earlier target, so the pass runs to a fixpoint.
std::vector<bool> superposed_qubits(const QuantumCircuit& qc) {
  std::vector<bool> sup(static_cast<std::size_t>(qc.num_qubits()), false);
  bool changed = true;
  const auto mark = [&](int q) {
    if (sup[static_cast<std::size_t>(q)]) return;
    sup[static_cast<std::size_t>(q)] = true;
    changed = true;
  };
  const auto is_sup = [&](int q) { return sup[static_cast<std::size_t>(q)]; };
  while (changed) {
    changed = false;
    for (const Gate& g : qc.gates()) {
      if (gate_is_diagonal(g.kind) || g.kind == GateKind::kX) continue;
      if (g.kind == GateKind::kCX) {
        if (is_sup(g.qubits[1])) mark(g.qubits[0]);
      } else {
        mark(g.qubits[0]);  // SX
      }
    }
  }
  return sup;
}

/// `qc`, after checking that every gate is in the basis a plan compiles.
const QuantumCircuit& check_basis(const QuantumCircuit& qc) {
  for (std::size_t i = 0; i < qc.gates().size(); ++i) {
    const Gate& g = qc.gates()[i];
    QFAB_CHECK_MSG(is_basis_gate(g.kind),
                   "FusedPlan compiles basis circuits only (id, x, sx, rz, "
                   "cx; transpile_to_basis); gate "
                       << i << " is " << g.to_string());
  }
  return qc;
}

/// Superposed qubits low, classical high, each in logical order; null when
/// that is the identity.
std::shared_ptr<const RowLayout> derive_row_layout(const QuantumCircuit& qc) {
  const std::vector<bool> sup = superposed_qubits(qc);
  const int n = qc.num_qubits();
  std::vector<int> phys(static_cast<std::size_t>(n));
  int next = 0;
  for (int pass = 0; pass < 2; ++pass)
    for (int q = 0; q < n; ++q)
      if (sup[static_cast<std::size_t>(q)] == (pass == 0))
        phys[static_cast<std::size_t>(q)] = next++;
  bool identity = true;
  for (int q = 0; q < n; ++q)
    identity &= phys[static_cast<std::size_t>(q)] == q;
  if (identity) return nullptr;
  return std::make_shared<const RowLayout>(std::move(phys));
}

/// `qc` with every qubit mapped into `layout` (null: unchanged).
QuantumCircuit in_rows(const QuantumCircuit& qc, const RowLayout* layout) {
  if (layout == nullptr) return qc;
  QuantumCircuit out = QuantumCircuit::same_shape(qc);
  out.add_global_phase(qc.global_phase());
  for (Gate g : qc.gates()) {
    for (int b = 0; b < g.arity(); ++b) g.qubits[b] = layout->phys(g.qubits[b]);
    out.append(g);
  }
  return out;
}

}  // namespace

RowLayout::RowLayout(std::vector<int> phys)
    : phys_(std::move(phys)), logical_(phys_.size()) {
  const std::size_t n = phys_.size();
  for (std::size_t q = 0; q < n; ++q)
    logical_[static_cast<std::size_t>(phys_[q])] = static_cast<int>(q);
  const std::size_t bytes = (n + 7) / 8;
  to_row_.assign(bytes * 256, 0);
  to_logical_.assign(bytes * 256, 0);
  for (std::size_t b = 0; b < bytes; ++b)
    for (u64 v = 0; v < 256; ++v)
      for (std::size_t k = 0; k < 8 && 8 * b + k < n; ++k)
        if ((v >> k) & 1) {
          to_row_[b * 256 + v] |= u64{1} << phys_[8 * b + k];
          to_logical_[b * 256 + v] |= u64{1} << logical_[8 * b + k];
        }
}

FusedPlan::FusedPlan(const QuantumCircuit& qc, const FusionOptions& options)
    : FusedPlan(qc, options, std::make_shared<SliceStore>()) {}

FusedPlan::FusedPlan(const QuantumCircuit& qc, const FusionOptions& options,
                     std::shared_ptr<SliceStore> store)
    : layout_(derive_row_layout(check_basis(qc))),
      circuit_(in_rows(qc, layout_.get())),
      options_(options),
      store_owner_(std::move(store)),
      store_(store_owner_.get()) {
  QFAB_CHECK(store_ != nullptr);
  compile();
}

FusedPlan::FusedPlan(QuantumCircuit&& slice, const FusionOptions& options,
                     SliceStore& store, SliceTag)
    : circuit_(std::move(slice)), options_(options), store_(&store) {
  compile();
}

const FusedPlan& FusedPlan::subrange_plan(std::size_t gate_begin,
                                          std::size_t gate_end) const {
  QFAB_CHECK(gate_begin <= gate_end && gate_end <= gate_count());
  return store_->slice(circuit_, gate_begin, gate_end, options_);
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

bool same_gate(const Gate& a, const Gate& b) {
  return a.kind == b.kind && a.qubits == b.qubits &&
         std::bit_cast<std::uint64_t>(a.param) ==
             std::bit_cast<std::uint64_t>(b.param);
}

}  // namespace

const FusedPlan& SliceStore::slice(const QuantumCircuit& source,
                                   std::size_t gate_begin,
                                   std::size_t gate_end,
                                   const FusionOptions& options) {
  const Gate* gates = source.gates().data() + gate_begin;
  const std::size_t count = gate_end - gate_begin;
  const int n = source.num_qubits();
  std::uint64_t key =
      mix(0xcbf29ce484222325ULL, static_cast<std::uint64_t>(n));
  key = mix(key, options.enable);
  for (std::size_t g = 0; g < count; ++g) {
    key = mix(key, static_cast<std::uint64_t>(gates[g].kind));
    for (int q : gates[g].qubits) key = mix(key, static_cast<std::uint64_t>(q));
    key = mix(key, std::bit_cast<std::uint64_t>(gates[g].param));
  }
  const auto match = [&](const FusedPlan& plan) {
    if (plan.circuit_.num_qubits() != n || plan.gate_count() != count ||
        plan.options_ != options)
      return false;
    for (std::size_t g = 0; g < count; ++g)
      if (!same_gate(plan.circuit_.gates()[g], gates[g])) return false;
    return true;
  };
  // The stored slice under `key` that `match` accepts, or null.
  const auto find = [&]() -> const FusedPlan* {
    const auto [lo, hi] = slices_.equal_range(key);
    for (auto it = lo; it != hi; ++it)
      if (match(*it->second)) return it->second.get();
    return nullptr;
  };
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (const FusedPlan* hit = find()) return *hit;
  }
  QuantumCircuit sub(n);
  for (std::size_t g = 0; g < count; ++g) sub.append(gates[g]);
  std::unique_ptr<const FusedPlan> built(
      new FusedPlan(std::move(sub), options, *this, FusedPlan::SliceTag{}));
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (const FusedPlan* won = find()) return *won;
  return *slices_.emplace(key, std::move(built))->second;
}

u64 FusedPlan::op_coupling_mask(std::size_t op_index) const {
  QFAB_CHECK(op_index < ops_.size());
  const FusedOp& op = ops_[op_index];
  if (op.kind == FusedOp::Kind::kDiagonal) return 0;
  if (op.kind == FusedOp::Kind::kMatrix1) return u64{1} << op.q0;
  // kGate: RZ and Id couple nothing; X and SX couple their qubit, and a CX
  // its target, qubits[0] (the control only selects rows).
  const Gate& g = circuit_.gates()[op.gate_begin];
  return gate_is_diagonal(g.kind) ? 0 : u64{1} << g.qubits[0];
}

std::size_t FusedPlan::op_of_gate(std::size_t gate_index) const {
  QFAB_CHECK(gate_index < op_of_gate_.size());
  return op_of_gate_[gate_index];
}

void FusedPlan::compile() {
  const auto& gates = circuit_.gates();
  OpList list;
  std::vector<FusedOp>& ops = list.ops;
  ops.reserve(gates.size());

  // Convert gates 1:1 into ops (the constructors admit basis gates only);
  // all fusion happens in the rewrite passes.
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    const bool diag = gate_is_diagonal(g.kind);
    const int arity = g.arity();

    FusedOp op;
    op.gate_begin = i;
    op.gate_end = i + 1;
    op.max_qubit = gate_max_qubit(g);
    if (!options_.enable) {
      op.kind = FusedOp::Kind::kGate;
    } else if (diag) {
      op.kind = FusedOp::Kind::kDiagonal;
      for (int b = 0; b < arity; ++b) op.qubits.push_back(g.qubits[b]);
      std::sort(op.qubits.begin(), op.qubits.end());
      op.phases.assign(pow2(arity), cplx{1.0, 0.0});
      const std::vector<cplx> gd = gate_diagonal(g);
      int gpos[3] = {0, 0, 0};
      for (int b = 0; b < arity; ++b)
        gpos[b] = index_of(op.qubits, g.qubits[b]);
      for (u64 key = 0; key < op.phases.size(); ++key) {
        u64 gk = 0;
        for (int b = 0; b < arity; ++b)
          gk |= ((key >> gpos[b]) & u64{1}) << b;
        op.phases[key] = gd[gk];
      }
    } else if (arity == 1) {
      op.kind = FusedOp::Kind::kMatrix1;
      op.q0 = g.qubits[0];
      op.m = to_flat(g.matrix());
    } else {
      // A CX enters the passes as a 4x4, so that sandwich_pass can
      // multiply it; the demotion below turns it back into a kGate op.
      op.kind = FusedOp::Kind::kMatrix2;
      op.q0 = g.qubits[0];
      op.q1 = g.qubits[1];
      op.m = to_flat(g.matrix());
    }
    ops.push_back(std::move(op));
  }
  list.marks.resize(ops.size());

  if (options_.enable) {
    // Rewrite to a fixpoint. Each pass either shrinks the op list or
    // strictly simplifies an op's representation, so this terminates.
    bool changed = true;
    while (changed) {
      changed = merge_pass(list, gates);
      changed |= sandwich_pass(list, gates);
      changed |= simplify_pass(list);
    }
  }

  // Ops that ended up covering a single gate run faster on the specialized
  // per-gate kernels (a lone CX is a quarter-swap, not a dense 4x4). Every
  // 4x4 is a lone CX, so none survives: the batched walk has no 4x4
  // kernel.
  for (FusedOp& op : ops) {
    if (op.gate_count() == 1 && op.kind != FusedOp::Kind::kGate) {
      op.kind = FusedOp::Kind::kGate;
      op.qubits.clear();
      op.phases.clear();
    }
    QFAB_CHECK_MSG(op.kind != FusedOp::Kind::kMatrix2,
                   "a 4x4 op survived compile: gates [" << op.gate_begin
                       << ", " << op.gate_end << ")");
    if (op.kind == FusedOp::Kind::kGate)
      op.m = gate_kernel_operands(gates[op.gate_begin]);
  }

  for (FusedOp& op : ops)
    if (op.kind == FusedOp::Kind::kDiagonal && op.qubits.size() >= 2)
      build_diag_shifts(op);

  op_of_gate_.assign(gates.size(), 0);
  for (std::size_t o = 0; o < ops.size(); ++o)
    for (std::size_t g = ops[o].gate_begin; g < ops[o].gate_end; ++g)
      op_of_gate_[g] = static_cast<std::uint32_t>(o);
  ops_ = std::move(ops);
}

}  // namespace qfab
