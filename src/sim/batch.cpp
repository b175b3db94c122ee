#include "sim/batch.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/bits.h"
#include "common/check.h"
#include "common/fault.h"

namespace qfab {

namespace detail {

namespace {
std::atomic<bool> g_batch_fault{false};
std::atomic<bool> g_portable_kernels{false};
}  // namespace

void set_batch_fault_injection(bool on) {
  g_batch_fault.store(on, std::memory_order_relaxed);
}

bool batch_fault_injection() {
  return g_batch_fault.load(std::memory_order_relaxed);
}

void set_portable_kernels(bool on) {
  g_portable_kernels.store(on, std::memory_order_relaxed);
}

}  // namespace detail

namespace {

cplx expi(double t) { return {std::cos(t), std::sin(t)}; }

/// One build of the batched kernels for one amplitude precision: one entry
/// per op kind a plan compiles, plus the single-lane Pauli. All kernels take
/// the chunk's global base row (diagonal key gathers and cross-tile pairs
/// need it), the full lane stride L and the active lane-group width
/// G <= L, and each is correct at any qubit span relative to the chunk
/// (batch_kernels.inc).
template <typename Real>
struct BatchKernelTable {
  void (*matrix1)(Real*, Real*, u64, u64, u64, u64, int, const cplx*);
  void (*diag1)(Real*, Real*, u64, u64, u64, u64, int, const cplx*);
  void (*diag)(Real*, Real*, u64, u64, u64, u64, const FusedOp::DiagShift*,
               int, const cplx*);
  // Per-gate kernel of a kGate op: the gate plus its operands decoded at
  // plan compile (FusedOp::m).
  void (*gate)(Real*, Real*, u64, u64, u64, u64, const Gate&, const cplx*);
  // Single-lane Pauli: planes offset to the chunk and the lane; base, len,
  // L, Pauli, qubit.
  void (*pauli)(Real*, Real*, u64, u64, u64, Pauli, int);
};

#define QFAB_RESTRICT __restrict__

// Kernel bodies are templates on their lane count W (batch_kernels.inc):
// 1, kWideLanes — the default batch width (RunOptions::batch_lanes), so a
// full group's full-width steps also get a compile-time trip count — or 0
// for the runtime G. Each table entry calls the instance matching G.
constexpr int kWideLanes = 8;
#define QFAB_BY_WIDTH(fn, ...)                             \
  (G == 1 ? fn<1>(__VA_ARGS__)                             \
          : G == kWideLanes ? fn<kWideLanes>(__VA_ARGS__) \
                            : fn<0>(__VA_ARGS__))

// Three builds of the kernel bodies. The portable double and float builds
// are plain C++, autovectorized for the baseline ISA. The AVX2 double build
// compiles the same bodies under target("avx2"), so the binary still runs
// on any x86-64 host, and CPUID picks it once (active_table). It has no
// FMA, and src/CMakeLists.txt compiles every library with
// -ffp-contract=off, so no a*b+c is contracted on any host: the AVX2 and
// portable double tables are bitwise equal (tests/test_batch.cpp, LaneSpan
// and RowLayout) and the figure CSVs are the same bytes everywhere.
// Float32 has only the portable build: no vector build of it beat the
// portable one on a measured panel (DESIGN.md §11 "Tiers").
namespace ker_portable_f64 {
using kreal = double;
#define QFAB_KERNEL_ATTR
#include "sim/batch_kernels.inc"
#undef QFAB_KERNEL_ATTR
}  // namespace ker_portable_f64

namespace ker_portable_f32 {
using kreal = float;
#define QFAB_KERNEL_ATTR
#include "sim/batch_kernels.inc"
#undef QFAB_KERNEL_ATTR
}  // namespace ker_portable_f32

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define QFAB_HAVE_AVX2_TABLE 1
namespace ker_avx2_f64 {
using kreal = double;
#define QFAB_KERNEL_ATTR __attribute__((target("avx2")))
#include "sim/batch_kernels.inc"
#undef QFAB_KERNEL_ATTR
}  // namespace ker_avx2_f64
#else
#define QFAB_HAVE_AVX2_TABLE 0
#endif

const BatchKernelTable<double> kPortableF64 = ker_portable_f64::kernel_table();
const BatchKernelTable<float> kPortableF32 = ker_portable_f32::kernel_table();
#if QFAB_HAVE_AVX2_TABLE
const BatchKernelTable<double> kAvx2F64 = ker_avx2_f64::kernel_table();
#endif

/// The double table CPUID selects, once per process.
const BatchKernelTable<double>& native_f64() {
#if QFAB_HAVE_AVX2_TABLE
  static const BatchKernelTable<double>& native =
      __builtin_cpu_supports("avx2") ? kAvx2F64 : kPortableF64;
  return native;
#else
  return kPortableF64;
#endif
}

/// The table batched `Real` kernels run: the one float32 build, or the
/// native double table unless detail::set_portable_kernels forces the
/// portable one.
template <typename Real>
const BatchKernelTable<Real>& active_table() {
  if constexpr (std::is_same_v<Real, float>) {
    return kPortableF32;
  } else {
    return detail::g_portable_kernels.load(std::memory_order_relaxed)
               ? kPortableF64
               : native_f64();
  }
}

}  // namespace

template <typename Real>
const char* kernel_tier_name() {
  if constexpr (std::is_same_v<Real, float>) {
    return "scalar";
  } else {
    return &active_table<double>() == &kPortableF64 ? "scalar" : "avx2";
  }
}

template const char* kernel_tier_name<double>();
template const char* kernel_tier_name<float>();

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kDouble: return "double";
    case Precision::kFloat32: return "float32";
    default: return "auto";
  }
}

// ---------------------------------------------------------------------------
// BatchedStateVectorT
// ---------------------------------------------------------------------------

namespace {

/// Mask of lanes [first, first + count).
u64 lane_bits(u64 first, u64 count) {
  return (count >= 64 ? ~u64{0} : (u64{1} << count) - 1) << first;
}

u64 row_of(const RowLayout* layout, u64 index) {
  return layout ? layout->to_row(index) : index;
}

u64 index_of_row(const RowLayout* layout, u64 row) {
  return layout ? layout->to_logical(row) : row;
}

}  // namespace

template <typename Real>
BatchedStateVectorT<Real>::BatchedStateVectorT(
    int num_qubits, int lanes, std::shared_ptr<const RowLayout> layout) {
  reset(num_qubits, lanes, std::move(layout));
  zero_tile(0);
  for (int l = 0; l < lanes_; ++l) re_[static_cast<std::size_t>(l)] = Real{1};
  live_[0] = lane_bits(0, static_cast<u64>(lanes_));
}

template <typename Real>
BatchedStateVectorT<Real>::BatchedStateVectorT(
    const BatchedStateVectorT& other) {
  *this = other;
}

template <typename Real>
BatchedStateVectorT<Real>& BatchedStateVectorT<Real>::operator=(
    const BatchedStateVectorT& other) {
  if (this == &other) return *this;
  num_qubits_ = other.num_qubits_;
  lanes_ = other.lanes_;
  tb_ = other.tb_;
  packed_ = other.packed_;
  pending_ = other.pending_;
  live_ = other.live_;
  slot_ = other.slot_;
  layout_ = other.layout_;
  size_planes(other.re_.size());
  const u64 stride = tile_rows() * static_cast<u64>(lanes_);
  for (u64 t = 0; t < live_.size(); ++t) {
    if (live_[t] == 0) continue;
    const u64 off = tile_offset(t);
    std::copy_n(other.re_.data() + off, stride, re_.data() + off);
    std::copy_n(other.im_.data() + off, stride, im_.data() + off);
  }
  return *this;
}

template <typename Real>
void BatchedStateVectorT<Real>::reset(int num_qubits, int lanes,
                                      std::shared_ptr<const RowLayout> layout) {
  QFAB_CHECK_MSG(num_qubits >= 1 && num_qubits <= 30,
                 "unsupported qubit count " << num_qubits);
  QFAB_CHECK_MSG(lanes >= 1 && lanes <= kMaxLanes,
                 "unsupported lane count " << lanes);
  QFAB_CHECK(!layout || layout->num_qubits() == num_qubits);
  num_qubits_ = num_qubits;
  lanes_ = lanes;
  tb_ = batched_tile_rows_log2(lanes, num_qubits, sizeof(Real));
  packed_ = false;
  layout_ = std::move(layout);
  size_planes(dim() * static_cast<std::size_t>(lanes_));
  pending_.assign(static_cast<std::size_t>(lanes_), 0.0);
  live_.assign(tile_count(), 0);
  slot_.clear();
}

template <typename Real>
void BatchedStateVectorT<Real>::size_planes(std::size_t total) {
  // Clearing first: a reallocation then moves no stale rows.
  re_.clear();
  im_.clear();
  re_.resize(total);
  im_.resize(total);
}

template <typename Real>
void BatchedStateVectorT<Real>::zero_tile(u64 t) {
  const u64 stride = tile_rows() * static_cast<u64>(lanes_);
  std::fill_n(re_.data() + t * stride, stride, Real{0});
  std::fill_n(im_.data() + t * stride, stride, Real{0});
}

template <typename Real>
void BatchedStateVectorT<Real>::make_dense() {
  QFAB_CHECK(!packed_);
  for (u64 t = 0; t < live_.size(); ++t) {
    if (live_[t] == 0) zero_tile(t);
    live_[t] = lane_bits(0, static_cast<u64>(lanes_));
  }
}

template <typename Real>
void BatchedStateVectorT<Real>::set_lane(int lane,
                                         const std::vector<BasisTerm>& terms) {
  QFAB_CHECK(lane >= 0 && lane < lanes_);
  QFAB_CHECK(!packed_);
  const u64 L = static_cast<u64>(lanes_);
  const u64 col = static_cast<u64>(lane);
  const u64 bit = u64{1} << lane;
  // Drop the lane's old data: its column goes to exact zeros wherever the
  // tile stays live for other lanes.
  for (u64 t = 0; t < live_.size(); ++t) {
    if (!(live_[t] & bit)) continue;
    live_[t] &= ~bit;
    if (live_[t] == 0) continue;
    for (u64 row = t << tb_; row < (t + 1) << tb_; ++row) {
      re_[row * L + col] = Real{0};
      im_[row * L + col] = Real{0};
    }
  }
  for (const BasisTerm& term : terms) {
    QFAB_CHECK(term.index < dim());
    if (term.amplitude == cplx{0.0, 0.0}) continue;
    const u64 row = row_of(layout_.get(), term.index);
    const u64 t = row >> tb_;
    if (!(live_[t] & bit)) {
      if (live_[t] == 0) zero_tile(t);
      live_[t] |= bit;
    }
    re_[row * L + col] = static_cast<Real>(term.amplitude.real());
    im_[row * L + col] = static_cast<Real>(term.amplitude.imag());
  }
  pending_[static_cast<std::size_t>(lane)] = 0.0;
}

template <typename Real>
void BatchedStateVectorT<Real>::broadcast(const StateVector& sv) {
  QFAB_CHECK(sv.num_qubits() == num_qubits_);
  QFAB_CHECK(!packed_);
  const std::vector<cplx>& a = sv.amplitudes();
  const RowLayout* layout = layout_.get();
  const u64 all = lane_bits(0, static_cast<u64>(lanes_));
  std::fill(live_.begin(), live_.end(), 0);
  for (u64 i = 0; i < a.size(); ++i)
    if (!(a[i] == cplx{0.0, 0.0})) live_[row_of(layout, i) >> tb_] = all;
  const u64 L = static_cast<u64>(lanes_);
  for (u64 t = 0; t < live_.size(); ++t) {
    if (live_[t] == 0) continue;
    for (u64 row = t << tb_; row < (t + 1) << tb_; ++row) {
      const cplx v = a[index_of_row(layout, row)];
      const Real ar = static_cast<Real>(v.real());
      const Real ai = static_cast<Real>(v.imag());
      Real* r = re_.data() + row * L;
      Real* m = im_.data() + row * L;
      for (u64 l = 0; l < L; ++l) {
        r[l] = ar;
        m[l] = ai;
      }
    }
  }
  std::fill(pending_.begin(), pending_.end(), 0.0);
}

template <typename Real>
StateVector BatchedStateVectorT<Real>::lane_state(int lane) const {
  QFAB_CHECK(lane >= 0 && lane < lanes_);
  const u64 L = static_cast<u64>(lanes_);
  const u64 bit = u64{1} << lane;
  const cplx ph = expi(pending_[static_cast<std::size_t>(lane)]);
  std::vector<cplx> amps(dim());
  for (u64 t = 0; t < live_.size(); ++t) {
    if (!(live_[t] & bit)) continue;
    const Real* r = re_.data() + tile_offset(t) + lane;
    const Real* m = im_.data() + tile_offset(t) + lane;
    for (u64 k = 0; k < tile_rows(); ++k)
      amps[index_of_row(layout_.get(), (t << tb_) | k)] =
          cplx{static_cast<double>(r[k * L]), static_cast<double>(m[k * L])} *
          ph;
  }
  return StateVector::from_amplitudes(std::move(amps));
}

template <typename Real>
template <typename SrcReal>
void BatchedStateVectorT<Real>::assign_permuted(
    const BatchedStateVectorT<SrcReal>& src, const std::vector<int>& lane_map) {
  QFAB_CHECK(static_cast<const void*>(this) != static_cast<const void*>(&src));
  QFAB_CHECK(!lane_map.empty() &&
             lane_map.size() <= static_cast<std::size_t>(kMaxLanes));
  for (int l : lane_map) QFAB_CHECK(l >= 0 && l < src.lanes_);
  reset(src.num_qubits_, static_cast<int>(lane_map.size()), src.layout_);
  const u64 L = static_cast<u64>(lanes_);
  const u64 S = static_cast<u64>(src.lanes_);
  for (u64 j = 0; j < L; ++j)
    pending_[j] = src.pending_[static_cast<std::size_t>(lane_map[j])];
  // Masks through the lane map, then across tile heights (a float tile is
  // twice as tall as a double tile of the same lane count; more lanes make
  // tiles shorter).
  const int d = tb_ - src.tb_;
  for (u64 t = 0; t < src.live_.size(); ++t) {
    if (src.live_[t] == 0) continue;
    u64 m = 0;
    for (u64 j = 0; j < L; ++j)
      m |= ((src.live_[t] >> lane_map[j]) & 1) << j;
    if (m == 0) continue;
    if (d >= 0) {
      live_[t >> d] |= m;
    } else {
      for (u64 s = 0; s < (u64{1} << -d); ++s) live_[(t << -d) + s] |= m;
    }
  }
  // Rows of every live tile, from src's tiles or exact zeros where src
  // holds no data.
  const u64 chunk = u64{1} << std::min(tb_, src.tb_);
  for (u64 t = 0; t < live_.size(); ++t) {
    if (live_[t] == 0) continue;
    for (u64 r0 = t << tb_; r0 < (t + 1) << tb_; r0 += chunk) {
      const u64 st = r0 >> src.tb_;
      Real* dr = re_.data() + r0 * L;
      Real* dm = im_.data() + r0 * L;
      if (src.live_[st] == 0) {
        std::fill_n(dr, chunk * L, Real{0});
        std::fill_n(dm, chunk * L, Real{0});
        continue;
      }
      const u64 soff =
          src.tile_offset(st) + (r0 & (src.tile_rows() - 1)) * S;
      const SrcReal* sr = src.re_.data() + soff;
      const SrcReal* sm = src.im_.data() + soff;
      for (u64 k = 0; k < chunk; ++k, sr += S, sm += S, dr += L, dm += L)
        for (u64 j = 0; j < L; ++j) {
          const u64 s = static_cast<u64>(lane_map[j]);
          dr[j] = static_cast<Real>(sr[s]);
          dm[j] = static_cast<Real>(sm[s]);
        }
    }
  }
}

template <typename Real>
BatchedStateVectorT<Real> BatchedStateVectorT<Real>::packed() const {
  if (packed_) return *this;
  BatchedStateVectorT out(1, 1);
  out.num_qubits_ = num_qubits_;
  out.lanes_ = lanes_;
  out.tb_ = tb_;
  out.packed_ = true;
  out.pending_ = pending_;
  out.live_ = live_;
  out.layout_ = layout_;
  out.slot_.assign(live_.size(), 0);
  std::uint32_t n = 0;
  for (u64 t = 0; t < live_.size(); ++t)
    if (live_[t] != 0) out.slot_[t] = n++;
  const u64 stride = tile_rows() * static_cast<u64>(lanes_);
  out.size_planes(n * stride);
  for (u64 t = 0; t < live_.size(); ++t) {
    if (live_[t] == 0) continue;
    std::copy_n(re_.data() + tile_offset(t), stride,
                out.re_.data() + out.tile_offset(t));
    std::copy_n(im_.data() + tile_offset(t), stride,
                out.im_.data() + out.tile_offset(t));
  }
  return out;
}

template <typename Real>
void BatchedStateVectorT<Real>::apply_pauli(int lane, Pauli p, int q) {
  QFAB_CHECK(lane >= 0 && lane < lanes_);
  QFAB_CHECK(q >= 0 && q < num_qubits_);
  const BatchWalkStep step =
      BatchWalkStep::pauli_step(lane, p, layout_ ? layout_->phys(q) : q);
  walk(&step, 1);
}

template <typename Real>
void BatchedStateVectorT<Real>::apply_global_phase(double phase) {
  for (double& p : pending_) p += phase;
}

template <typename Real>
void BatchedStateVectorT<Real>::apply_lane_global_phase(int lane,
                                                        double phase) {
  QFAB_CHECK(lane >= 0 && lane < lanes_);
  pending_[static_cast<std::size_t>(lane)] += phase;
}

template <typename Real>
std::vector<double> BatchedStateVectorT<Real>::lane_probabilities(
    int lane) const {
  QFAB_CHECK(lane >= 0 && lane < lanes_);
  const u64 L = static_cast<u64>(lanes_);
  const u64 bit = u64{1} << lane;
  std::vector<double> p(dim(), 0.0);
  for (u64 t = 0; t < live_.size(); ++t) {
    if (!(live_[t] & bit)) continue;
    const Real* r = re_.data() + tile_offset(t) + lane;
    const Real* m = im_.data() + tile_offset(t) + lane;
    for (u64 k = 0; k < tile_rows(); ++k) {
      const double ar = r[k * L], ai = m[k * L];
      p[index_of_row(layout_.get(), (t << tb_) | k)] = ar * ar + ai * ai;
    }
  }
  return p;
}

template <typename Real>
void BatchedStateVectorT<Real>::accumulate_marginals(
    const std::vector<int>& qubits, int lane_lo, int width,
    double* acc) const {
  QFAB_CHECK(!qubits.empty() &&
             qubits.size() <= static_cast<std::size_t>(num_qubits_));
  for (int q : qubits) QFAB_CHECK(q >= 0 && q < num_qubits_);
  const RowLayout* layout = layout_.get();
  const std::size_t k = qubits.size();
  std::vector<int> pos(k);  // row bit of each key bit
  for (std::size_t b = 0; b < k; ++b)
    pos[b] = layout ? layout->phys(qubits[b]) : qubits[b];
  // A key's rows add in ascending row order. That is ascending logical
  // order, the identity layout's, when the qubits outside the key keep
  // their relative order in the layout, as they do for every output
  // register of the paper's circuits.
  bool contiguous = true;
  for (std::size_t b = 0; b < k; ++b)
    contiguous &= pos[b] == pos[0] + static_cast<int>(b);
  const u64 key_mask = pow2(static_cast<int>(k)) - 1;
  const auto gather = [&](u64 row) {
    u64 key = 0;
    for (std::size_t b = 0; b < k; ++b)
      key |= static_cast<u64>(get_bit(row, pos[b])) << b;
    return key;
  };
  const u64 L = static_cast<u64>(lanes_);
  const u64 W = static_cast<u64>(width);
  const u64 lanes = lane_bits(static_cast<u64>(lane_lo), W);
  const auto add_row = [&](const Real* r, const Real* m, u64 key) {
    double* a = acc + key * W;
    for (u64 l = 0; l < W; ++l) {
      const double ar = r[l], ai = m[l];
      a[l] += ar * ar + ai * ai;
    }
  };
  for (u64 t = 0; t < live_.size(); ++t) {
    if (!(live_[t] & lanes)) continue;
    const Real* r = re_.data() + tile_offset(t) + lane_lo;
    const Real* m = im_.data() + tile_offset(t) + lane_lo;
    for (u64 row = t << tb_; row < (t + 1) << tb_; ++row, r += L, m += L)
      add_row(r, m, contiguous ? (row >> pos[0]) & key_mask : gather(row));
  }
}

template <typename Real>
std::vector<double> BatchedStateVectorT<Real>::lane_marginal_probabilities(
    int lane, const std::vector<int>& qubits) const {
  QFAB_CHECK(lane >= 0 && lane < lanes_);
  QFAB_CHECK(!qubits.empty() &&
             qubits.size() <= static_cast<std::size_t>(num_qubits_));
  std::vector<double> out(pow2(static_cast<int>(qubits.size())), 0.0);
  accumulate_marginals(qubits, lane, 1, out.data());
  return out;
}

template <typename Real>
std::vector<std::vector<double>>
BatchedStateVectorT<Real>::all_lane_marginal_probabilities(
    const std::vector<int>& qubits) const {
  std::vector<std::vector<double>> out;
  std::vector<double> scratch;
  all_lane_marginal_probabilities(qubits, out, scratch);
  return out;
}

template <typename Real>
void BatchedStateVectorT<Real>::all_lane_marginal_probabilities(
    const std::vector<int>& qubits, std::vector<std::vector<double>>& out,
    std::vector<double>& scratch) const {
  QFAB_CHECK(!qubits.empty() &&
             qubits.size() <= static_cast<std::size_t>(num_qubits_));
  const u64 L = static_cast<u64>(lanes_);
  const u64 out_size = pow2(static_cast<int>(qubits.size()));
  // acc[key * L + lane]: per amplitude row the accumulation is one
  // unit-stride fused multiply-add over the lanes (always in double, so
  // the float tier loses precision only in the amplitudes themselves, not
  // the reduction). Additions land per (lane, key) in ascending row order
  // — exactly the order lane_marginal_probabilities uses — so the results
  // are bitwise equal; lanes clear in a live tile add exact zeros.
  scratch.assign(out_size * L, 0.0);
  accumulate_marginals(qubits, 0, lanes_, scratch.data());
  const double* acc = scratch.data();
  out.resize(static_cast<std::size_t>(lanes_));
  for (u64 l = 0; l < L; ++l) {
    out[l].resize(out_size);
    for (u64 k = 0; k < out_size; ++k) out[l][k] = acc[k * L + l];
  }
}

template <typename Real>
double BatchedStateVectorT<Real>::lane_norm(int lane) const {
  QFAB_CHECK(lane >= 0 && lane < lanes_);
  const u64 L = static_cast<u64>(lanes_);
  const u64 bit = u64{1} << lane;
  double s = 0.0;
  for (u64 t = 0; t < live_.size(); ++t) {
    if (!(live_[t] & bit)) continue;
    const Real* r = re_.data() + tile_offset(t) + lane;
    const Real* m = im_.data() + tile_offset(t) + lane;
    for (u64 k = 0; k < tile_rows(); ++k) {
      const double ar = r[k * L], ai = m[k * L];
      s += ar * ar + ai * ai;
    }
  }
  return std::sqrt(s);
}

// ---------------------------------------------------------------------------
// Batched plan execution
// ---------------------------------------------------------------------------

namespace {

/// Scalar op work routed to the pending phases of lanes [lane_begin,
/// lane_begin + lane_count) exactly once per op span (never per tile): RZ
/// prefactors of passthrough gates and k = 0 diagonal ops
/// (identity-up-to-phase products).
template <typename Real>
void add_pending_span(const FusedPlan& plan, BatchedStateVectorT<Real>& bsv,
                      const FusedOp& op, int lane_begin, int lane_count) {
  if (op.kind == FusedOp::Kind::kGate) {
    const Gate& gate = plan.circuit().gates()[op.gate_begin];
    if (gate.kind != GateKind::kRZ) return;
    for (int l = lane_begin; l < lane_begin + lane_count; ++l)
      bsv.apply_lane_global_phase(l, -gate.param / 2);
  } else if (op.kind == FusedOp::Kind::kDiagonal && op.qubits.empty()) {
    for (int l = lane_begin; l < lane_begin + lane_count; ++l)
      bsv.apply_lane_global_phase(l, std::arg(op.phases[0]));
  }
}

/// One op on the chunk at global row `base`: a compiled op is a kGate, a
/// 2x2 or a phase table (FusedPlan::compile leaves no other kind).
template <typename Real>
void apply_chunk(const BatchKernelTable<Real>& K, const FusedPlan& plan,
                 Real* re, Real* im, u64 base, u64 len, u64 L, u64 G,
                 const FusedOp& op) {
  if (op.kind == FusedOp::Kind::kGate) {
    K.gate(re, im, base, len, L, G, plan.circuit().gates()[op.gate_begin],
           op.m.data());
  } else if (op.kind == FusedOp::Kind::kDiagonal) {
    if (op.qubits.empty()) return;  // handled by add_pending_span
    if (op.qubits.size() == 1)
      K.diag1(re, im, base, len, L, G, op.qubits[0], op.phases.data());
    else
      K.diag(re, im, base, len, L, G, op.shifts.data(),
             static_cast<int>(op.shifts.size()), op.phases.data());
  } else if (detail::batch_fault_injection()) {
    // Emulated kernel regression (see batch.h): one flipped sign.
    const cplx m[4] = {op.m[0], op.m[1], op.m[2], -op.m[3]};
    K.matrix1(re, im, base, len, L, G, op.q0, m);
  } else {
    K.matrix1(re, im, base, len, L, G, op.q0, op.m.data());
  }
}

/// A walk step resolved once per walk for the tile loop.
struct ResolvedStep {
  const FusedPlan* plan;  // null = Pauli step
  const FusedOp* op;
  u64 lane;    // op steps: first lane of the span; Pauli steps: the lane
  u64 width;   // op steps: lanes in the span
  u64 lanes;   // mask of the lanes the step touches
  u64 high;    // coupling bits at or above the tile
  Pauli pauli;
  int qubit;
};

std::vector<ResolvedStep>& resolved_steps_scratch() {
  thread_local std::vector<ResolvedStep> steps;
  return steps;
}

/// Walk steps of a whole-batch range, reused per thread so a clean run or
/// checkpoint load allocates no step list.
std::vector<BatchWalkStep>& range_steps_scratch() {
  thread_local std::vector<BatchWalkStep> steps;
  return steps;
}

}  // namespace

namespace detail {

template <typename Real>
void maybe_inject_nan(BatchedStateVectorT<Real>& bsv, std::size_t gate_begin,
                      std::size_t gate_end) {
  if (!fault::nan_fault_active() ||
      !fault::take_nan_charge(gate_begin, gate_end))
    return;
  const std::vector<u64>& live = bsv.live_masks();
  for (u64 t = 0; t < live.size(); ++t)
    if (live[t] & 1) {
      bsv.re()[(t << bsv.tile_log2()) * static_cast<u64>(bsv.lanes())] =
          std::numeric_limits<Real>::quiet_NaN();
      return;
    }
}

template void maybe_inject_nan<double>(BatchedStateVector&, std::size_t,
                                       std::size_t);
template void maybe_inject_nan<float>(BatchedStateVectorF&, std::size_t,
                                      std::size_t);

}  // namespace detail

void append_range_steps(const FusedPlan& plan, std::size_t gate_begin,
                        std::size_t gate_end, int lane_begin, int lane_count,
                        std::vector<BatchWalkStep>& steps) {
  QFAB_CHECK(gate_begin <= gate_end && gate_end <= plan.gate_count());
  const auto& ops = plan.ops();
  std::size_t g = gate_begin;
  while (g < gate_end) {
    const std::size_t oi = plan.op_of_gate(g);
    const FusedOp& op = ops[oi];
    if (op.gate_begin == g && op.gate_end <= gate_end) {
      std::size_t oj = oi;
      while (oj < ops.size() && ops[oj].gate_end <= gate_end) {
        steps.push_back(
            BatchWalkStep::op_span_step(&plan, oj, lane_begin, lane_count));
        ++oj;
      }
      g = ops[oj - 1].gate_end;
    } else {
      const std::size_t stop = std::min(gate_end, op.gate_end);
      const FusedPlan& sub = plan.subrange_plan(g, stop);
      for (std::size_t k = 0; k < sub.op_count(); ++k)
        steps.push_back(
            BatchWalkStep::op_span_step(&sub, k, lane_begin, lane_count));
      g = stop;
    }
  }
}

template <typename Real>
void apply_plan(const FusedPlan& plan, BatchedStateVectorT<Real>& bsv) {
  std::vector<BatchWalkStep>& steps = range_steps_scratch();
  steps.clear();
  append_range_steps(plan, 0, plan.gate_count(), 0, -1, steps);
  apply_batch_walk(plan, bsv, steps.data(), steps.size());
  bsv.apply_global_phase(plan.circuit().global_phase());
  detail::maybe_inject_nan(bsv, 0, plan.gate_count());
}

template <typename Real>
void apply_plan_range(const FusedPlan& plan, BatchedStateVectorT<Real>& bsv,
                      std::size_t gate_begin, std::size_t gate_end) {
  std::vector<BatchWalkStep>& steps = range_steps_scratch();
  steps.clear();
  append_range_steps(plan, gate_begin, gate_end, 0, -1, steps);
  apply_batch_walk(plan, bsv, steps.data(), steps.size());
  detail::maybe_inject_nan(bsv, gate_begin, gate_end);
}

template void apply_plan<double>(const FusedPlan&, BatchedStateVector&);
template void apply_plan<float>(const FusedPlan&, BatchedStateVectorF&);
template void apply_plan_range<double>(const FusedPlan&, BatchedStateVector&,
                                       std::size_t, std::size_t);
template void apply_plan_range<float>(const FusedPlan&, BatchedStateVectorF&,
                                      std::size_t, std::size_t);

int batched_tile_rows_log2(int lanes, int num_qubits, std::size_t real_size) {
  // Rows per tile: keep rows × lanes × 2 planes × sizeof(Real) equal to
  // the 2^kTileBits × sizeof(cplx) L1 budget.
  int tb = kTileBits + 4 -
           ceil_log2(2 * static_cast<u64>(lanes) * static_cast<u64>(real_size));
  tb = std::max(tb, 4);
  tb = std::min(tb, num_qubits);
  return tb;
}

template <typename Real>
void BatchedStateVectorT<Real>::walk(const BatchWalkStep* steps,
                                     std::size_t count) {
  QFAB_CHECK(!packed_);
  const BatchKernelTable<Real>& K = active_table<Real>();
  Real* re = re_.data();
  Real* im = im_.data();
  const u64 L = static_cast<u64>(lanes_);
  const u64 low = tile_rows() - 1;

  // Resolve every step once (op, lane span, high coupling bits), so the
  // tile loop below does no per-tile decode. A step
  // couples row r only with rows r ^ m for m in the span of its coupling
  // mask (ops: FusedPlan::op_coupling_mask; lane X/Y: their qubit; Z/I
  // and diagonals: nothing); its bits at or above the tile are `high`.
  std::vector<ResolvedStep>& rs = resolved_steps_scratch();
  rs.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const BatchWalkStep& s = steps[k];
    ResolvedStep& r = rs[k];
    r.plan = s.plan;
    if (s.plan == nullptr) {
      r.op = nullptr;
      r.lane = static_cast<u64>(s.lane);
      r.width = 1;
      r.pauli = s.pauli;
      r.qubit = s.qubit;
      r.high = s.pauli == Pauli::kX || s.pauli == Pauli::kY
                   ? (u64{1} << s.qubit) & ~low
                   : 0;
    } else {
      r.op = &s.plan->ops()[s.op];
      r.lane = static_cast<u64>(s.lane_begin);
      r.width = static_cast<u64>(
          s.lane_count < 0 ? lanes_ - s.lane_begin : s.lane_count);
      r.high = s.plan->op_coupling_mask(s.op) & ~low;
    }
    r.lanes = lane_bits(r.lane, r.width);
  }
  // Pending phases land once per op span in step order (never per tile),
  // matching the per-lane schedule's accumulation sequence.
  for (const ResolvedStep& r : rs)
    if (r.plan != nullptr)
      add_pending_span(*r.plan, *this, *r.op, static_cast<int>(r.lane),
                       static_cast<int>(r.width));
  // One resolved step on the tile at global row tbase.
  const auto apply_tile = [&](const ResolvedStep& r, u64 tbase) {
    Real* tre = re + tbase * L + r.lane;
    Real* tim = im + tbase * L + r.lane;
    if (r.plan == nullptr)
      K.pauli(tre, tim, tbase, tile_rows(), L, r.pauli, r.qubit);
    else
      apply_chunk(K, *r.plan, tre, tim, tbase, tile_rows(), L, r.width,
                  *r.op);
  };

  std::size_t i = 0;
  while (i < count) {
    if (rs[i].high == 0) {
      // A maximal run of in-tile steps: each live tile takes the whole run
      // while it is L1-resident, skipping steps whose lanes are all clear.
      std::size_t j = i + 1;
      while (j < count && rs[j].high == 0) ++j;
      for (u64 t = 0; t < live_.size(); ++t) {
        const u64 m = live_[t];
        if (m == 0) continue;
        for (std::size_t k = i; k < j; ++k)
          if (m & rs[k].lanes) apply_tile(rs[k], t << tb_);
      }
      i = j;
      continue;
    }
    // A cross-tile step runs alone, on every group of tiles it pairs (the
    // subsets of its high bits) that holds data in its lanes. The kernels
    // write both sides of a pair from the clear tile.
    const ResolvedStep& r = rs[i];
    const u64 hb = r.high >> tb_;
    QFAB_CHECK(std::popcount(hb) <= 2);
    u64 subs[4];
    int ns = 0;
    u64 sub = 0;
    do {
      subs[ns++] = sub;
      sub = next_submask(sub, hb);
    } while (sub != 0);
    for (u64 t0 = 0; t0 < live_.size(); ++t0) {
      if (t0 & hb) continue;
      u64 any = 0;
      for (int s = 0; s < ns; ++s) any |= live_[t0 | subs[s]];
      if (!(any & r.lanes)) continue;
      for (int s = 0; s < ns; ++s)
        if (live_[t0 | subs[s]] == 0) zero_tile(t0 | subs[s]);
      for (int s = 0; s < ns; ++s) apply_tile(r, (t0 | subs[s]) << tb_);
      if (r.plan == nullptr) {
        // A lane X/Y swaps its lane between the two tiles: so do its bits.
        const u64 t1 = t0 | hb;
        const u64 a = live_[t0] & r.lanes, b = live_[t1] & r.lanes;
        live_[t0] = (live_[t0] & ~r.lanes) | b;
        live_[t1] = (live_[t1] & ~r.lanes) | a;
      } else {
        // Any other cross-tile step may mix its lanes across the group.
        for (int s = 0; s < ns; ++s) live_[t0 | subs[s]] |= any & r.lanes;
      }
    }
    ++i;
  }
}

template <typename Real>
void apply_batch_walk(const FusedPlan& plan, BatchedStateVectorT<Real>& bsv,
                      const BatchWalkStep* steps, std::size_t count) {
  QFAB_CHECK(bsv.num_qubits() == plan.circuit().num_qubits());
  // The plan's ops address row bits in its layout; equal layouts built
  // apart (two plans of one circuit) are the same rows.
  const RowLayout* want = plan.row_layout().get();
  const RowLayout* got = bsv.layout().get();
  QFAB_CHECK_MSG(got == want || (got != nullptr && want != nullptr &&
                                 *got == *want),
                 "batched vector is not in the plan's row layout");
  bsv.walk(steps, count);
}

template void apply_batch_walk<double>(const FusedPlan&, BatchedStateVector&,
                                       const BatchWalkStep*, std::size_t);
template void apply_batch_walk<float>(const FusedPlan&, BatchedStateVectorF&,
                                      const BatchWalkStep*, std::size_t);

template class BatchedStateVectorT<double>;
template class BatchedStateVectorT<float>;

template void BatchedStateVectorT<double>::assign_permuted<double>(
    const BatchedStateVectorT<double>&, const std::vector<int>&);
template void BatchedStateVectorT<double>::assign_permuted<float>(
    const BatchedStateVectorT<float>&, const std::vector<int>&);
template void BatchedStateVectorT<float>::assign_permuted<double>(
    const BatchedStateVectorT<double>&, const std::vector<int>&);
template void BatchedStateVectorT<float>::assign_permuted<float>(
    const BatchedStateVectorT<float>&, const std::vector<int>&);


}  // namespace qfab
