#include "sim/batch.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/bits.h"
#include "common/check.h"
#include "common/fault.h"

namespace qfab {

namespace detail {

namespace {
std::atomic<bool> g_batch_fault{false};
}  // namespace

void set_batch_fault_injection(bool on) {
  g_batch_fault.store(on, std::memory_order_relaxed);
}

bool batch_fault_injection() {
  return g_batch_fault.load(std::memory_order_relaxed);
}

}  // namespace detail

namespace {

cplx expi(double t) { return {std::cos(t), std::sin(t)}; }

/// One resolved set of batched kernels: a (ISA tier, amplitude precision)
/// build of the same bodies. One table per precision is selected at
/// startup, swappable via set_simd_mode(). All kernels take the chunk's
/// global base row (diagonal key gathers need it), the full lane stride L
/// and the active lane-group width G <= L.
template <typename Real>
struct BatchKernelTable {
  void (*matrix1)(Real*, Real*, u64, u64, u64, u64, int, const cplx*);
  void (*matrix2)(Real*, Real*, u64, u64, u64, u64, int, int, const cplx*);
  void (*diag1)(Real*, Real*, u64, u64, u64, u64, int, const cplx*);
  void (*diag)(Real*, Real*, u64, u64, u64, u64, const FusedOp::DiagShift*,
               int, const cplx*);
  void (*phase_on_bit)(Real*, Real*, u64, u64, u64, u64, int, cplx);
  // Per-gate kernel of a kGate op: the gate plus its operands decoded at
  // plan compile (FusedOp::m).
  void (*gate)(Real*, Real*, u64, u64, u64, u64, const Gate&, const cplx*);
  // Group-walk variants: correct at any qubit span relative to the chunk,
  // pairing with XOR-sibling tiles through absolute row offsets (the group
  // walk in apply_batch_walk keeps those tiles resident). Same row bodies
  // as the contiguous kernels, so results are bitwise identical.
  void (*matrix1g)(Real*, Real*, u64, u64, u64, u64, int, const cplx*);
  void (*matrix2g)(Real*, Real*, u64, u64, u64, u64, int, int, const cplx*);
  void (*gateg)(Real*, Real*, u64, u64, u64, u64, const Gate&,
                const cplx*);
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

// Portable builds of the kernel bodies: plain C++, autovectorized for the
// baseline ISA. These are the fallback CI pins with QFAB_SIMD=scalar.
namespace ker_scalar_f64 {
using kreal = double;
#define QFAB_KERNEL_ATTR
#include "sim/batch_kernels.inc"
#undef QFAB_KERNEL_ATTR
}  // namespace ker_scalar_f64

namespace ker_scalar_f32 {
using kreal = float;
#define QFAB_KERNEL_ATTR
#include "sim/batch_kernels.inc"
#undef QFAB_KERNEL_ATTR
}  // namespace ker_scalar_f32

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(QFAB_SIMD_SCALAR_ONLY)
#define QFAB_HAVE_X86_TABLES 1
// AVX2+FMA builds of the same bodies: the target attribute lets the
// compiler emit 256-bit FMA code for exactly these functions, so the
// binary stays runnable on any x86-64 host.
namespace ker_avx2_f64 {
using kreal = double;
#define QFAB_KERNEL_ATTR __attribute__((target("avx2,fma")))
#include "sim/batch_kernels.inc"
#undef QFAB_KERNEL_ATTR
}  // namespace ker_avx2_f64

namespace ker_avx2_f32 {
using kreal = float;
#define QFAB_KERNEL_ATTR __attribute__((target("avx2,fma")))
#include "sim/batch_kernels.inc"
#undef QFAB_KERNEL_ATTR
}  // namespace ker_avx2_f32

// AVX-512 builds: 512-bit vectors, 8 doubles / 16 floats per register.
// prefer-vector-width=512 overrides the 256-bit tuning default so the
// autovectorizer actually uses zmm for these unit-stride lane loops.
#define QFAB_AVX512_TARGET                                      \
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl," \
                        "prefer-vector-width=512")))
namespace ker_avx512_f64 {
using kreal = double;
#define QFAB_KERNEL_ATTR QFAB_AVX512_TARGET
#include "sim/batch_kernels.inc"
#undef QFAB_KERNEL_ATTR
}  // namespace ker_avx512_f64

namespace ker_avx512_f32 {
using kreal = float;
#define QFAB_KERNEL_ATTR QFAB_AVX512_TARGET
#include "sim/batch_kernels.inc"
#undef QFAB_KERNEL_ATTR
}  // namespace ker_avx512_f32
#else
#define QFAB_HAVE_X86_TABLES 0
#endif

const BatchKernelTable<double> kScalarF64 = ker_scalar_f64::kernel_table();
const BatchKernelTable<float> kScalarF32 = ker_scalar_f32::kernel_table();
#if QFAB_HAVE_X86_TABLES
const BatchKernelTable<double> kAvx2F64 = ker_avx2_f64::kernel_table();
const BatchKernelTable<float> kAvx2F32 = ker_avx2_f32::kernel_table();
const BatchKernelTable<double> kAvx512F64 = ker_avx512_f64::kernel_table();
const BatchKernelTable<float> kAvx512F32 = ker_avx512_f32::kernel_table();
#endif

bool cpu_has_avx2() {
#if QFAB_HAVE_X86_TABLES
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if QFAB_HAVE_X86_TABLES
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

/// The requested mode before resolution: build default, then environment.
SimdMode requested_mode() {
#if defined(QFAB_SIMD_SCALAR_ONLY)
  SimdMode mode = SimdMode::kScalar;
#elif defined(QFAB_SIMD_FORCE_AVX512)
  SimdMode mode = SimdMode::kAvx512;
#elif defined(QFAB_SIMD_FORCE_AVX2)
  SimdMode mode = SimdMode::kAvx2;
#else
  SimdMode mode = SimdMode::kAuto;
#endif
  if (const char* env = std::getenv("QFAB_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) mode = SimdMode::kScalar;
    else if (std::strcmp(env, "avx2") == 0) mode = SimdMode::kAvx2;
    else if (std::strcmp(env, "avx512") == 0) mode = SimdMode::kAvx512;
    else if (std::strcmp(env, "auto") == 0) mode = SimdMode::kAuto;
  }
  return mode;
}

/// Resolve kAuto by CPUID and degrade forced modes the CPU lacks.
SimdMode resolve_mode(SimdMode mode) {
  const bool a2 = cpu_has_avx2();
  const bool a5 = cpu_has_avx512();
  if (mode == SimdMode::kAuto)
    return a5 ? SimdMode::kAvx512 : a2 ? SimdMode::kAvx2 : SimdMode::kScalar;
  if (mode == SimdMode::kAvx512 && !a5)
    return a2 ? SimdMode::kAvx2 : SimdMode::kScalar;
  if (mode == SimdMode::kAvx2 && !a2) return SimdMode::kScalar;
  return mode;
}

std::atomic<SimdMode>& mode_slot() {
  static std::atomic<SimdMode> slot{resolve_mode(requested_mode())};
  return slot;
}

template <typename Real>
const BatchKernelTable<Real>& table_for(SimdMode resolved) {
  if constexpr (std::is_same_v<Real, double>) {
#if QFAB_HAVE_X86_TABLES
    if (resolved == SimdMode::kAvx512) return kAvx512F64;
    if (resolved == SimdMode::kAvx2) return kAvx2F64;
#endif
    (void)resolved;
    return kScalarF64;
  } else {
#if QFAB_HAVE_X86_TABLES
    if (resolved == SimdMode::kAvx512) return kAvx512F32;
    if (resolved == SimdMode::kAvx2) return kAvx2F32;
#endif
    (void)resolved;
    return kScalarF32;
  }
}

template <typename Real>
const BatchKernelTable<Real>& active_table() {
  return table_for<Real>(mode_slot().load(std::memory_order_relaxed));
}

}  // namespace

SimdMode simd_mode() { return mode_slot().load(std::memory_order_relaxed); }

void set_simd_mode(SimdMode mode) {
  mode_slot().store(resolve_mode(mode), std::memory_order_relaxed);
}

const char* simd_mode_name() {
  switch (simd_mode()) {
    case SimdMode::kAvx512: return "avx512";
    case SimdMode::kAvx2: return "avx2";
    default: return "scalar";
  }
}

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

template <typename Real>
BatchedStateVectorT<Real>::BatchedStateVectorT(int num_qubits, int lanes)
    : num_qubits_(num_qubits), lanes_(lanes) {
  QFAB_CHECK_MSG(num_qubits >= 1 && num_qubits <= 30,
                 "unsupported qubit count " << num_qubits);
  QFAB_CHECK_MSG(lanes >= 1 && lanes <= kMaxLanes,
                 "unsupported lane count " << lanes);
  const std::size_t total = dim() * static_cast<std::size_t>(lanes_);
  re_.assign(total, Real{0});
  im_.assign(total, Real{0});
  pending_.assign(static_cast<std::size_t>(lanes_), 0.0);
  for (int l = 0; l < lanes_; ++l) re_[static_cast<std::size_t>(l)] = Real{1};
}

template <typename Real>
void BatchedStateVectorT<Real>::reset(int num_qubits, int lanes) {
  QFAB_CHECK_MSG(num_qubits >= 1 && num_qubits <= 30,
                 "unsupported qubit count " << num_qubits);
  QFAB_CHECK_MSG(lanes >= 1 && lanes <= kMaxLanes,
                 "unsupported lane count " << lanes);
  num_qubits_ = num_qubits;
  lanes_ = lanes;
  const std::size_t total = dim() * static_cast<std::size_t>(lanes_);
  re_.resize(total);
  im_.resize(total);
  pending_.resize(static_cast<std::size_t>(lanes_));
}

template <typename Real>
void BatchedStateVectorT<Real>::set_lane(int lane, const StateVector& sv) {
  QFAB_CHECK(lane >= 0 && lane < lanes_);
  QFAB_CHECK(sv.num_qubits() == num_qubits_);
  const std::vector<cplx>& a = sv.amplitudes();
  const u64 L = static_cast<u64>(lanes_);
  for (u64 i = 0; i < a.size(); ++i) {
    re_[i * L + static_cast<u64>(lane)] = static_cast<Real>(a[i].real());
    im_[i * L + static_cast<u64>(lane)] = static_cast<Real>(a[i].imag());
  }
  pending_[static_cast<std::size_t>(lane)] = 0.0;
}

template <typename Real>
void BatchedStateVectorT<Real>::broadcast(const StateVector& sv) {
  QFAB_CHECK(sv.num_qubits() == num_qubits_);
  const std::vector<cplx>& a = sv.amplitudes();
  const u64 L = static_cast<u64>(lanes_);
  for (u64 i = 0; i < a.size(); ++i) {
    const Real ar = static_cast<Real>(a[i].real());
    const Real ai = static_cast<Real>(a[i].imag());
    Real* r = re_.data() + i * L;
    Real* m = im_.data() + i * L;
    for (u64 l = 0; l < L; ++l) {
      r[l] = ar;
      m[l] = ai;
    }
  }
  std::fill(pending_.begin(), pending_.end(), 0.0);
}

template <typename Real>
StateVector BatchedStateVectorT<Real>::lane_state(int lane) const {
  QFAB_CHECK(lane >= 0 && lane < lanes_);
  const u64 L = static_cast<u64>(lanes_);
  const cplx ph = expi(pending_[static_cast<std::size_t>(lane)]);
  std::vector<cplx> amps(dim());
  for (u64 i = 0; i < amps.size(); ++i)
    amps[i] =
        cplx{static_cast<double>(re_[i * L + static_cast<u64>(lane)]),
             static_cast<double>(im_[i * L + static_cast<u64>(lane)])} *
        ph;
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
  num_qubits_ = src.num_qubits_;
  lanes_ = static_cast<int>(lane_map.size());
  const u64 L = static_cast<u64>(lanes_);
  const u64 S = static_cast<u64>(src.lanes_);
  const u64 n = dim();
  re_.resize(n * L);
  im_.resize(n * L);
  pending_.resize(L);
  for (u64 j = 0; j < L; ++j)
    pending_[j] = src.pending_[static_cast<std::size_t>(lane_map[j])];
  for (u64 i = 0; i < n; ++i) {
    const SrcReal* sr = src.re_.data() + i * S;
    const SrcReal* sm = src.im_.data() + i * S;
    Real* dr = re_.data() + i * L;
    Real* dm = im_.data() + i * L;
    for (u64 j = 0; j < L; ++j) {
      const u64 s = static_cast<u64>(lane_map[j]);
      dr[j] = static_cast<Real>(sr[s]);
      dm[j] = static_cast<Real>(sm[s]);
    }
  }
}

template <typename Real>
void BatchedStateVectorT<Real>::apply_pauli(int lane, Pauli p, int q) {
  QFAB_CHECK(lane >= 0 && lane < lanes_);
  QFAB_CHECK(q >= 0 && q < num_qubits_);
  active_table<Real>().pauli(re_.data() + lane, im_.data() + lane, 0, dim(),
                             static_cast<u64>(lanes_), p, q);
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
  const u64 col = static_cast<u64>(lane);
  std::vector<double> p(dim());
  for (u64 i = 0; i < p.size(); ++i) {
    const double ar = re_[i * L + col], ai = im_[i * L + col];
    p[i] = ar * ar + ai * ai;
  }
  return p;
}

template <typename Real>
std::vector<double> BatchedStateVectorT<Real>::lane_marginal_probabilities(
    int lane, const std::vector<int>& qubits) const {
  QFAB_CHECK(lane >= 0 && lane < lanes_);
  QFAB_CHECK(!qubits.empty() &&
             qubits.size() <= static_cast<std::size_t>(num_qubits_));
  for (int q : qubits) QFAB_CHECK(q >= 0 && q < num_qubits_);
  std::vector<double> out(pow2(static_cast<int>(qubits.size())), 0.0);
  const u64 L = static_cast<u64>(lanes_);
  const u64 col = static_cast<u64>(lane);
  const u64 n = dim();
  bool contiguous = true;
  for (std::size_t b = 0; b < qubits.size(); ++b)
    if (qubits[b] != qubits[0] + static_cast<int>(b)) {
      contiguous = false;
      break;
    }
  if (contiguous) {
    const int shift = qubits[0];
    const u64 mask = static_cast<u64>(out.size()) - 1;
    for (u64 i = 0; i < n; ++i) {
      const double ar = re_[i * L + col], ai = im_[i * L + col];
      out[(i >> shift) & mask] += ar * ar + ai * ai;
    }
    return out;
  }
  for (u64 i = 0; i < n; ++i) {
    const double ar = re_[i * L + col], ai = im_[i * L + col];
    const double pr = ar * ar + ai * ai;
    if (pr == 0.0) continue;
    u64 key = 0;
    for (std::size_t b = 0; b < qubits.size(); ++b)
      key |= static_cast<u64>(get_bit(i, qubits[b])) << b;
    out[key] += pr;
  }
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
  for (int q : qubits) QFAB_CHECK(q >= 0 && q < num_qubits_);
  const u64 L = static_cast<u64>(lanes_);
  const u64 n = dim();
  const u64 out_size = pow2(static_cast<int>(qubits.size()));
  bool contiguous = true;
  for (std::size_t b = 0; b < qubits.size(); ++b)
    if (qubits[b] != qubits[0] + static_cast<int>(b)) {
      contiguous = false;
      break;
    }
  // acc[key * L + lane]: per amplitude row the accumulation is one
  // unit-stride fused multiply-add over the lanes (always in double, so
  // the float tier loses precision only in the amplitudes themselves, not
  // the reduction). Additions land per (lane, key) in ascending amplitude
  // order — exactly the order lane_marginal_probabilities uses — so the
  // results are bitwise equal.
  scratch.assign(out_size * L, 0.0);
  double* acc = scratch.data();
  const int shift = qubits[0];
  const u64 mask = out_size - 1;
  for (u64 i = 0; i < n; ++i) {
    u64 key;
    if (contiguous) {
      key = (i >> shift) & mask;
    } else {
      key = 0;
      for (std::size_t b = 0; b < qubits.size(); ++b)
        key |= static_cast<u64>(get_bit(i, qubits[b])) << b;
    }
    const Real* r = re_.data() + i * L;
    const Real* m = im_.data() + i * L;
    double* a = acc + key * L;
    for (u64 l = 0; l < L; ++l) {
      const double ar = r[l], ai = m[l];
      a[l] += ar * ar + ai * ai;
    }
  }
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
  const u64 col = static_cast<u64>(lane);
  double s = 0.0;
  for (u64 i = 0; i < dim(); ++i) {
    const double ar = re_[i * L + col], ai = im_[i * L + col];
    s += ar * ar + ai * ai;
  }
  return std::sqrt(s);
}

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
      bsv.apply_lane_global_phase(l, -gate.params[0] / 2);
  } else if (op.kind == FusedOp::Kind::kDiagonal && op.qubits.empty()) {
    for (int l = lane_begin; l < lane_begin + lane_count; ++l)
      bsv.apply_lane_global_phase(l, std::arg(op.phases[0]));
  }
}

template <typename Real>
void apply_chunk(const BatchKernelTable<Real>& K, const FusedPlan& plan,
                 Real* re, Real* im, u64 base, u64 len, u64 L, u64 G,
                 const FusedOp& op) {
  switch (op.kind) {
    case FusedOp::Kind::kMatrix1:
      if (detail::batch_fault_injection()) {
        // Emulated kernel regression (see batch.h): one flipped sign.
        const cplx m[4] = {op.m[0], op.m[1], op.m[2], -op.m[3]};
        K.matrix1(re, im, base, len, L, G, op.q0, m);
        return;
      }
      K.matrix1(re, im, base, len, L, G, op.q0, op.m.data());
      return;
    case FusedOp::Kind::kMatrix2:
      K.matrix2(re, im, base, len, L, G, op.q0, op.q1, op.m.data());
      return;
    case FusedOp::Kind::kDiagonal:
      if (op.qubits.empty()) return;  // handled by add_pending_span
      if (op.qubits.size() == 1)
        K.diag1(re, im, base, len, L, G, op.qubits[0], op.phases.data());
      else
        K.diag(re, im, base, len, L, G, op.shifts.data(),
               static_cast<int>(op.shifts.size()), op.phases.data());
      return;
    case FusedOp::Kind::kGate:
      K.gate(re, im, base, len, L, G, plan.circuit().gates()[op.gate_begin],
             op.m.data());
      return;
  }
}

/// Group-walk chunk dispatch for ops whose coupling mask reaches at or
/// above the tile: routes through the *g kernel variants, which address
/// the XOR-partner rows absolutely in the sibling tiles the group walk
/// keeps resident. Diagonal ops never couple rows and stay on the
/// ordinary global-keyed kernels.
template <typename Real>
void apply_chunk_group(const BatchKernelTable<Real>& K, const FusedPlan& plan,
                       Real* re, Real* im, u64 base, u64 len, u64 L, u64 G,
                       const FusedOp& op) {
  switch (op.kind) {
    case FusedOp::Kind::kMatrix1:
      if (detail::batch_fault_injection()) {
        // Emulated kernel regression (see batch.h): one flipped sign.
        const cplx m[4] = {op.m[0], op.m[1], op.m[2], -op.m[3]};
        K.matrix1g(re, im, base, len, L, G, op.q0, m);
        return;
      }
      K.matrix1g(re, im, base, len, L, G, op.q0, op.m.data());
      return;
    case FusedOp::Kind::kMatrix2:
      K.matrix2g(re, im, base, len, L, G, op.q0, op.q1, op.m.data());
      return;
    case FusedOp::Kind::kDiagonal:
      apply_chunk(K, plan, re, im, base, len, L, G, op);
      return;
    case FusedOp::Kind::kGate:
      K.gateg(re, im, base, len, L, G, plan.circuit().gates()[op.gate_begin],
              op.m.data());
      return;
  }
}

// QFAB_FAULT nan-at-gate hook, batched counterpart of the one in
// fusion.cpp: after a pass that executed the targeted gate, poison lane 0's
// first amplitude with a quiet NaN. Inert without the env directive.
template <typename Real>
void maybe_inject_nan(BatchedStateVectorT<Real>& bsv, std::size_t gate_begin,
                      std::size_t gate_end) {
  if (fault::nan_fault_active() && fault::take_nan_charge(gate_begin, gate_end))
    bsv.re()[0] = std::numeric_limits<Real>::quiet_NaN();
}

/// A walk step resolved once per walk for the tile loop.
struct ResolvedStep {
  const FusedPlan* plan;  // null = Pauli step
  const FusedOp* op;
  u64 lane;    // op steps: first lane of the span; Pauli steps: the lane
  u64 width;   // op steps: lanes in the span
  u64 high;    // coupling bits at or above the tile
  bool group;  // op steps: route through the group kernel variants
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
  QFAB_CHECK(bsv.num_qubits() == plan.circuit().num_qubits());
  std::vector<BatchWalkStep>& steps = range_steps_scratch();
  steps.clear();
  append_range_steps(plan, 0, plan.gate_count(), 0, -1, steps);
  apply_batch_walk(plan, bsv, steps.data(), steps.size());
  bsv.apply_global_phase(plan.circuit().global_phase());
  maybe_inject_nan(bsv, 0, plan.gate_count());
}

template <typename Real>
void apply_plan_range(const FusedPlan& plan, BatchedStateVectorT<Real>& bsv,
                      std::size_t gate_begin, std::size_t gate_end) {
  QFAB_CHECK(bsv.num_qubits() == plan.circuit().num_qubits());
  std::vector<BatchWalkStep>& steps = range_steps_scratch();
  steps.clear();
  append_range_steps(plan, gate_begin, gate_end, 0, -1, steps);
  apply_batch_walk(plan, bsv, steps.data(), steps.size());
  maybe_inject_nan(bsv, gate_begin, gate_end);
}

template void apply_plan<double>(const FusedPlan&, BatchedStateVector&);
template void apply_plan<float>(const FusedPlan&, BatchedStateVectorF&);
template void apply_plan_range<double>(const FusedPlan&, BatchedStateVector&,
                                       std::size_t, std::size_t);
template void apply_plan_range<float>(const FusedPlan&, BatchedStateVectorF&,
                                      std::size_t, std::size_t);

int batched_tile_rows_log2(const FusionOptions& options, int lanes,
                           int num_qubits, std::size_t real_size) {
  // Rows per tile: keep rows × lanes × 2 planes × sizeof(Real) equal to
  // the scalar path's 2^tile_bits × sizeof(cplx) L1 budget.
  int tb = options.tile_bits + 4 -
           ceil_log2(2 * static_cast<u64>(lanes) * static_cast<u64>(real_size));
  tb = std::max(tb, 4);
  tb = std::min(tb, num_qubits);
  return tb;
}

template <typename Real>
void apply_batch_walk(const FusedPlan& plan, BatchedStateVectorT<Real>& bsv,
                      const BatchWalkStep* steps, std::size_t count) {
  QFAB_CHECK(bsv.num_qubits() == plan.circuit().num_qubits());
  const BatchKernelTable<Real>& K = active_table<Real>();
  Real* re = bsv.re();
  Real* im = bsv.im();
  const u64 L = static_cast<u64>(bsv.lanes());
  const u64 n = bsv.dim();
  const int tb = batched_tile_rows_log2(plan.options(), bsv.lanes(),
                                        bsv.num_qubits(), sizeof(Real));
  const u64 tile = u64{1} << tb;
  const u64 low = tile - 1;

  // Every step couples row r only with rows r ^ m for m in the span of its
  // coupling mask (ops: FusedPlan::op_coupling_mask; lane X/Y: their
  // qubit; Z/I and diagonals: nothing). A run therefore never needs a
  // full-width pass: tiles walk in XOR-groups — the 2^|B| sibling tiles
  // reached by the run's high coupling bits B stay resident together, and
  // high-coupling steps address their partner rows absolutely in those
  // siblings. The cap bounds the co-resident set to 8 tiles (L2-sized at
  // the L1 tile budget); a run ends only when admitting the next step
  // would push |B| past it, which replaces the old per-step full-width
  // fallback — the measured cause of the batch=16 lane-scaling inversion,
  // since every injection split used to shed high-qubit sub-ops that broke
  // the walk into full-vector passes.
  constexpr int kGroupBitsCap = 3;

  // Resolve every step once (op, lane span, high coupling bits, kernel
  // variant), so the tile loop below does no per-tile decode.
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
      r.group = false;
      continue;
    }
    r.op = &s.plan->ops()[s.op];
    r.lane = static_cast<u64>(s.lane_begin);
    r.width = static_cast<u64>(s.lane_count < 0 ? bsv.lanes() - s.lane_begin
                                                : s.lane_count);
    r.high = s.plan->op_coupling_mask(s.op) & ~low;
    // Group kernels whenever ANY op qubit is above the tile — not just
    // coupled ones: a high CX control never pairs rows across tiles (so it
    // adds nothing to B) but still overruns the plain in-chunk kernel's
    // index space.
    r.group = r.op->kind != FusedOp::Kind::kDiagonal && r.op->max_qubit >= tb;
  }
  // One resolved step on the tile at global row tbase.
  const auto apply_tile = [&](const ResolvedStep& r, u64 tbase) {
    Real* tre = re + tbase * L + r.lane;
    Real* tim = im + tbase * L + r.lane;
    if (r.plan == nullptr)
      K.pauli(tre, tim, tbase, tile, L, r.pauli, r.qubit);
    else if (r.group)
      apply_chunk_group(K, *r.plan, tre, tim, tbase, tile, L, r.width, *r.op);
    else
      apply_chunk(K, *r.plan, tre, tim, tbase, tile, L, r.width, *r.op);
  };

  std::size_t i = 0;
  while (i < count) {
    // Maximal run whose union of high coupling bits fits the group cap.
    u64 B = 0;
    std::size_t j = i;
    while (j < count) {
      const u64 nb = B | rs[j].high;
      if (std::popcount(nb) > kGroupBitsCap) break;
      B = nb;
      ++j;
    }
    if (j == i) {
      // Lone step with more high coupling bits than the cap (cannot occur
      // with today's ops, which couple at most two qubits): full width.
      const ResolvedStep& r = rs[i];
      if (r.plan != nullptr) {
        add_pending_span(*r.plan, bsv, *r.op, static_cast<int>(r.lane),
                         static_cast<int>(r.width));
        apply_chunk(K, *r.plan, re + r.lane, im + r.lane, 0, n, L, r.width,
                    *r.op);
      } else {
        bsv.apply_pauli(static_cast<int>(r.lane), r.pauli, r.qubit);
      }
      ++i;
      continue;
    }
    // Pending phases land once per op span in step order (never per
    // tile), matching the per-lane schedule's accumulation sequence.
    for (std::size_t k = i; k < j; ++k)
      if (rs[k].plan != nullptr)
        add_pending_span(*rs[k].plan, bsv, *rs[k].op,
                         static_cast<int>(rs[k].lane),
                         static_cast<int>(rs[k].width));
    // Tile-base offsets of the group: every subset of B.
    u64 bits[kGroupBitsCap];
    int gbits = 0;
    for (u64 m = B; m != 0; m &= m - 1) bits[gbits++] = m & (0 - m);
    const int nsub = 1 << gbits;
    u64 suboff[std::size_t{1} << kGroupBitsCap];
    for (int sub = 0; sub < nsub; ++sub) {
      u64 off = 0;
      for (int b = 0; b < gbits; ++b)
        if (sub & (1 << b)) off |= bits[b];
      suboff[sub] = off;
    }
    for (u64 gb = 0; gb < n; gb += tile) {
      if (gb & B) continue;  // visited as a sibling of its clear base
      // A step that couples across tiles runs on every tile of the group
      // in turn. Between two such steps, the steps that stay inside their
      // tile run tile by tile, each tile taking the whole segment while it
      // is L1-resident, instead of streaming the group (2^|B| tiles, more
      // than L1 holds) once per step. Every row still sees the same steps
      // in the same order.
      std::size_t k = i;
      while (k < j) {
        if (rs[k].high != 0) {
          for (int sub = 0; sub < nsub; ++sub)
            apply_tile(rs[k], gb | suboff[sub]);
          ++k;
          continue;
        }
        std::size_t e = k;
        while (e < j && rs[e].high == 0) ++e;
        for (int sub = 0; sub < nsub; ++sub)
          for (std::size_t t = k; t < e; ++t)
            apply_tile(rs[t], gb | suboff[sub]);
        k = e;
      }
    }
    i = j;
  }
}

template void apply_batch_walk<double>(const FusedPlan&, BatchedStateVector&,
                                       const BatchWalkStep*, std::size_t);
template void apply_batch_walk<float>(const FusedPlan&, BatchedStateVectorF&,
                                      const BatchWalkStep*, std::size_t);

}  // namespace qfab
