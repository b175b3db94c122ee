// Helpers shared by the engine tests (test_batch, test_fusion,
// test_trajectory_walk): random states and circuits, and the loop over the
// double kernel builds.
#pragma once

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "sim/batch.h"
#include "transpile/transpile.h"

namespace qfab {

inline std::vector<cplx> random_state(int n, Pcg64& rng) {
  std::vector<cplx> amps(pow2(n));
  double norm = 0.0;
  for (cplx& a : amps) {
    a = cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
    norm += std::norm(a);
  }
  const double s = 1.0 / std::sqrt(norm);
  for (cplx& a : amps) a *= s;
  return amps;
}

inline double state_distance(const std::vector<cplx>& a,
                             const std::vector<cplx>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::norm(a[i] - b[i]);
  return std::sqrt(d);
}

/// A random circuit drawing from all 19 gate kinds.
inline QuantumCircuit random_circuit(int n, int gates, Pcg64& rng) {
  static const GateKind kKinds[] = {
      GateKind::kId, GateKind::kX,    GateKind::kY,  GateKind::kZ,
      GateKind::kH,  GateKind::kSX,   GateKind::kSXdg, GateKind::kRZ,
      GateKind::kRY, GateKind::kRX,   GateKind::kP,  GateKind::kU,
      GateKind::kCX, GateKind::kCZ,   GateKind::kCP, GateKind::kCH,
      GateKind::kSWAP, GateKind::kCCP, GateKind::kCCX};
  QuantumCircuit qc(n);
  for (int i = 0; i < gates; ++i) {
    const GateKind kind = kKinds[rng.uniform_int(std::size(kKinds))];
    const int arity = gate_arity(kind);
    int q[3];
    q[0] = static_cast<int>(rng.uniform_int(n));
    do q[1] = static_cast<int>(rng.uniform_int(n));
    while (q[1] == q[0]);
    do q[2] = static_cast<int>(rng.uniform_int(n));
    while (q[2] == q[0] || q[2] == q[1]);
    double p[3];
    for (double& v : p) v = (rng.uniform() - 0.5) * 2.0 * M_PI;
    if (arity == 1) {
      qc.append(make_gate1(kind, q[0], p[0], p[1], p[2]));
    } else if (arity == 2) {
      qc.append(make_gate2(kind, q[0], q[1], p[0]));
    } else {
      qc.append(make_gate3(kind, q[0], q[1], q[2], p[0]));
    }
  }
  return qc;
}

/// random_circuit transpiled to the basis, the shape FusedPlan compiles:
/// its plans hold every op kind (kGate over the five basis gates, kMatrix1,
/// kDiagonal), and a CX ends as a kGate or inside a collapsed table.
inline QuantumCircuit random_basis_circuit(int n, int gates, Pcg64& rng) {
  return transpile_to_basis(random_circuit(n, gates, rng));
}

/// Run `body` on each double kernel build this host has: the portable one,
/// then the AVX2 one where CPUID picked it. Float32 has one build, which
/// every pass runs.
template <typename Body>
void for_each_kernel_tier(const Body& body) {
  detail::set_portable_kernels(true);
  body(kernel_tier_name<double>());
  detail::set_portable_kernels(false);
  if (std::strcmp(kernel_tier_name<double>(), "scalar") != 0)
    body(kernel_tier_name<double>());
}

}  // namespace qfab
