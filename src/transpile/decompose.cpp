#include "transpile/decompose.h"

#include <cmath>
#include <numbers>

#include "linalg/gates.h"
#include "transpile/euler.h"

namespace qfab {

namespace {

constexpr double kPi = std::numbers::pi;

void emit_p(QuantumCircuit& out, int q, double lambda) {
  // P(λ) = e^{iλ/2} RZ(λ)
  out.rz(q, lambda);
  out.add_global_phase(lambda / 2);
}

void emit_h(QuantumCircuit& out, int q) {
  // H = e^{iπ/4} RZ(π/2) SX RZ(π/2)
  out.rz(q, kPi / 2);
  out.sx(q);
  out.rz(q, kPi / 2);
  out.add_global_phase(kPi / 4);
}

void emit_sxdg(QuantumCircuit& out, int q) {
  // SX† = e^{iπ/2} RZ(π) SX RZ(π)
  out.rz(q, kPi);
  out.sx(q);
  out.rz(q, kPi);
  out.add_global_phase(kPi / 2);
}

void emit_cp(QuantumCircuit& out, int control, int target, double lambda) {
  emit_p(out, control, lambda / 2);
  out.cx(control, target);
  emit_p(out, target, -lambda / 2);
  out.cx(control, target);
  emit_p(out, target, lambda / 2);
}

void emit_ccp(QuantumCircuit& out, int c1, int c2, int target,
              double lambda) {
  emit_cp(out, c2, target, lambda / 2);
  out.cx(c1, c2);
  emit_cp(out, c2, target, -lambda / 2);
  out.cx(c1, c2);
  emit_cp(out, c1, target, lambda / 2);
}

/// Emit an arbitrary 1q unitary as RZ·SX·RZ·SX·RZ (Qiskit "ZSX" basis):
/// U = e^{iγ} RZ(φ+π) SX RZ(θ+π) SX RZ(λ), with γ recovered numerically
/// and the construction verified against `u`.
void emit_unitary1(QuantumCircuit& out, int q, const Matrix& u) {
  const ZyzAngles zyz = zyz_decompose(u);
  // ZYZ -> U(θ, φ, λ) parameters: U(θ,φ,λ) = e^{i(φ+λ)/2} RZ(β=φ) RY(θ) RZ(λ).
  const double theta = zyz.gamma;
  const double phi = zyz.beta;
  const double lambda = zyz.delta;

  const Matrix candidate = gates::RZ(phi + kPi) * gates::SX() *
                           gates::RZ(theta + kPi) * gates::SX() *
                           gates::RZ(lambda);
  // Extract the global phase from the largest entry.
  std::size_t bi = 0, bj = 0;
  double best = -1.0;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      if (std::abs(candidate.at(i, j)) > best) {
        best = std::abs(candidate.at(i, j));
        bi = i;
        bj = j;
      }
  const cplx ratio = u.at(bi, bj) / candidate.at(bi, bj);
  QFAB_CHECK_MSG(std::abs(std::abs(ratio) - 1.0) < 1e-8,
                 "ZSX decomposition failed (non-unimodular ratio)");
  const double gamma = std::arg(ratio);
  QFAB_CHECK_MSG(
      (candidate * cplx{std::cos(gamma), std::sin(gamma)}).approx_equal(u,
                                                                        1e-8),
      "ZSX decomposition failed (structure mismatch)");

  out.rz(q, lambda);
  out.sx(q);
  out.rz(q, theta + kPi);
  out.sx(q);
  out.rz(q, phi + kPi);
  out.add_global_phase(gamma);
}

/// RZ(β)·RY(γ) chains used by the ABC construction, expanded to basis.
/// Emits first `pre_rz`, then RY(gamma), then `post_rz` (circuit order).
void emit_rz_ry_rz(QuantumCircuit& out, int q, double pre_rz, double gamma,
                   double post_rz) {
  const Matrix u =
      gates::RZ(post_rz) * gates::RY(gamma) * gates::RZ(pre_rz);
  emit_unitary1(out, q, u);
}

}  // namespace

bool is_basis_circuit(const QuantumCircuit& qc) {
  for (const Gate& g : qc.gates())
    if (!is_basis_gate(g.kind)) return false;
  return true;
}

void emit_controlled_unitary(const Matrix& u, int control, int target,
                             QuantumCircuit& out) {
  const ZyzAngles zyz = zyz_decompose(u);
  const double beta = zyz.beta, gamma = zyz.gamma, delta = zyz.delta;
  // CU = P(α) on control · A X B X C on target, where
  //   A = RZ(β) RY(γ/2), B = RY(-γ/2) RZ(-(δ+β)/2), C = RZ((δ-β)/2),
  // X's realized as CX(control, target). Circuit order: C, CX, B, CX, A.
  emit_rz_ry_rz(out, target, (delta - beta) / 2, 0.0, 0.0);  // C
  out.cx(control, target);
  emit_rz_ry_rz(out, target, -(delta + beta) / 2, -gamma / 2, 0.0);  // B
  out.cx(control, target);
  emit_rz_ry_rz(out, target, 0.0, gamma / 2, beta);  // A
  if (zyz.alpha != 0.0) emit_p(out, control, zyz.alpha);
}

void decompose_gate(const Gate& g, QuantumCircuit& out) {
  constexpr double pi = kPi;
  switch (g.kind) {
    case GateKind::kId:
    case GateKind::kX:
    case GateKind::kSX:
    case GateKind::kRZ:
    case GateKind::kCX:
      out.append(g);
      return;
    case GateKind::kZ:
      emit_p(out, g.qubits[0], pi);
      return;
    case GateKind::kY:
      // Y = e^{iπ/2} X·Z (matrix order): circuit applies Z then X.
      emit_p(out, g.qubits[0], pi);
      out.x(g.qubits[0]);
      out.add_global_phase(pi / 2);
      return;
    case GateKind::kH:
      emit_h(out, g.qubits[0]);
      return;
    case GateKind::kSXdg:
      emit_sxdg(out, g.qubits[0]);
      return;
    case GateKind::kP:
      emit_p(out, g.qubits[0], g.params[0]);
      return;
    case GateKind::kRY:
    case GateKind::kRX:
    case GateKind::kU:
      emit_unitary1(out, g.qubits[0], g.matrix());
      return;
    case GateKind::kCZ:
      emit_cp(out, g.qubits[1], g.qubits[0], pi);
      return;
    case GateKind::kCP:
      emit_cp(out, g.qubits[1], g.qubits[0], g.params[0]);
      return;
    case GateKind::kCH: {
      // Qiskit's 1-CX construction: CH = (S·H·T on t) · CX · (T†·H†·S† on t)
      // in circuit order s, h, t, cx, tdg, h, sdg — H = V X V† with
      // V = S·H·T (exact, no phase correction needed).
      const int t = g.qubits[0], c = g.qubits[1];
      emit_p(out, t, pi / 2);   // s
      emit_h(out, t);
      emit_p(out, t, pi / 4);   // t
      out.cx(c, t);
      emit_p(out, t, -pi / 4);  // tdg
      emit_h(out, t);
      emit_p(out, t, -pi / 2);  // sdg
      return;
    }
    case GateKind::kSWAP:
      out.cx(g.qubits[0], g.qubits[1]);
      out.cx(g.qubits[1], g.qubits[0]);
      out.cx(g.qubits[0], g.qubits[1]);
      return;
    case GateKind::kCCP:
      emit_ccp(out, g.qubits[1], g.qubits[2], g.qubits[0], g.params[0]);
      return;
    case GateKind::kCCX:
      emit_h(out, g.qubits[0]);
      emit_ccp(out, g.qubits[1], g.qubits[2], g.qubits[0], pi);
      emit_h(out, g.qubits[0]);
      return;
  }
  QFAB_CHECK_MSG(false, "cannot decompose " << g.to_string());
}

QuantumCircuit decompose_to_basis(const QuantumCircuit& qc) {
  QuantumCircuit dst = QuantumCircuit::same_shape(qc);
  dst.add_global_phase(qc.global_phase());
  for (const Gate& g : qc.gates()) decompose_gate(g, dst);
  return dst;
}

}  // namespace qfab
