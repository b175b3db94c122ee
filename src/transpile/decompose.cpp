#include "transpile/decompose.h"

#include <numbers>

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

}  // namespace

bool is_basis_circuit(const QuantumCircuit& qc) {
  for (const Gate& g : qc.gates())
    if (!is_basis_gate(g.kind)) return false;
  return true;
}

void decompose_gate(const Gate& g, QuantumCircuit& out) {
  switch (g.kind) {
    case GateKind::kId:
    case GateKind::kX:
    case GateKind::kSX:
    case GateKind::kRZ:
    case GateKind::kCX:
      out.append(g);
      return;
    case GateKind::kH:
      emit_h(out, g.qubits[0]);
      return;
    case GateKind::kSXdg:
      emit_sxdg(out, g.qubits[0]);
      return;
    case GateKind::kP:
      emit_p(out, g.qubits[0], g.param);
      return;
    case GateKind::kCP:
      emit_cp(out, g.qubits[1], g.qubits[0], g.param);
      return;
    case GateKind::kCH: {
      // Qiskit's 1-CX construction: CH = (S·H·T on t) · CX · (T†·H†·S† on t)
      // in circuit order s, h, t, cx, tdg, h, sdg — H = V X V† with
      // V = S·H·T (exact, no phase correction needed).
      const int t = g.qubits[0], c = g.qubits[1];
      emit_p(out, t, kPi / 2);   // s
      emit_h(out, t);
      emit_p(out, t, kPi / 4);   // t
      out.cx(c, t);
      emit_p(out, t, -kPi / 4);  // tdg
      emit_h(out, t);
      emit_p(out, t, -kPi / 2);  // sdg
      return;
    }
    case GateKind::kSWAP:
      out.cx(g.qubits[0], g.qubits[1]);
      out.cx(g.qubits[1], g.qubits[0]);
      out.cx(g.qubits[0], g.qubits[1]);
      return;
    case GateKind::kCCP:
      emit_ccp(out, g.qubits[1], g.qubits[2], g.qubits[0], g.param);
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
