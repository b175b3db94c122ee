#include "circuit/gate.h"

#include <sstream>

#include "linalg/gates.h"

namespace qfab {

int gate_arity(GateKind kind) {
  switch (kind) {
    case GateKind::kId:
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kSX:
    case GateKind::kSXdg:
    case GateKind::kRZ:
    case GateKind::kRY:
    case GateKind::kRX:
    case GateKind::kP:
    case GateKind::kU:
      return 1;
    case GateKind::kCX:
    case GateKind::kCZ:
    case GateKind::kCP:
    case GateKind::kCH:
    case GateKind::kSWAP:
      return 2;
    case GateKind::kCCP:
    case GateKind::kCCX:
      return 3;
  }
  QFAB_CHECK_MSG(false, "unknown gate kind");
  return 0;
}

int gate_param_count(GateKind kind) {
  switch (kind) {
    case GateKind::kRZ:
    case GateKind::kRY:
    case GateKind::kRX:
    case GateKind::kP:
    case GateKind::kCP:
    case GateKind::kCCP:
      return 1;
    case GateKind::kU:
      return 3;
    default:
      return 0;
  }
}

const std::string& gate_name(GateKind kind) {
  static const std::string names[] = {
      "id", "x",  "y",  "z",  "h",  "sx",  "sxdg", "rz", "ry", "rx",
      "p",  "u",  "cx", "cz", "cp", "ch",  "swap", "ccp", "ccx"};
  const auto idx = static_cast<std::size_t>(kind);
  QFAB_CHECK(idx < std::size(names));
  return names[idx];
}

bool gate_is_diagonal(GateKind kind) {
  switch (kind) {
    case GateKind::kId:
    case GateKind::kZ:
    case GateKind::kRZ:
    case GateKind::kP:
    case GateKind::kCZ:
    case GateKind::kCP:
    case GateKind::kCCP:
      return true;
    default:
      return false;
  }
}

bool is_basis_gate(GateKind kind) {
  switch (kind) {
    case GateKind::kId:
    case GateKind::kX:
    case GateKind::kSX:
    case GateKind::kRZ:
    case GateKind::kCX:
      return true;
    default:
      return false;
  }
}

Matrix Gate::matrix() const {
  switch (kind) {
    case GateKind::kId:   return gates::I();
    case GateKind::kX:    return gates::X();
    case GateKind::kY:    return gates::Y();
    case GateKind::kZ:    return gates::Z();
    case GateKind::kH:    return gates::H();
    case GateKind::kSX:   return gates::SX();
    case GateKind::kSXdg: return gates::SXdg();
    case GateKind::kRZ:   return gates::RZ(params[0]);
    case GateKind::kRY:   return gates::RY(params[0]);
    case GateKind::kRX:   return gates::RX(params[0]);
    case GateKind::kP:    return gates::P(params[0]);
    case GateKind::kU:    return gates::U(params[0], params[1], params[2]);
    case GateKind::kCX:   return gates::CX();
    case GateKind::kCZ:   return gates::CZ();
    case GateKind::kCP:   return gates::CP(params[0]);
    case GateKind::kCH:   return gates::CH();
    case GateKind::kSWAP: return gates::SWAP();
    case GateKind::kCCP:  return gates::CCP(params[0]);
    case GateKind::kCCX:  return gates::CCX();
  }
  QFAB_CHECK_MSG(false, "unknown gate kind");
  return {};
}

Gate Gate::inverse() const {
  Gate inv = *this;
  switch (kind) {
    case GateKind::kSX:
      inv.kind = GateKind::kSXdg;
      break;
    case GateKind::kSXdg:
      inv.kind = GateKind::kSX;
      break;
    case GateKind::kRZ:
    case GateKind::kRY:
    case GateKind::kRX:
    case GateKind::kP:
    case GateKind::kCP:
    case GateKind::kCCP:
      inv.params[0] = -params[0];
      break;
    case GateKind::kU:
      // U(θ,φ,λ)^{-1} = U(-θ,-λ,-φ)
      inv.params = {-params[0], -params[2], -params[1]};
      break;
    default:
      break;  // self-inverse: id, x, y, z, h, cx, cz, ch, swap, ccx
  }
  return inv;
}

std::string Gate::to_string() const {
  std::ostringstream os;
  os << gate_name(kind);
  const int np = gate_param_count(kind);
  if (np > 0) {
    os << '(';
    for (int i = 0; i < np; ++i) {
      if (i) os << ", ";
      os << params[i];
    }
    os << ')';
  }
  os << ' ';
  for (int i = 0; i < arity(); ++i) {
    if (i) os << ", ";
    os << 'q' << qubits[i];
  }
  return os.str();
}

Gate make_gate1(GateKind kind, int q, double p0, double p1, double p2) {
  QFAB_CHECK(gate_arity(kind) == 1);
  Gate g;
  g.kind = kind;
  g.qubits = {q, -1, -1};
  g.params = {p0, p1, p2};
  return g;
}

Gate make_gate2(GateKind kind, int target, int control, double p0) {
  QFAB_CHECK(gate_arity(kind) == 2);
  QFAB_CHECK_MSG(target != control, "2q gate with identical qubits");
  Gate g;
  g.kind = kind;
  g.qubits = {target, control, -1};
  g.params = {p0, 0.0, 0.0};
  return g;
}

Gate make_gate3(GateKind kind, int target, int c1, int c2, double p0) {
  QFAB_CHECK(gate_arity(kind) == 3);
  QFAB_CHECK_MSG(target != c1 && target != c2 && c1 != c2,
                 "3q gate with repeated qubits");
  Gate g;
  g.kind = kind;
  g.qubits = {target, c1, c2};
  g.params = {p0, 0.0, 0.0};
  return g;
}

}  // namespace qfab
