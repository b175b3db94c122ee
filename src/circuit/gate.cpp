#include "circuit/gate.h"

#include <sstream>

#include "linalg/gates.h"

namespace qfab {

int gate_arity(GateKind kind) {
  switch (kind) {
    case GateKind::kId:
    case GateKind::kX:
    case GateKind::kH:
    case GateKind::kSX:
    case GateKind::kSXdg:
    case GateKind::kRZ:
    case GateKind::kP:
      return 1;
    case GateKind::kCX:
    case GateKind::kCP:
    case GateKind::kCH:
    case GateKind::kSWAP:
      return 2;
    case GateKind::kCCP:
      return 3;
  }
  QFAB_CHECK_MSG(false, "unknown gate kind");
  return 0;
}

int gate_param_count(GateKind kind) {
  switch (kind) {
    case GateKind::kRZ:
    case GateKind::kP:
    case GateKind::kCP:
    case GateKind::kCCP:
      return 1;
    default:
      return 0;
  }
}

const std::string& gate_name(GateKind kind) {
  static const std::string names[] = {"id", "x",  "h",  "sx", "sxdg", "rz",
                                      "p",  "cx", "cp", "ch", "swap", "ccp"};
  const auto idx = static_cast<std::size_t>(kind);
  QFAB_CHECK(idx < std::size(names));
  return names[idx];
}

bool gate_is_diagonal(GateKind kind) {
  switch (kind) {
    case GateKind::kId:
    case GateKind::kRZ:
    case GateKind::kP:
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
    case GateKind::kH:    return gates::H();
    case GateKind::kSX:   return gates::SX();
    case GateKind::kSXdg: return gates::SXdg();
    case GateKind::kRZ:   return gates::RZ(param);
    case GateKind::kP:    return gates::P(param);
    case GateKind::kCX:   return gates::CX();
    case GateKind::kCP:   return gates::CP(param);
    case GateKind::kCH:   return gates::CH();
    case GateKind::kSWAP: return gates::SWAP();
    case GateKind::kCCP:  return gates::CCP(param);
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
    case GateKind::kP:
    case GateKind::kCP:
    case GateKind::kCCP:
      inv.param = -param;
      break;
    default:
      break;  // self-inverse: id, x, h, cx, ch, swap
  }
  return inv;
}

std::string Gate::to_string() const {
  std::ostringstream os;
  os << gate_name(kind);
  if (gate_param_count(kind) > 0) os << '(' << param << ')';
  os << ' ';
  for (int i = 0; i < arity(); ++i) {
    if (i) os << ", ";
    os << 'q' << qubits[i];
  }
  return os.str();
}

Gate make_gate1(GateKind kind, int q, double p0) {
  QFAB_CHECK(gate_arity(kind) == 1);
  Gate g;
  g.kind = kind;
  g.qubits = {q, -1, -1};
  g.param = p0;
  return g;
}

Gate make_gate2(GateKind kind, int target, int control, double p0) {
  QFAB_CHECK(gate_arity(kind) == 2);
  QFAB_CHECK_MSG(target != control, "2q gate with identical qubits");
  Gate g;
  g.kind = kind;
  g.qubits = {target, control, -1};
  g.param = p0;
  return g;
}

Gate make_gate3(GateKind kind, int target, int c1, int c2, double p0) {
  QFAB_CHECK(gate_arity(kind) == 3);
  QFAB_CHECK_MSG(target != c1 && target != c2 && c1 != c2,
                 "3q gate with repeated qubits");
  Gate g;
  g.kind = kind;
  g.qubits = {target, c1, c2};
  g.param = p0;
  return g;
}

}  // namespace qfab
