#include "circuit/circuit.h"

#include <algorithm>

namespace qfab {

QuantumCircuit::QuantumCircuit(int num_qubits) : num_qubits_(num_qubits) {
  QFAB_CHECK(num_qubits >= 0);
}

QuantumCircuit QuantumCircuit::same_shape(const QuantumCircuit& other) {
  QuantumCircuit qc(0);
  qc.num_qubits_ = other.num_qubits_;
  qc.registers_ = other.registers_;
  return qc;
}

QubitRange QuantumCircuit::add_register(const std::string& name, int size) {
  QFAB_CHECK(size > 0);
  QFAB_CHECK_MSG(!has_register(name), "register " << name << " already exists");
  const QubitRange range{num_qubits_, size};
  num_qubits_ += size;
  registers_.emplace_back(name, range);
  return range;
}

QubitRange QuantumCircuit::reg(const std::string& name) const {
  for (const auto& [n, r] : registers_)
    if (n == name) return r;
  QFAB_CHECK_MSG(false, "no register named " << name);
  return {};
}

bool QuantumCircuit::has_register(const std::string& name) const {
  return std::any_of(registers_.begin(), registers_.end(),
                     [&](const auto& p) { return p.first == name; });
}

std::vector<std::pair<std::string, QubitRange>> QuantumCircuit::registers()
    const {
  return registers_;
}

void QuantumCircuit::append(const Gate& g) {
  for (int i = 0; i < g.arity(); ++i)
    QFAB_CHECK_MSG(g.qubits[i] >= 0 && g.qubits[i] < num_qubits_,
                   "gate " << g.to_string() << " out of range for "
                           << num_qubits_ << " qubits");
  gates_.push_back(g);
}

void QuantumCircuit::compose(const QuantumCircuit& other) {
  QFAB_CHECK(other.num_qubits_ == num_qubits_);
  gates_.insert(gates_.end(), other.gates_.begin(), other.gates_.end());
  global_phase_ += other.global_phase_;
}

void QuantumCircuit::compose_mapped(const QuantumCircuit& other,
                                    const std::vector<int>& mapping) {
  QFAB_CHECK(static_cast<int>(mapping.size()) == other.num_qubits_);
  for (int m : mapping) QFAB_CHECK(m >= 0 && m < num_qubits_);
  for (Gate g : other.gates_) {
    for (int i = 0; i < g.arity(); ++i) g.qubits[i] = mapping[g.qubits[i]];
    append(g);
  }
  global_phase_ += other.global_phase_;
}

QuantumCircuit QuantumCircuit::inverse() const {
  QuantumCircuit inv(0);
  inv.num_qubits_ = num_qubits_;
  inv.registers_ = registers_;
  inv.global_phase_ = -global_phase_;
  inv.gates_.reserve(gates_.size());
  for (auto it = gates_.rbegin(); it != gates_.rend(); ++it)
    inv.gates_.push_back(it->inverse());
  return inv;
}

QuantumCircuit QuantumCircuit::controlled_on(int control) const {
  QFAB_CHECK(control >= 0 && control < num_qubits_);
  QuantumCircuit out(0);
  out.num_qubits_ = num_qubits_;
  out.registers_ = registers_;
  if (global_phase_ != 0.0) out.p(control, global_phase_);
  for (const Gate& g : gates_) {
    for (int i = 0; i < g.arity(); ++i)
      QFAB_CHECK_MSG(g.qubits[i] != control,
                     "controlled_on: control overlaps " << g.to_string());
    switch (g.kind) {
      case GateKind::kId:
        out.id(g.qubits[0]);
        break;
      case GateKind::kX:
        out.cx(control, g.qubits[0]);
        break;
      case GateKind::kH:
        out.ch(control, g.qubits[0]);
        break;
      case GateKind::kP:
        out.cp(control, g.qubits[0], g.param);
        break;
      case GateKind::kRZ:
        // c-RZ(θ) = P(-θ/2) on control · CP(θ): RZ = e^{-iθ/2} P(θ).
        out.p(control, -g.param / 2);
        out.cp(control, g.qubits[0], g.param);
        break;
      case GateKind::kCP:
        out.ccp(control, g.qubits[1], g.qubits[0], g.param);
        break;
      default:
        QFAB_CHECK_MSG(false,
                       "controlled_on: unsupported gate " << g.to_string());
    }
  }
  return out;
}

GateCounts QuantumCircuit::counts() const {
  GateCounts c;
  for (const Gate& g : gates_) {
    ++c.by_name[gate_name(g.kind)];
    switch (g.arity()) {
      case 1: ++c.one_qubit; break;
      case 2: ++c.two_qubit; break;
      default: ++c.three_qubit; break;
    }
  }
  return c;
}

int QuantumCircuit::depth() const {
  std::vector<int> level(static_cast<std::size_t>(num_qubits_), 0);
  int depth = 0;
  for (const Gate& g : gates_) {
    int lvl = 0;
    for (int i = 0; i < g.arity(); ++i)
      lvl = std::max(lvl, level[static_cast<std::size_t>(g.qubits[i])]);
    ++lvl;
    for (int i = 0; i < g.arity(); ++i)
      level[static_cast<std::size_t>(g.qubits[i])] = lvl;
    depth = std::max(depth, lvl);
  }
  return depth;
}

Matrix QuantumCircuit::to_unitary(int max_qubits) const {
  QFAB_CHECK_MSG(num_qubits_ <= max_qubits,
                 "to_unitary limited to " << max_qubits << " qubits");
  Matrix u = Matrix::identity(pow2(num_qubits_));
  for (const Gate& g : gates_) {
    std::vector<int> targets(g.qubits.begin(), g.qubits.begin() + g.arity());
    u = embed_gate(g.matrix(), targets, num_qubits_) * u;
  }
  const cplx phase{std::cos(global_phase_), std::sin(global_phase_)};
  return u * phase;
}

}  // namespace qfab
