#include "transpile/optimize.h"

#include <cmath>
#include <numbers>

#include "transpile/decompose.h"

namespace qfab {

namespace {

constexpr double kPi = std::numbers::pi;
constexpr double kEps = 1e-12;

bool touches(const Gate& g, int q) {
  for (int i = 0; i < g.arity(); ++i)
    if (g.qubits[i] == q) return true;
  return false;
}

}  // namespace

OptimizeStats optimize_basis_circuit(QuantumCircuit& qc) {
  QFAB_CHECK_MSG(is_basis_circuit(qc),
                 "optimize_basis_circuit requires a basis circuit");
  OptimizeStats stats;
  std::vector<Gate> gates = qc.gates();
  double phase = qc.global_phase();

  bool changed = true;
  while (changed) {
    changed = false;
    ++stats.passes;
    QFAB_CHECK_MSG(stats.passes < 10000, "optimizer failed to converge");
    std::vector<bool> dead(gates.size(), false);

    for (std::size_t i = 0; i < gates.size(); ++i) {
      if (dead[i]) continue;
      Gate& gi = gates[i];

      if (gi.kind == GateKind::kRZ) {
        const int q = gi.qubits[0];
        for (std::size_t j = i + 1; j < gates.size(); ++j) {
          if (dead[j]) continue;
          const Gate& gj = gates[j];
          if (gj.kind == GateKind::kRZ && gj.qubits[0] == q) {
            gi.param += gj.param;
            dead[j] = true;
            ++stats.rz_merged;
            changed = true;
            continue;  // keep absorbing further rotations
          }
          if (touches(gj, q)) break;
        }
        // Canonicalize the angle into (-π, π]; each 2π turn is a -1 phase.
        // ceil((θ-π)/2π) maps θ = π to k = 0 (stable fixed point — a
        // round() here would ping-pong ±π between passes forever).
        const double k = std::ceil((gi.param - kPi) / (2 * kPi));
        if (k != 0.0) {
          gi.param -= 2 * kPi * k;
          phase += kPi * k;
          changed = true;
        }
        if (std::abs(gi.param) < kEps) {
          dead[i] = true;
          ++stats.rz_removed;
          changed = true;
        }
        continue;
      }

      if (gi.kind == GateKind::kCX) {
        const int t = gi.qubits[0], c = gi.qubits[1];
        for (std::size_t j = i + 1; j < gates.size(); ++j) {
          if (dead[j]) continue;
          const Gate& gj = gates[j];
          if (gj.kind == GateKind::kCX && gj.qubits[0] == t &&
              gj.qubits[1] == c) {
            dead[i] = dead[j] = true;
            stats.cx_cancelled += 2;
            changed = true;
            break;
          }
          if (touches(gj, c) || touches(gj, t)) break;
        }
        continue;
      }

      if (gi.kind == GateKind::kX || gi.kind == GateKind::kSX) {
        // Fold adjacent X·X -> I and SX·SX -> X (literal adjacency on the
        // qubit: the next alive gate touching q must be the partner).
        const int q = gi.qubits[0];
        for (std::size_t j = i + 1; j < gates.size(); ++j) {
          if (dead[j]) continue;
          const Gate& gj = gates[j];
          if (!touches(gj, q)) continue;
          if (gj.kind == gi.kind && gj.qubits[0] == q) {
            if (gi.kind == GateKind::kX) {
              dead[i] = true;
            } else {
              gi.kind = GateKind::kX;  // SX² = X exactly
            }
            dead[j] = true;
            changed = true;
          }
          break;
        }
        continue;
      }
    }

    if (changed) {
      std::vector<Gate> next;
      next.reserve(gates.size());
      for (std::size_t i = 0; i < gates.size(); ++i)
        if (!dead[i]) next.push_back(gates[i]);
      gates = std::move(next);
    }
  }

  QuantumCircuit out = QuantumCircuit::same_shape(qc);
  out.add_global_phase(phase);
  for (const Gate& g : gates) out.append(g);
  qc = std::move(out);
  return stats;
}

}  // namespace qfab
