#include "transpile/transpile.h"

namespace qfab {

TranspileReport transpile(const QuantumCircuit& qc) {
  TranspileReport report;
  report.circuit = decompose_to_basis(qc);
  report.optimize = optimize_basis_circuit(report.circuit);
  report.counts = report.circuit.counts();
  return report;
}

QuantumCircuit transpile_to_basis(const QuantumCircuit& qc) {
  return transpile(qc).circuit;
}

}  // namespace qfab
