#include "verify/generator.h"

#include <cmath>

#include "common/rng.h"

namespace qfab::verify {

namespace {

/// The transpiled basis the sweeps actually execute.
const GateKind kBasisKinds[] = {GateKind::kId, GateKind::kX, GateKind::kRZ,
                                GateKind::kSX, GateKind::kCX};

/// Pre-decomposition gates from the arithmetic builders' alphabet.
const GateKind kPreKinds[] = {GateKind::kCP, GateKind::kCCP, GateKind::kH,
                              GateKind::kCH};

/// Probability of drawing a pre-decomposition gate instead of a
/// transpiled-basis gate.
constexpr double kPreDecompositionFraction = 0.4;

}  // namespace

VerifyCase generate_case(std::uint64_t root_seed, std::size_t index,
                         const GeneratorOptions& options) {
  QFAB_CHECK(options.min_qubits >= 2 &&
             options.max_qubits >= options.min_qubits);
  QFAB_CHECK(options.min_gates >= 1 && options.max_gates >= options.min_gates);
  Pcg64 root(root_seed, 0x5eedfab5ULL);
  Pcg64 rng = root.split(static_cast<std::uint64_t>(index));

  VerifyCase c;
  c.root_seed = root_seed;
  c.index = index;
  const int n = options.min_qubits +
                static_cast<int>(rng.uniform_int(
                    static_cast<u64>(options.max_qubits - options.min_qubits) +
                    1));
  const int gates =
      options.min_gates +
      static_cast<int>(rng.uniform_int(
          static_cast<u64>(options.max_gates - options.min_gates) + 1));
  c.circuit = QuantumCircuit(n);

  for (int i = 0; i < gates; ++i) {
    GateKind kind;
    do {
      const bool pre = rng.uniform() < kPreDecompositionFraction;
      kind = pre ? kPreKinds[rng.uniform_int(std::size(kPreKinds))]
                 : kBasisKinds[rng.uniform_int(std::size(kBasisKinds))];
    } while (gate_arity(kind) > n);  // CCP needs 3 qubits
    // Sample only as many distinct qubits as the gate needs: n == 2 has no
    // third distinct qubit, so an unconditional q[2] draw would spin.
    const int arity = gate_arity(kind);
    int q[3] = {0, 0, 0};
    q[0] = static_cast<int>(rng.uniform_int(n));
    if (arity >= 2)
      do q[1] = static_cast<int>(rng.uniform_int(n));
      while (q[1] == q[0]);
    if (arity >= 3)
      do q[2] = static_cast<int>(rng.uniform_int(n));
      while (q[2] == q[0] || q[2] == q[1]);
    const double theta = (rng.uniform() - 0.5) * 2.0 * M_PI;
    if (arity == 1) {
      c.circuit.append(make_gate1(kind, q[0], theta));
    } else if (arity == 2) {
      c.circuit.append(make_gate2(kind, q[0], q[1], theta));
    } else {
      c.circuit.append(make_gate3(kind, q[0], q[1], q[2], theta));
    }
  }

  c.lanes = 1 + static_cast<int>(rng.uniform_int(8));
  c.split_gate = rng.uniform_int(static_cast<u64>(gates) + 1);
  // Small enough that the stratified estimator's trajectory average stays
  // close to the exact channel; large enough that a noise-handling bug
  // moves the distribution measurably.
  c.depolarizing_p = 0.001 + 0.007 * rng.uniform();
  return c;
}

}  // namespace qfab::verify
