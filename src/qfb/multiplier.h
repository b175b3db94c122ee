// Quantum Fourier Multiplication (QFM).
//
// Two constructions of |x>|y>|z> -> |x>|y>|z + x·y mod 2^{n+m}>:
//
//  * append_qfm — the paper's Fig. 3: a cascade of controlled QFAs. The
//    i-th x bit controls a full QFA of y into the (m+1)-qubit window
//    z[i-1 .. i+m-1]; every H/CP of the QFA is lifted to CH/CCP with x_i as
//    the extra control. This is the circuit the paper simulates and counts.
//    NOTE: interior-window carries are dropped, so the cascade is exact
//    only under the no-overflow invariant — guaranteed when z starts at 0
//    (the paper's configuration), not for arbitrary accumulation.
//
//  * append_qfm_fused — the Ruiz-Perez weighted-sum form: a single QFT over
//    the whole product register, doubly-controlled rotations for every
//    (x_i, y_j) pair, then one inverse QFT. Far fewer gates; used by the
//    construction-ablation bench.
//
// The product register must hold n + m qubits (no-overflow guarantee).
#pragma once

#include <vector>

#include "circuit/circuit.h"
#include "qfb/adder.h"

namespace qfab {

struct MultiplierOptions {
  /// AQFT depth applied to the (controlled) QFTs. For the cascade form this
  /// is the depth of each (m+1)-qubit window cQFT; for the fused form, of
  /// the single (n+m)-qubit QFT.
  int qft_depth = kFullDepth;

  /// Approximate-addition depth for the (c)add steps (0 = exact).
  int add_depth = 0;

  /// Drop rotations R_l with l > cap in the add steps (0 = keep all).
  int max_rotation_order = 0;
};

/// Paper construction (cascade of controlled QFAs).
void append_qfm(QuantumCircuit& qc, const std::vector<int>& x,
                const std::vector<int>& y, const std::vector<int>& z,
                const MultiplierOptions& options = {});

/// Ruiz-Perez single-QFT construction.
void append_qfm_fused(QuantumCircuit& qc, const std::vector<int>& x,
                      const std::vector<int>& y, const std::vector<int>& z,
                      const MultiplierOptions& options = {});

/// Standalone multiplier with registers "x" (n), "y" (m), "z" (n+m).
QuantumCircuit make_qfm(int n, int m, const MultiplierOptions& options = {},
                        bool fused = false);

}  // namespace qfab
