#include "qfb/multiplier.h"

#include <cmath>
#include <numbers>

namespace qfab {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}  // namespace

void append_qfm(QuantumCircuit& qc, const std::vector<int>& x,
                const std::vector<int>& y, const std::vector<int>& z,
                const MultiplierOptions& options) {
  const int n = static_cast<int>(x.size());
  const int m = static_cast<int>(y.size());
  QFAB_CHECK_MSG(static_cast<int>(z.size()) == n + m,
                 "product register must have n + m qubits");

  const AdderOptions add_options{options.qft_depth, options.add_depth,
                                 options.max_rotation_order, false};
  for (int i = 1; i <= n; ++i) {
    // Build the QFA of y into an (m+1)-qubit scratch window, then lift it
    // to a controlled circuit with x_i as the control.
    QuantumCircuit sub(m + (m + 1) + 1);
    std::vector<int> sub_y(static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) sub_y[static_cast<std::size_t>(j)] = j;
    std::vector<int> sub_w(static_cast<std::size_t>(m + 1));
    for (int w = 0; w <= m; ++w) sub_w[static_cast<std::size_t>(w)] = m + w;
    const int sub_control = 2 * m + 1;
    append_qfa(sub, sub_y, sub_w, add_options);
    const QuantumCircuit controlled = sub.controlled_on(sub_control);

    // Map into the main circuit: window w -> z[i-1+w], control -> x[i-1].
    std::vector<int> mapping(static_cast<std::size_t>(2 * m + 2));
    for (int j = 0; j < m; ++j) mapping[static_cast<std::size_t>(j)] = y[j];
    for (int w = 0; w <= m; ++w)
      mapping[static_cast<std::size_t>(m + w)] = z[i - 1 + w];
    mapping[static_cast<std::size_t>(sub_control)] = x[i - 1];
    qc.compose_mapped(controlled, mapping);
  }
}

void append_qfm_fused(QuantumCircuit& qc, const std::vector<int>& x,
                      const std::vector<int>& y, const std::vector<int>& z,
                      const MultiplierOptions& options) {
  const int n = static_cast<int>(x.size());
  const int m = static_cast<int>(y.size());
  QFAB_CHECK_MSG(static_cast<int>(z.size()) == n + m,
                 "product register must have n + m qubits");

  append_qft(qc, z, options.qft_depth);
  // x_i y_j contributes 2^{i+j-2} to the product; on Fourier-basis qubit
  // z_q that is the rotation R_l with l = q - (i + j - 2), kept for l >= 1.
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= m; ++j) {
      for (int q = i + j - 1; q <= n + m; ++q) {
        const int l = q - (i + j - 2);
        if (options.add_depth > 0 && l - 1 > options.add_depth) continue;
        if (options.max_rotation_order > 0 && l > options.max_rotation_order)
          continue;
        qc.ccp(x[i - 1], y[j - 1], z[q - 1], kTwoPi / std::ldexp(1.0, l));
      }
    }
  }
  append_iqft(qc, z, options.qft_depth);
}

QuantumCircuit make_qfm(int n, int m, const MultiplierOptions& options,
                        bool fused) {
  QuantumCircuit qc(0);
  const QubitRange x = qc.add_register("x", n);
  const QubitRange y = qc.add_register("y", m);
  const QubitRange z = qc.add_register("z", n + m);
  if (fused)
    append_qfm_fused(qc, range_qubits(x), range_qubits(y), range_qubits(z),
                     options);
  else
    append_qfm(qc, range_qubits(x), range_qubits(y), range_qubits(z),
               options);
  return qc;
}

}  // namespace qfab
