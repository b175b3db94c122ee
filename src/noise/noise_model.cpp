#include "noise/noise_model.h"

namespace qfab {

double NoiseModel::depolarizing_param(const Gate& g) const {
  switch (g.arity()) {
    case 1:
      if (g.kind == GateKind::kRZ && !noisy_rz) return 0.0;
      if (g.kind == GateKind::kId && !noisy_id) return 0.0;
      return p1q;
    case 2:
      return p2q;
    default:
      // The transpiled basis has no 3q gates; abstract circuits are never
      // simulated with noise.
      QFAB_CHECK_MSG(false, "noise model applied to a non-basis gate");
      return 0.0;
  }
}

double NoiseModel::error_event_prob(const Gate& g) const {
  const double p = depolarizing_param(g);
  return g.arity() == 1 ? p * 3.0 / 4.0 : p * 15.0 / 16.0;
}

double NoiseModel::gate_duration(const Gate& g) const {
  if (g.kind == GateKind::kRZ) return 0.0;  // virtual on IBM hardware
  return g.arity() == 1 ? time_1q : time_2q;
}

PauliProbs NoiseModel::thermal_probs(const Gate& g) const {
  if (!thermal_enabled()) return {};
  return thermal_pauli_twirl(t1, t2, gate_duration(g));
}

}  // namespace qfab
