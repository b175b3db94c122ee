// Depolarizing gate-noise model (Qiskit `depolarizing_error` semantics).
//
// A 1q gate with depolarizing parameter p applies, after the ideal gate,
// one of {X, Y, Z} each with probability p/4 (identity otherwise); a 2q
// gate applies one of the 15 non-identity two-qubit Paulis each with
// probability p/16. The paper's sweeps set exactly one of p1q/p2q nonzero
// and attach the error to every transpiled gate of that arity (Sec. IV:
// "we include either 1q-gate or 2q-gate error rates ... and do not include
// any other gate errors").
#pragma once

#include "circuit/circuit.h"
#include "noise/thermal.h"

namespace qfab {

struct NoiseModel {
  /// Depolarizing parameter attached to one-qubit basis gates.
  double p1q = 0.0;
  /// Depolarizing parameter attached to CX gates.
  double p2q = 0.0;
  /// Whether RZ gates are noisy. The paper's gate counts include RZ as a
  /// 1q gate; on IBM hardware RZ is virtual (error-free), so this switch
  /// exists for the noise-attachment ablation. Default: noisy (paper
  /// reading).
  bool noisy_rz = true;
  /// Whether Id gates are noisy (idle error). Default: noisy.
  bool noisy_id = true;

  /// Thermal relaxation (Pauli-twirled, see noise/thermal.h), applied to
  /// *each qubit* of every timed gate in addition to the depolarizing
  /// error. Disabled while t1 and t2 are both <= 0. RZ is virtual on IBM
  /// hardware (zero duration) and never relaxes; Id idles for time_1q.
  double t1 = 0.0;
  double t2 = 0.0;
  double time_1q = 0.0;  // 1q gate duration, same units as t1/t2
  double time_2q = 0.0;  // CX duration

  /// Depolarizing parameter attached to this gate (p1q/p2q, 0 for
  /// noise-exempt gates such as RZ when noisy_rz is off).
  double depolarizing_param(const Gate& g) const;

  /// Probability that the gate suffers a *non-identity* depolarizing Pauli
  /// error: 3p/4 for 1q, 15p/16 for 2q, 0 for noise-exempt gates.
  double error_event_prob(const Gate& g) const;

  bool thermal_enabled() const { return t1 > 0.0 || t2 > 0.0; }
  /// Duration of `g` under this model (0 for RZ).
  double gate_duration(const Gate& g) const;
  /// Twirled thermal Pauli probabilities for one qubit of `g`.
  PauliProbs thermal_probs(const Gate& g) const;

  bool enabled() const { return p1q > 0.0 || p2q > 0.0 || thermal_enabled(); }
};

}  // namespace qfab
