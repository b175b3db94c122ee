#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "circuit/qasm.h"
#include "sim/batch.h"
#include "sim/invariants.h"
#include "sim/statevector.h"
#include "verify/compare.h"
#include "verify/engines.h"
#include "verify/generator.h"
#include "verify/repro.h"
#include "verify/shrink.h"
#include "verify/verify.h"

namespace qfab::verify {
namespace {

/// Restores the batched-kernel fault flag even when an assertion fails.
struct FaultInjectionGuard {
  explicit FaultInjectionGuard(bool on) { detail::set_batch_fault_injection(on); }
  ~FaultInjectionGuard() { detail::set_batch_fault_injection(false); }
};

// ---------- invariants ----------

TEST(Invariants, SimplexAcceptsValidDistributions) {
  EXPECT_EQ(check_probability_simplex({0.5, 0.5}, 1e-12), "");
  EXPECT_EQ(check_probability_simplex({1.0, 0.0, 0.0}, 1e-12), "");
  // Entries a hair outside [0, 1] within tolerance are rounding, not bugs.
  EXPECT_EQ(check_probability_simplex({1.0 + 1e-13, -1e-13}, 1e-12), "");
}

TEST(Invariants, SimplexRejectsViolations) {
  EXPECT_NE(check_probability_simplex({0.5, 0.6}, 1e-12), "");     // sum > 1
  EXPECT_NE(check_probability_simplex({1.2, -0.2}, 1e-12), "");    // range
  EXPECT_NE(check_probability_simplex({0.5, 0.4}, 1e-12), "");     // sum < 1
  const double nan = std::nan("");
  EXPECT_NE(check_probability_simplex({nan, 1.0}, 1e-12), "");
}

TEST(Invariants, NormChecks) {
  StateVector sv(3);  // |000>, exactly normalized
  EXPECT_EQ(check_norm(sv, 1e-12), "");
  BatchedStateVector bsv(2, 3);
  EXPECT_EQ(check_lane_norms(bsv, 1e-12), "");
}

// ---------- generator ----------

TEST(Generator, DeterministicPerSeedAndIndex) {
  const GeneratorOptions opts;
  for (std::size_t i = 0; i < 16; ++i) {
    const VerifyCase a = generate_case(7, i, opts);
    const VerifyCase b = generate_case(7, i, opts);
    EXPECT_EQ(to_qasm(a.circuit), to_qasm(b.circuit));
    EXPECT_EQ(a.lanes, b.lanes);
    EXPECT_EQ(a.split_gate, b.split_gate);
    EXPECT_DOUBLE_EQ(a.depolarizing_p, b.depolarizing_p);
  }
  // Different indices give different circuits (overwhelmingly likely).
  EXPECT_NE(to_qasm(generate_case(7, 0, opts).circuit),
            to_qasm(generate_case(7, 1, opts).circuit));
}

TEST(Generator, RespectsBounds) {
  GeneratorOptions opts;
  opts.min_qubits = 2;
  opts.max_qubits = 4;
  opts.min_gates = 3;
  opts.max_gates = 9;
  for (std::size_t i = 0; i < 64; ++i) {
    const VerifyCase c = generate_case(3, i, opts);
    EXPECT_GE(c.circuit.num_qubits(), 2);
    EXPECT_LE(c.circuit.num_qubits(), 4);
    EXPECT_GE(c.circuit.gates().size(), 3u);
    EXPECT_LE(c.circuit.gates().size(), 9u);
    EXPECT_GE(c.lanes, 1);
    EXPECT_LE(c.lanes, BatchedStateVector::kMaxLanes);
    EXPECT_LE(c.split_gate, c.circuit.gates().size());
    EXPECT_GT(c.depolarizing_p, 0.0);
    for (const Gate& g : c.circuit.gates())
      EXPECT_LE(gate_arity(g.kind), c.circuit.num_qubits());
  }
}

TEST(Generator, TwoQubitCasesTerminate) {
  // Regression: q[2] (a third distinct qubit) was drawn unconditionally,
  // which cannot terminate at n == 2.
  GeneratorOptions opts;
  opts.min_qubits = 2;
  opts.max_qubits = 2;
  for (std::size_t i = 0; i < 32; ++i) {
    const VerifyCase c = generate_case(11, i, opts);
    EXPECT_EQ(c.circuit.num_qubits(), 2);
    for (const Gate& g : c.circuit.gates()) EXPECT_LE(gate_arity(g.kind), 2);
  }
}

// ---------- engine matrix ----------

TEST(Engines, SmokeCasesAgree) {
  const GeneratorOptions gopts;
  EngineOptions eopts;
  eopts.error_trajectories = 48;  // keep the suite fast; the CLI uses 96
  for (std::size_t i = 0; i < 12; ++i) {
    const VerifyCase c = generate_case(1, i, gopts);
    EXPECT_EQ(check_case(c, eopts), "")
        << "case " << i << ": " << to_qasm(c.circuit);
  }
}

TEST(Engines, CompareFlagsDisagreement) {
  EngineResult a, b;
  a.name = "one";
  a.probabilities = {0.5, 0.5};
  a.marginal = {1.0};
  b = a;
  b.name = "two";
  EXPECT_EQ(compare_engine_results({a, b}, 1e-10), "");
  b.probabilities = {0.6, 0.4};
  const std::string failure = compare_engine_results({a, b}, 1e-10);
  EXPECT_NE(failure, "");
  EXPECT_NE(failure.find("one"), std::string::npos);
  EXPECT_NE(failure.find("two"), std::string::npos);
  a.violation = "norm drifted";
  EXPECT_NE(compare_engine_results({a}, 1e-10).find("norm drifted"),
            std::string::npos);
}

// ---------- fault injection end-to-end ----------

TEST(Engines, InjectedKernelBugIsCaught) {
  const GeneratorOptions gopts;
  EngineOptions eopts;
  eopts.check_noisy = false;
  const VerifyCase c = generate_case(1, 0, gopts);
  ASSERT_EQ(check_case(c, eopts), "");
  FaultInjectionGuard guard(true);
  EXPECT_NE(check_case(c, eopts), "");
}

TEST(Shrink, MinimizesInjectedFailure) {
  const GeneratorOptions gopts;
  EngineOptions eopts;
  eopts.check_noisy = false;
  const VerifyCase c = generate_case(1, 0, gopts);
  FaultInjectionGuard guard(true);
  const auto check = [&eopts](const VerifyCase& cand) {
    return check_case(cand, eopts);
  };
  ASSERT_NE(check(c), "");
  const VerifyCase minimized = shrink_case(c, check);
  EXPECT_NE(check(minimized), "");  // still failing after minimization
  EXPECT_LE(minimized.circuit.gates().size(), c.circuit.gates().size());
  EXPECT_LE(minimized.circuit.num_qubits(), c.circuit.num_qubits());
  // The sign flip reproduces on a handful of 1q gates; minimization must
  // get well under the original random circuit.
  EXPECT_LE(minimized.circuit.gates().size(), 8u);
}

TEST(Repro, RoundTripsCaseAndMetadata) {
  // Per-process dir: concurrent runs of this binary from one directory
  // must not clobber each other's files.
  const std::string dir =
      "test_verify_repro_tmp_" + std::to_string(::getpid());
  const VerifyCase c = generate_case(5, 3, GeneratorOptions{});
  const std::string path = write_repro(dir, c, "engine X vs Y: max |dp|\n= 1");
  std::string failure;
  const VerifyCase back = load_repro(path, &failure);
  EXPECT_EQ(to_qasm(back.circuit), to_qasm(c.circuit));
  EXPECT_EQ(back.root_seed, c.root_seed);
  EXPECT_EQ(back.index, c.index);
  EXPECT_EQ(back.lanes, c.lanes);
  EXPECT_EQ(back.split_gate, c.split_gate);
  EXPECT_DOUBLE_EQ(back.depolarizing_p, c.depolarizing_p);
  // Newlines in the failure summary are flattened, not lost.
  EXPECT_EQ(failure, "engine X vs Y: max |dp| = 1");
  std::filesystem::remove_all(dir);
}

TEST(Verify, DriverReportsInjectedFailuresWithRepro) {
  // Per-process dir: see Repro.RoundTripsCaseAndMetadata.
  const std::string dir =
      "test_verify_driver_tmp_" + std::to_string(::getpid());
  VerifyOptions opts;
  opts.seed = 1;
  opts.cases = 8;
  opts.engines.check_noisy = false;
  opts.max_failures = 2;
  opts.failure_dir = dir;

  const VerifyReport clean = run_verification(opts);
  EXPECT_TRUE(clean.ok());
  EXPECT_EQ(clean.cases_run, 8u);

  {
    FaultInjectionGuard guard(true);
    const VerifyReport broken = run_verification(opts);
    EXPECT_FALSE(broken.ok());
    // max_failures bounds *scheduling* of new cases, not in-flight ones, so
    // the exact count depends on pool timing; at least one and at most
    // `cases` failures are recorded.
    ASSERT_GE(broken.failures.size(), 1u);
    EXPECT_LE(broken.failures.size(), opts.cases);
    for (const CaseFailure& f : broken.failures) {
      EXPECT_NE(f.summary, "");
      ASSERT_NE(f.repro_path, "");
      // Each dumped repro must itself fail under the injected bug and pass
      // once the "bug" is gone — the workflow a real kernel fix follows.
      EXPECT_NE(run_repro(f.repro_path, opts.engines), "");
    }
    detail::set_batch_fault_injection(false);
    EXPECT_EQ(run_repro(broken.failures.front().repro_path, opts.engines), "");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace qfab::verify
