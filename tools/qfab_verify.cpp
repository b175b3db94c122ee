// Differential verification CLI.
//
//   tools/qfab_verify --cases 200 --seed 1
//       run 200 seeded random cases through the engine matrix; exit 1 and
//       dump minimized QASM repros to results/verify_failures/ on any
//       mismatch.
//   tools/qfab_verify --repro results/verify_failures/seed1_case37.qasm
//       replay one dumped failure.
//
// See DESIGN.md §8 for the engine matrix and invariants.
#include <iostream>

#include "common/cli.h"
#include "sim/batch.h"
#include "verify/repro.h"
#include "verify/verify.h"

int main(int argc, char** argv) try {
  using namespace qfab;
  using namespace qfab::verify;

  const CliFlags flags(argc, argv);
  VerifyOptions opt;
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.cases = static_cast<std::size_t>(flags.get_int("cases", 200));
  opt.generator.max_qubits = static_cast<int>(flags.get_int("max-qubits", 6));
  opt.generator.max_gates = static_cast<int>(flags.get_int("max-gates", 48));
  opt.engines.tol = flags.get_double("tol", 1e-10);
  opt.engines.channel_tol = flags.get_double("channel-tol", 0.12);
  opt.engines.f32_tol = flags.get_double("f32-tol", opt.engines.f32_tol);
  opt.engines.error_trajectories =
      static_cast<int>(flags.get_int("traj", 96));
  opt.engines.check_noisy = flags.get_bool("noisy", true);
  opt.shrink = flags.get_bool("shrink", true);
  opt.max_failures =
      static_cast<std::size_t>(flags.get_int("max-failures", 8));
  opt.failure_dir = flags.get_string("out", "results/verify_failures");
  opt.progress = flags.get_bool("progress", false);
  const std::string repro = flags.get_string("repro", "");
  // Hidden self-test flag: emulate a batched-kernel regression (one sign
  // flip) that the harness must catch; see sim/batch.h.
  const bool inject = flags.get_bool("inject-kernel-bug", false);
  if (!flags.validate()) return 2;

  if (inject) detail::set_batch_fault_injection(true);

  try {
    if (!repro.empty()) {
      const std::string failure = run_repro(repro, opt.engines);
      if (failure.empty()) {
        std::cout << "repro " << repro << ": PASSES (fixed or not "
                  << "reproducible in this build)\n";
        return 0;
      }
      std::cout << "repro " << repro << ": still fails\n  " << failure
                << '\n';
      return 1;
    }
    const VerifyReport report = run_verification(opt);
    print_report(std::cout, report);
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "qfab_verify: " << e.what() << '\n';
    return 2;
  }
} catch (const qfab::UsageError& e) {
  return qfab::usage_error(argv[0], e);
}
