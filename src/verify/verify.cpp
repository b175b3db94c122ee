#include "verify/verify.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <ostream>

#include "common/parallel.h"
#include "verify/repro.h"
#include "verify/shrink.h"

namespace qfab::verify {

VerifyReport run_verification(const VerifyOptions& options) {
  VerifyReport report;
  report.cases_run = options.cases;

  std::mutex mu;
  std::atomic<std::size_t> failure_count{0};

  // Chunk 1: case costs vary (width, gate count, noisy leg).
  parallel_for_chunked(
      0, options.cases,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (failure_count.load(std::memory_order_relaxed) >=
              options.max_failures)
            return;  // budget exhausted; skip remaining cases
          const VerifyCase c =
              generate_case(options.seed, i, options.generator);
          const std::string failure = check_case(c, options.engines);
          if (failure.empty()) continue;
          failure_count.fetch_add(1, std::memory_order_relaxed);

          CaseFailure f;
          f.index = i;
          f.summary = failure;
          // The shrinker re-runs the exact engines hundreds of times; the
          // noisy leg is dropped there (it dominates runtime and
          // exact-engine failures reproduce without it). A purely noisy
          // failure skips shrinking instead.
          VerifyCase minimized = c;
          EngineOptions exact_only = options.engines;
          exact_only.check_noisy = false;
          const auto still_fails = [&exact_only](const VerifyCase& cand) {
            return check_case(cand, exact_only);
          };
          if (!still_fails(c).empty())
            minimized = shrink_case(c, still_fails);
          f.shrunk_gates = minimized.circuit.gates().size();
          f.shrunk_qubits = minimized.circuit.num_qubits();
          if (!options.failure_dir.empty())
            f.repro_path =
                write_repro(options.failure_dir, minimized, f.summary);

          std::lock_guard lock(mu);
          report.failures.push_back(std::move(f));
        }
      },
      1);

  std::sort(report.failures.begin(), report.failures.end(),
            [](const CaseFailure& a, const CaseFailure& b) {
              return a.index < b.index;
            });
  return report;
}

std::string run_repro(const std::string& path, const EngineOptions& options) {
  std::string original;
  const VerifyCase c = load_repro(path, &original);
  return check_case(c, options);
}

void print_report(std::ostream& os, const VerifyReport& report) {
  os << "qfab_verify: " << report.cases_run << " cases, "
     << report.failures.size() << " failure"
     << (report.failures.size() == 1 ? "" : "s") << '\n';
  for (const CaseFailure& f : report.failures) {
    os << "  case " << f.index << ": " << f.summary << '\n';
    os << "    minimized to " << f.shrunk_gates << " gates / "
       << f.shrunk_qubits << " qubits";
    if (!f.repro_path.empty()) os << " -> " << f.repro_path;
    os << '\n';
  }
  os << (report.ok() ? "OK: all engines agree" : "FAIL") << '\n';
}

}  // namespace qfab::verify
