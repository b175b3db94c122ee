// Fused vs. unfused replay of the paper's transpiled circuits.
//
// Times the per-gate reference path (StateVector::apply_circuit) against
// FusedPlan::apply on the transpiled QFA(n=8, d in 1..7 and full) and
// QFM(n=4) circuits, and writes a machine-readable BENCH_fusion.json. Each
// measurement also cross-checks the two paths' final amplitudes
// (<= 1e-12). Each row also prices the compiler: compile_ms is one cold
// compile of the plan, and slice_compile_us the mean cost of one slice
// compile when every prefix [b, k) and suffix [k, e) slice of every op
// [b, e) is asked of subrange_plan — the slices that injection sites
// inside ops need — from an empty slice store; `slices` counts those
// compiles (repeats of an earlier slice's gates are store hits). Both are
// medians over reps.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/host_info.h"
#include "common/io.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "exp/experiment.h"
#include "sim/fusion.h"

namespace qfab::bench {
namespace {

struct BenchRow {
  std::string name;
  int num_qubits = 0;
  std::size_t gates = 0;
  std::size_t fused_ops = 0;
  double unfused_ms = 0.0;
  double fused_ms = 0.0;
  double unfused_ns_per_gate = 0.0;
  double fused_ns_per_gate = 0.0;
  double speedup = 0.0;
  double max_deviation = 0.0;
  double compile_ms = 0.0;
  double slice_compile_us = 0.0;
  std::size_t slices = 0;
};

double max_amp_deviation(const StateVector& a, const StateVector& b) {
  const auto& va = a.amplitudes();
  const auto& vb = b.amplitudes();
  double mx = 0.0;
  for (std::size_t i = 0; i < va.size(); ++i)
    mx = std::max(mx, std::abs(va[i] - vb[i]));
  return mx;
}

/// Median-of-reps wall time in milliseconds of `fn`.
template <typename Fn>
double time_median_ms(Fn&& fn, int reps) {
  std::vector<double> ms;
  ms.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    ms.push_back(watch.seconds() * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Median over reps of the mean microseconds one slice compile takes,
/// asking for every prefix and suffix slice of every op of a plan of `qc`.
/// Each rep builds the plan afresh, so its private slice store starts
/// empty; a slice whose gates repeat an earlier one's is a store hit, not
/// a compile, and counts only in the time. Sets `slices` to the number of
/// compiles (the distinct slice plans returned).
double time_slice_compiles_us(const QuantumCircuit& qc, int reps,
                              std::size_t& slices) {
  std::vector<double> us;
  us.reserve(reps);
  std::vector<const FusedPlan*> returned;
  for (int r = 0; r < reps; ++r) {
    const FusedPlan plan(qc);
    returned.clear();
    Stopwatch watch;
    for (const FusedOp& op : plan.ops())
      for (std::size_t k = op.gate_begin + 1; k < op.gate_end; ++k) {
        returned.push_back(&plan.subrange_plan(op.gate_begin, k));
        returned.push_back(&plan.subrange_plan(k, op.gate_end));
      }
    const double seconds = watch.seconds();
    std::sort(returned.begin(), returned.end());
    slices = static_cast<std::size_t>(
        std::unique(returned.begin(), returned.end()) - returned.begin());
    us.push_back(slices == 0 ? 0.0
                             : seconds * 1e6 / static_cast<double>(slices));
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

BenchRow run_case(const std::string& name, const CircuitSpec& spec,
                  int reps) {
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const FusedPlan plan(qc);
  BenchRow row;
  row.compile_ms = time_median_ms([&] { const FusedPlan cold(qc); }, reps);
  row.slice_compile_us = time_slice_compiles_us(qc, reps, row.slices);
  row.name = name;
  row.num_qubits = qc.num_qubits();
  row.gates = qc.gates().size();
  row.fused_ops = plan.op_count();

  StateVector sv(qc.num_qubits());
  row.unfused_ms = time_median_ms(
      [&] {
        sv.reset();
        sv.apply_circuit(qc);
      },
      reps);
  StateVector ref_final = sv;  // last unfused replay's final state

  row.fused_ms = time_median_ms(
      [&] {
        sv.reset();
        plan.apply(sv);
      },
      reps);
  row.max_deviation = max_amp_deviation(sv, ref_final);

  const double per_gate = 1e6 / static_cast<double>(row.gates);
  row.unfused_ns_per_gate = row.unfused_ms * per_gate;
  row.fused_ns_per_gate = row.fused_ms * per_gate;
  row.speedup = row.unfused_ms / row.fused_ms;
  return row;
}

void write_json(const std::vector<BenchRow>& rows, const std::string& path) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"fusion\",\n  \"host\": "
      << host_info_json(kernel_tier_name<double>()) << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\""
        << ", \"num_qubits\": " << r.num_qubits
        << ", \"gates\": " << r.gates
        << ", \"fused_ops\": " << r.fused_ops
        << ", \"unfused_ms\": " << r.unfused_ms
        << ", \"fused_ms\": " << r.fused_ms
        << ", \"unfused_ns_per_gate\": " << r.unfused_ns_per_gate
        << ", \"fused_ns_per_gate\": " << r.fused_ns_per_gate
        << ", \"speedup\": " << r.speedup
        << ", \"compile_ms\": " << r.compile_ms
        << ", \"slice_compile_us\": " << r.slice_compile_us
        << ", \"slices\": " << r.slices
        << ", \"max_deviation\": " << r.max_deviation << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  atomic_write_file(path, out.str());
}

int run(int argc, const char* const* argv) {
  CliFlags flags(argc, argv);
  const int reps = static_cast<int>(flags.get_int("reps", 9));
  const std::string out_path =
      flags.get_string("out", "BENCH_fusion.json");
  if (!flags.validate()) return 2;

  std::vector<BenchRow> rows;
  for (int d = 1; d <= 7; ++d) {
    CircuitSpec spec;
    spec.op = Operation::kAdd;
    spec.n = 8;
    spec.depth = d;
    rows.push_back(run_case("qfa_n8_d" + std::to_string(d), spec, reps));
  }
  {
    CircuitSpec spec;
    spec.op = Operation::kAdd;
    spec.n = 8;
    spec.depth = kFullDepth;
    rows.push_back(run_case("qfa_n8_dfull", spec, reps));
  }
  {
    CircuitSpec spec;
    spec.op = Operation::kMultiply;
    spec.n = 4;
    spec.depth = kFullDepth;
    rows.push_back(run_case("qfm_n4_dfull", spec, reps));
  }

  TextTable table({"case", "qubits", "gates", "fused_ops", "unfused_ms",
                   "fused_ms", "ns/gate", "speedup", "max_dev", "compile_ms",
                   "slices", "slice_us"});
  for (const BenchRow& r : rows) {
    QFAB_CHECK_MSG(r.max_deviation < 1e-12,
                   r.name << ": fused path deviates " << r.max_deviation);
    char dev[32];
    std::snprintf(dev, sizeof dev, "%.1e", r.max_deviation);
    table.add_row({r.name, std::to_string(r.num_qubits),
                   std::to_string(r.gates), std::to_string(r.fused_ops),
                   fmt_double(r.unfused_ms, 3), fmt_double(r.fused_ms, 3),
                   fmt_double(r.fused_ns_per_gate, 1),
                   fmt_double(r.speedup, 2), dev, fmt_double(r.compile_ms, 3),
                   std::to_string(r.slices),
                   fmt_double(r.slice_compile_us, 1)});
  }
  table.print(std::cout);
  write_json(rows, out_path);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace qfab::bench

int main(int argc, char** argv) try {
  return qfab::bench::run(argc, argv);
} catch (const qfab::UsageError& e) {
  return qfab::usage_error(argv[0], e);
}
