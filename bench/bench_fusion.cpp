// Fused vs. unfused replay of the paper's transpiled circuits, on the
// plans' one executor.
//
// Times apply_plan of each circuit's fused plan against apply_plan of the
// same circuit's unfused plan (FusionOptions::enable = false: one kGate op
// per gate), on the transpiled QFA(n=8, d in 1..7 and full) and QFM(n=4)
// circuits. Both run on a one-lane BatchedStateVector made dense
// (make_dense), so every pass touches every amplitude row as an unmasked
// engine would, and each is cross-checked against StateVector::apply_circuit
// (<= 1e-12 per amplitude). Each row also prices the compiler: compile_ms is
// one cold compile of the plan, and slice_compile_us the mean cost of one
// slice compile when every prefix [b, k) and suffix [k, e) slice of every
// op [b, e) is asked of subrange_plan — the slices that injection sites
// inside ops need — from an empty slice store; `slices` counts those
// compiles (repeats of an earlier slice's gates are store hits). Times are
// medians over reps; the replay times also carry their quartiles. Writes
// BENCH_fusion.json with the host and the command line.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/host_info.h"
#include "common/io.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "exp/experiment.h"
#include "sim/batch.h"
#include "sim/fusion.h"

namespace qfab::bench {
namespace {

/// Median and quartiles of a replay time over reps, in milliseconds.
struct Timing {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

struct BenchRow {
  std::string name;
  int num_qubits = 0;
  std::size_t gates = 0;
  std::size_t fused_ops = 0;
  Timing unfused;
  Timing fused;
  double speedup = 0.0;
  double max_deviation = 0.0;  // the larger of the two plans' deviations
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

/// apply_plan of `plan` on a copy of `start`, `reps` times: the time of
/// each pass (the copy is off the clock), and in `final` the state the
/// last pass left.
Timing time_plan(const FusedPlan& plan, const BatchedStateVector& start,
                 int reps, BatchedStateVector& final) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    final = start;
    Stopwatch watch;
    apply_plan(plan, final);
    ms.push_back(watch.seconds() * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return Timing{ms[ms.size() / 2], ms[ms.size() / 4], ms[ms.size() * 3 / 4]};
}

/// Median over reps of the mean microseconds one slice compile takes,
/// asking for every prefix and suffix slice of every op of a plan of `qc`.
/// Each rep builds the plan afresh, so its private slice store starts
/// empty; a slice whose gates repeat an earlier one's is a store hit, not
/// a compile, and counts only in the time. Sets `slices` to the number of
/// compiles (the distinct slice plans returned).
double time_slice_compiles_us(const QuantumCircuit& qc, int reps,
                              std::size_t& slices) {
  std::vector<const FusedPlan*> returned;
  return median_of(reps, [&] {
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
    return slices == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(slices);
  });
}

BenchRow run_case(const std::string& name, const CircuitSpec& spec,
                  int reps) {
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const FusedPlan plan(qc);
  FusionOptions per_gate;
  per_gate.enable = false;
  const FusedPlan unfused_plan(qc, per_gate);
  BenchRow row;
  row.compile_ms = median_ms(reps, [&] { const FusedPlan cold(qc); });
  row.slice_compile_us = time_slice_compiles_us(qc, reps, row.slices);
  row.name = name;
  row.num_qubits = qc.num_qubits();
  row.gates = qc.gates().size();
  row.fused_ops = plan.op_count();

  StateVector ref(qc.num_qubits());
  ref.apply_circuit(qc);
  BatchedStateVector start(qc.num_qubits(), 1);
  start.make_dense();
  BatchedStateVector final = start;
  row.unfused = time_plan(unfused_plan, start, reps, final);
  row.max_deviation = max_amp_deviation(final.lane_state(0), ref);
  row.fused = time_plan(plan, start, reps, final);
  row.max_deviation =
      std::max(row.max_deviation, max_amp_deviation(final.lane_state(0), ref));
  row.speedup = row.unfused.median / row.fused.median;
  return row;
}

/// One replay time as JSON members: `<what>_ms` (the median), then
/// `<what>_ms_q1` and `<what>_ms_q3`.
std::string timing_json(const char* what, const Timing& t) {
  std::ostringstream out;
  out << "\"" << what << "_ms\": " << t.median << ", \"" << what
      << "_ms_q1\": " << t.q1 << ", \"" << what << "_ms_q3\": " << t.q3;
  return out.str();
}

void write_json(const std::vector<BenchRow>& rows, const std::string& command,
                int reps, const std::string& path) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"fusion\",\n  \"host\": "
      << host_info_json(kernel_tier_name<double>()) << ",\n  \"command\": \""
      << command << "\",\n  \"reps\": " << reps << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    const double per_gate = 1e6 / static_cast<double>(r.gates);
    out << "    {\"name\": \"" << r.name << "\""
        << ", \"num_qubits\": " << r.num_qubits
        << ", \"gates\": " << r.gates
        << ", \"fused_ops\": " << r.fused_ops
        << ", " << timing_json("unfused", r.unfused)
        << ", " << timing_json("fused", r.fused)
        << ", \"unfused_ns_per_gate\": " << r.unfused.median * per_gate
        << ", \"fused_ns_per_gate\": " << r.fused.median * per_gate
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

/// The command line as typed, the program by its base name.
std::string command_line(int argc, const char* const* argv) {
  std::string program = argv[0];
  std::string out = program.substr(program.find_last_of('/') + 1);
  for (int i = 1; i < argc; ++i) out += std::string(" ") + argv[i];
  return out;
}

int run(int argc, const char* const* argv) {
  CliFlags flags(argc, argv);
  const long reps_flag = flags.get_int("reps", 9);
  const std::string out_path =
      flags.get_string("out", "BENCH_fusion.json");
  if (!flags.validate()) return 2;
  const int reps = require_count("reps", reps_flag);

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
                   r.name << ": a plan deviates " << r.max_deviation
                          << " from the per-gate path");
    char dev[32];
    std::snprintf(dev, sizeof dev, "%.1e", r.max_deviation);
    table.add_row({r.name, std::to_string(r.num_qubits),
                   std::to_string(r.gates), std::to_string(r.fused_ops),
                   fmt_double(r.unfused.median, 3),
                   fmt_double(r.fused.median, 3),
                   fmt_double(r.fused.median * 1e6 /
                                  static_cast<double>(r.gates),
                              1),
                   fmt_double(r.speedup, 2), dev, fmt_double(r.compile_ms, 3),
                   std::to_string(r.slices),
                   fmt_double(r.slice_compile_us, 1)});
  }
  table.print(std::cout);
  write_json(rows, command_line(argc, argv), reps, out_path);
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
