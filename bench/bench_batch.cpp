// Batched vs single-state sweep-point throughput.
//
// Times the full per-instance sweep work — ideal run with checkpoints plus
// a stratified noisy evaluation (12 trajectories, 2048 shots) — for the
// transpiled QFA(n=8, full depth) and QFM(n=4, full depth) circuits, at
// batch sizes --batches={1,4,8,16} in both replay precisions, each on the
// kernel build the host runs for it: "avx2" (double on an AVX2 host) or
// "scalar" (the portable build; always for float32), recorded in each
// row's "simd" field. batch=1 is the sweeps' scalar reference path
// (InstanceContext), which replays the circuit gate by gate on the
// StateVector kernels and runs no fused op: its "simd" field says
// "per-gate". "speedup_vs_single" is each batch size's end-to-end time
// against that double batch=1 time (float32 rows share it — the scalar
// path has no float tier), so it prices the batched engine against the
// reference path, fusion included. "<case>_replay" rows time
// JUST the pooled group-estimator replay over a pre-built batched clean
// run at batch 4 and 16 (ms_per_lane / inst_per_sec are the lane-scaling
// guard: the fused tile walk keeps batch=16 at or above batch=4). Writes
// machine-readable BENCH_batch.json with a "host" metadata block. Each
// case also cross-checks the batched channel estimate against the scalar
// estimator (<= 1e-9 in double; float32 at the replay drift tolerance).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/host_info.h"
#include "common/io.h"
#include "common/table.h"
#include "exp/experiment.h"
#include "exp/instances.h"
#include "sim/batch.h"

namespace qfab::bench {
namespace {

struct BenchRow {
  std::string name;
  std::string simd;
  std::string precision;
  int batch = 0;
  int num_qubits = 0;
  std::size_t gates = 0;
  int instances = 0;
  double point_ms = 0.0;       // one sweep point: all instances, one rate
  double ms_per_lane = 0.0;    // point_ms / instances
  double inst_per_sec = 0.0;
  double speedup_vs_single = 0.0;  // vs batch=1 of the same SIMD level
};

struct Case {
  std::string name;
  CircuitSpec spec;
};

/// One sweep point: every instance gets its ideal run (checkpointed) and
/// one stratified noisy evaluation — the exact per-point work of
/// run_sweep, minus transpile/plan compile (amortized across the sweep;
/// the batch=1 path compiles no plan).
void run_point(const Case& c, const QuantumCircuit& qc,
               const std::shared_ptr<const FusedPlan>& plan,
               const std::vector<ArithInstance>& instances,
               const NoiseModel& noise, const RunOptions& run) {
  const std::size_t B =
      static_cast<std::size_t>(std::max(run.batch_lanes, 1));
  Pcg64 root(0xBA7C4ULL, 17);
  if (run.batch_lanes <= 1) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const InstanceContext context(qc, c.spec, instances[i], run);
      std::vector<Pcg64> rngs{root.split(i)};
      (void)context.evaluate({noise}, run, rngs);
    }
    return;
  }
  for (std::size_t i0 = 0; i0 < instances.size(); i0 += B) {
    const std::size_t i1 = std::min(i0 + B, instances.size());
    const std::vector<ArithInstance> group(instances.begin() + i0,
                                           instances.begin() + i1);
    const InstanceBatch batch(plan, c.spec, group, run);
    std::vector<std::vector<Pcg64>> rngs(1);
    rngs[0].reserve(group.size());
    for (std::size_t m = 0; m < group.size(); ++m)
      rngs[0].push_back(root.split(i0 + m));
    (void)batch.evaluate({noise}, run, rngs);
  }
}

/// End-to-end trajectory replay for one batched group: the pooled group
/// estimator over a PRE-BUILT batched clean run, so only the replay is on
/// the clock. This is the lane-scaling metric: the per-split driver's
/// full-vector traffic grew with the merged injection-site count (~lanes ×
/// trajectories), inverting inst/sec between batch 4 and 16; the fused
/// tile walk restores batch=16 >= batch=4.
double replay_ms(const Case& c, const QuantumCircuit& qc,
                 const std::shared_ptr<const FusedPlan>& plan,
                 const std::vector<ArithInstance>& instances,
                 const NoiseModel& noise, int lanes, Precision precision,
                 int reps) {
  std::vector<std::vector<BasisTerm>> initials;
  initials.reserve(static_cast<std::size_t>(lanes));
  for (int m = 0; m < lanes; ++m)
    initials.push_back(initial_state_terms(
        c.spec, instances[static_cast<std::size_t>(m) % instances.size()]));
  const BatchedCleanRun clean(plan, initials);
  const ErrorLocations errors(qc, noise);
  const std::vector<int> out_q = output_qubits(c.spec);
  EstimatorOptions est;
  est.precision = precision;
  return median_ms(reps, [&] {
    std::vector<Pcg64> rngs;
    rngs.reserve(static_cast<std::size_t>(lanes));
    for (int m = 0; m < lanes; ++m)
      rngs.emplace_back(0xB41CULL, static_cast<std::uint64_t>(m));
    (void)estimate_channel_marginals_batched(clean, errors, out_q, est, rngs);
  });
}

void cross_check(const Case& c, const QuantumCircuit& qc,
                 const std::shared_ptr<const FusedPlan>& plan,
                 const ArithInstance& inst, const NoiseModel& noise,
                 const RunOptions& run) {
  const CleanRun clean(qc, make_initial_state(c.spec, inst),
                       run.checkpoint_interval);
  const BatchedCleanRun batched_clean(plan, {initial_state_terms(c.spec, inst)},
                                      run.checkpoint_interval);
  const ErrorLocations errors(qc, noise);
  const std::vector<int> out_q = output_qubits(c.spec);
  EstimatorOptions est;
  est.error_trajectories = run.error_trajectories;
  Pcg64 rng_a(42, 1), rng_b(42, 1);
  const auto scalar =
      estimate_channel_marginal(clean, errors, out_q, est, rng_a);
  const auto batched = estimate_channel_marginal_batched(
      batched_clean, 0, errors, out_q, est, 8, rng_b);
  double dev = 0.0;
  for (std::size_t i = 0; i < scalar.size(); ++i)
    dev = std::max(dev, std::abs(scalar[i] - batched[i]));
  QFAB_CHECK_MSG(dev < 1e-9,
                 c.name << ": batched estimator deviates " << dev);
  est.precision = Precision::kFloat32;
  Pcg64 rng_f(42, 1);
  const auto f32 = estimate_channel_marginal_batched(batched_clean, 0, errors,
                                                     out_q, est, 8, rng_f);
  dev = 0.0;
  for (std::size_t i = 0; i < scalar.size(); ++i)
    dev = std::max(dev, std::abs(scalar[i] - f32[i]));
  QFAB_CHECK_MSG(dev < 1e-4,
                 c.name << ": float32 estimator deviates " << dev);
}

void write_json(const std::vector<BenchRow>& rows, const std::string& path) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"batch\",\n  \"host\": "
      << host_info_json(kernel_tier_name<double>()) << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\""
        << ", \"simd\": \"" << r.simd << "\""
        << ", \"precision\": \"" << r.precision << "\""
        << ", \"batch\": " << r.batch
        << ", \"num_qubits\": " << r.num_qubits
        << ", \"gates\": " << r.gates
        << ", \"instances\": " << r.instances
        << ", \"point_ms\": " << r.point_ms
        << ", \"ms_per_lane\": " << r.ms_per_lane
        << ", \"inst_per_sec\": " << r.inst_per_sec
        << ", \"speedup_vs_single\": " << r.speedup_vs_single << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  atomic_write_file(path, out.str());
}

int run(int argc, const char* const* argv) {
  CliFlags flags(argc, argv);
  const long reps_flag = flags.get_int("reps", 3);
  const long inst_flag = flags.get_int("instances", 16);
  const std::vector<long> batches =
      flags.get_int_list("batches", {1, 4, 8, 16});
  const std::string out_path = flags.get_string("out", "BENCH_batch.json");
  if (!flags.validate()) return 2;
  const int reps = require_count("reps", reps_flag);
  const int n_inst = require_count("instances", inst_flag);
  for (long b : batches) {
    if (b >= 1 && b <= BatchedStateVector::kMaxLanes) continue;
    std::cerr << "--batches entries must be in [1, "
              << BatchedStateVector::kMaxLanes << "] (got " << b << ")\n";
    return 2;
  }

  std::vector<Case> cases;
  {
    CircuitSpec qfa;
    qfa.op = Operation::kAdd;
    qfa.n = 8;
    qfa.depth = kFullDepth;
    cases.push_back({"qfa_n8_dfull", qfa});
    CircuitSpec qfm;
    qfm.op = Operation::kMultiply;
    qfm.n = 4;
    qfm.depth = kFullDepth;
    cases.push_back({"qfm_n4_dfull", qfm});
  }

  NoiseModel noise;
  noise.p1q = 0.001;  // mid-sweep gate error rate (0.1%)

  std::vector<BenchRow> rows;
  for (const Case& c : cases) {
    const QuantumCircuit qc = build_transpiled_circuit(c.spec);
    const auto plan = std::make_shared<const FusedPlan>(qc);
    Pcg64 inst_rng(0x5eedULL, 7);
    const auto instances =
        generate_instances(n_inst, c.spec.n, c.spec.n, OperandOrders{},
                           inst_rng);

    RunOptions check_run;
    cross_check(c, qc, plan, instances.front(), noise, check_run);

    double single_ms = 0.0;  // the double batch=1 time
    for (Precision precision : {Precision::kDouble, Precision::kFloat32}) {
      const std::string tier = precision == Precision::kDouble
                                   ? kernel_tier_name<double>()
                                   : kernel_tier_name<float>();
      for (long batch : batches) {
        // batch=1 runs the scalar per-gate path, which has no float tier —
        // one double row covers it.
        if (precision == Precision::kFloat32 && batch <= 1) continue;
        RunOptions run;
        run.batch_lanes = static_cast<int>(batch);
        run.precision = precision;
        const double ms = median_ms(
            reps, [&] { run_point(c, qc, plan, instances, noise, run); });
        BenchRow row;
        row.name = c.name;
        row.simd = batch <= 1 ? "per-gate" : tier;
        row.precision = precision_name(precision);
        row.batch = static_cast<int>(batch);
        row.num_qubits = qc.num_qubits();
        row.gates = qc.gates().size();
        row.instances = n_inst;
        row.point_ms = ms;
        row.ms_per_lane = ms / static_cast<double>(n_inst);
        row.inst_per_sec = static_cast<double>(n_inst) / (ms / 1e3);
        if (precision == Precision::kDouble && batch == 1) single_ms = ms;
        row.speedup_vs_single = single_ms > 0.0 ? single_ms / ms : 0.0;
        rows.push_back(row);
      }
      // The replay-only metric (group estimator over a pre-built clean
      // run) at the two lane counts whose ordering the tile walk fixed.
      for (long batch : batches) {
        if (batch != 4 && batch != 16) continue;
        const double ms = replay_ms(c, qc, plan, instances, noise,
                                    static_cast<int>(batch), precision, reps);
        BenchRow row;
        row.name = c.name + "_replay";
        row.simd = tier;
        row.precision = precision_name(precision);
        row.batch = static_cast<int>(batch);
        row.num_qubits = qc.num_qubits();
        row.gates = qc.gates().size();
        row.instances = static_cast<int>(batch);
        row.point_ms = ms;
        row.ms_per_lane = ms / static_cast<double>(batch);
        row.inst_per_sec = static_cast<double>(batch) / (ms / 1e3);
        rows.push_back(row);
      }
    }
  }

  TextTable table({"case", "simd", "precision", "batch", "gates", "point_ms",
                   "ms/lane", "inst/sec", "speedup"});
  for (const BenchRow& r : rows)
    table.add_row({r.name, r.simd, r.precision, std::to_string(r.batch),
                   std::to_string(r.gates), fmt_double(r.point_ms, 1),
                   fmt_double(r.ms_per_lane, 2),
                   fmt_double(r.inst_per_sec, 1),
                   fmt_double(r.speedup_vs_single, 2)});
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
