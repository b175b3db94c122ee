// Micro-benchmarks (google-benchmark): state-vector gate kernels, QFT
// scaling, transpilation, the batched clean runs and trajectory replay
// the sweeps run, and the batched SIMD kernels — the cost model behind the
// figure benches' default scale.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "noise/estimator.h"
#include "qfb/adder.h"
#include "qfb/qft.h"
#include "sim/batch.h"
#include "sim/fusion.h"
#include "transpile/transpile.h"

namespace {

using namespace qfab;

void BM_Gate1q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv(n);
  const Gate g = make_gate1(GateKind::kSX, n / 2);
  for (auto _ : state) {
    sv.apply_gate(g);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pow2(n)));
}
BENCHMARK(BM_Gate1q)->Arg(10)->Arg(16)->Arg(20);

void BM_GateRz(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv(n);
  const Gate g = make_gate1(GateKind::kRZ, n / 2, 0.3);
  for (auto _ : state) {
    sv.apply_gate(g);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pow2(n)));
}
BENCHMARK(BM_GateRz)->Arg(16)->Arg(20);

void BM_GateCx(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv(n);
  const Gate g = make_gate2(GateKind::kCX, 1, n - 2);
  for (auto _ : state) {
    sv.apply_gate(g);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pow2(n)));
}
BENCHMARK(BM_GateCx)->Arg(16)->Arg(20);

void BM_QftCircuit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const QuantumCircuit qc = transpile_to_basis(make_qft(n));
  StateVector sv(n);
  for (auto _ : state) {
    sv.apply_circuit(qc);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetLabel(std::to_string(qc.gates().size()) + " basis gates");
}
BENCHMARK(BM_QftCircuit)->Arg(8)->Arg(12)->Arg(16);

void BM_TranspileQfa(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const QuantumCircuit qc = make_qfa(n, n, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(transpile_to_basis(qc).gates().size());
  }
}
BENCHMARK(BM_TranspileQfa)->Arg(4)->Arg(8);

/// The batched clean run of one member, as a sweep unit builds it: the
/// plan compiled once, the ideal run from the operands' basis terms.
void bm_clean_run(benchmark::State& state, Operation op) {
  CircuitSpec spec;
  spec.op = op;
  spec.n = static_cast<int>(state.range(0));
  const auto plan =
      std::make_shared<const FusedPlan>(build_transpiled_circuit(spec));
  const ArithInstance inst{QInt::classical(spec.n, 3),
                           QInt::classical(spec.n, 5)};
  const std::vector<std::vector<BasisTerm>> initials = {
      initial_state_terms(spec, inst)};
  for (auto _ : state) {
    const BatchedCleanRun clean(plan, initials, 64);
    benchmark::DoNotOptimize(clean.final_states().re());
  }
  state.SetLabel(std::to_string(plan->gate_count()) + " gates");
}

void BM_QfaCleanRun(benchmark::State& state) {
  bm_clean_run(state, Operation::kAdd);
}
BENCHMARK(BM_QfaCleanRun)->Arg(4)->Arg(8);

void BM_QfmCleanRun(benchmark::State& state) {
  bm_clean_run(state, Operation::kMultiply);
}
BENCHMARK(BM_QfmCleanRun)->Arg(3)->Arg(4);

/// One error trajectory of a one-member QFA n=8 clean run, as the
/// estimators replay it: load the member's state at the first error site
/// from the batched checkpoints, then walk the rest of the plan.
void BM_ErrorTrajectory(benchmark::State& state) {
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 8;
  const auto plan =
      std::make_shared<const FusedPlan>(build_transpiled_circuit(spec));
  const ArithInstance inst{QInt::classical(8, 100), QInt::classical(8, 55)};
  const BatchedCleanRun clean(plan, {initial_state_terms(spec, inst)}, 64);
  NoiseModel nm;
  nm.p2q = 0.01;
  const ErrorLocations locs(plan->circuit(), nm);
  Pcg64 rng(1);
  const std::vector<int> lane_map = {0};
  BatchedStateVector bsv(1, 1);
  std::vector<std::vector<ErrorEvent>> events(1);
  for (auto _ : state) {
    events[0] = locs.sample_at_least_one(rng);
    const std::size_t start = events[0].front().gate_index + 1;
    clean.load_states_at(start, lane_map, bsv);
    run_trajectories_batched(*plan, bsv, start, events);
    benchmark::DoNotOptimize(bsv.re());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ErrorTrajectory);

void BM_MarginalProbabilities(benchmark::State& state) {
  StateVector sv(16);
  sv.apply_gate(make_gate1(GateKind::kH, 0));
  std::vector<int> qubits;
  for (int i = 8; i < 16; ++i) qubits.push_back(i);
  for (auto _ : state)
    benchmark::DoNotOptimize(sv.marginal_probabilities(qubits).data());
}
BENCHMARK(BM_MarginalProbabilities);

// ---------------------------------------------------------------------------
// Batched SIMD kernels: one row per (kernel, precision), each on the
// kernel build the host runs for that precision (its name is in the row:
// "avx2" or "scalar", the portable build). Each row reports amplitude-lane
// updates per second (items/sec) and the effective plane traffic
// (bytes/sec; 2 planes x read+write per update), so kernels are comparable
// as bandwidth figures.

/// Every lane of a `lanes`-lane vector holding H on every qubit of |0...0>:
/// a dense state, so the walk skips no tile.
template <typename Real>
BatchedStateVectorT<Real> dense_lanes(int n, int lanes) {
  StateVector sv(n);
  for (int q = 0; q < n; ++q) sv.apply_gate(make_gate1(GateKind::kH, q));
  BatchedStateVectorT<Real> bsv(n, lanes);
  bsv.broadcast(sv);
  return bsv;
}

template <typename Real>
void bm_batched_plan(benchmark::State& state,
                     std::shared_ptr<const FusedPlan> plan, int n, int lanes) {
  BatchedStateVectorT<Real> bsv = dense_lanes<Real>(n, lanes);
  for (auto _ : state) {
    apply_plan(*plan, bsv);
    benchmark::DoNotOptimize(bsv.re());
  }
  const double updates = static_cast<double>(state.iterations()) *
                         static_cast<double>(plan->gate_count()) *
                         static_cast<double>(pow2(n)) *
                         static_cast<double>(lanes);
  state.SetItemsProcessed(static_cast<std::int64_t>(updates));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(updates * 4.0 * sizeof(Real)));
}

/// The streams worth a row each: one per transpiled gate kind that costs
/// work — SX (b_gate's 2x2 body), RZ (its phase-on-bit pass) and CX (its
/// row swap), each gate a kGate op of an unfused plan — and the fused AQFT
/// mix the sweeps actually run.
QuantumCircuit kernel_circuit(const std::string& kernel, int n, int gates) {
  QuantumCircuit qc(n);
  for (int i = 0; i < gates; ++i) {
    const int q = i % n;
    if (kernel == "sx")
      qc.append(make_gate1(GateKind::kSX, q));
    else if (kernel == "rz")
      qc.append(make_gate1(GateKind::kRZ, q, 0.3));
    else
      qc.append(make_gate2(GateKind::kCX, q, (q + 1) % n));
  }
  return qc;
}

int register_batched_benches() {
  const int n = 12;
  const int lanes = 8;
  const int gates = 64;
  std::vector<std::pair<std::string, std::shared_ptr<const FusedPlan>>>
      plans;
  // Per-gate streams run unfused so every gate runs as its own kGate op.
  FusionOptions unfused;
  unfused.enable = false;
  for (const char* kernel : {"sx", "rz", "cx"})
    plans.emplace_back(kernel, std::make_shared<const FusedPlan>(
                                   kernel_circuit(kernel, n, gates),
                                   unfused));
  plans.emplace_back("aqft_fused", std::make_shared<const FusedPlan>(
                                       transpile_to_basis(make_qft(n))));
  const std::string tail = "/lanes:" + std::to_string(lanes);
  for (const auto& [kernel, plan] : plans) {
    benchmark::RegisterBenchmark(
        ("BM_Batched/" + kernel + "/" + kernel_tier_name<double>() + tail +
         "/f64")
            .c_str(),
        [plan, n, lanes](benchmark::State& s) {
          bm_batched_plan<double>(s, plan, n, lanes);
        });
    benchmark::RegisterBenchmark(
        ("BM_Batched/" + kernel + "/" + kernel_tier_name<float>() + tail +
         "/f32")
            .c_str(),
        [plan, n, lanes](benchmark::State& s) {
          bm_batched_plan<float>(s, plan, n, lanes);
        });
  }
  return 0;
}

const int kBatchedBenchesRegistered = register_batched_benches();

// ---------------------------------------------------------------------------
// Lane-span cost of one walk step: what a replay pays for a step that
// touches `span` of the 8 double lanes (the fused walk's bystander spans and
// single-lane slices, DESIGN.md §12). The steps come from the QFA n=8
// full-depth plan (16 qubits, 65536 rows): its first 10-qubit diagonal, the
// 2x2 on qubit 15, and a single-lane X on qubit 15. Each iteration is one
// apply_batch_walk of a run of 16 copies of the step, so every L1-sized
// tile is loaded once and takes all 16 — the step's cost inside a tile
// run, which is how a replay meets it, rather than the memory traffic of a
// lone full-vector pass. sec_per_row is the time per step per amplitude
// row; the row count does not depend on the span.

struct LaneSpanCase {
  std::shared_ptr<const FusedPlan> plan;
  std::size_t diag10 = 0;  // first 10-qubit kDiagonal op
  std::size_t m1_q15 = 0;  // first kMatrix1 op on qubit 15
};

const LaneSpanCase& lane_span_case() {
  static const LaneSpanCase c = [] {
    CircuitSpec spec;
    spec.op = Operation::kAdd;
    spec.n = 8;
    LaneSpanCase out;
    out.plan =
        std::make_shared<const FusedPlan>(build_transpiled_circuit(spec));
    const auto& ops = out.plan->ops();
    bool have_diag = false, have_m1 = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!have_diag && ops[i].kind == FusedOp::Kind::kDiagonal &&
          ops[i].qubits.size() == 10) {
        out.diag10 = i;
        have_diag = true;
      }
      if (!have_m1 && ops[i].kind == FusedOp::Kind::kMatrix1 &&
          ops[i].q0 == 15) {
        out.m1_q15 = i;
        have_m1 = true;
      }
    }
    QFAB_CHECK_MSG(have_diag && have_m1, "QFA n=8 plan lacks a bench op");
    return out;
  }();
  return c;
}

void bm_lane_span(benchmark::State& state, const BatchWalkStep& step) {
  constexpr std::size_t kRun = 16;
  const LaneSpanCase& c = lane_span_case();
  const int n = c.plan->circuit().num_qubits();
  BatchedStateVector bsv = dense_lanes<double>(n, 8);
  const std::vector<BatchWalkStep> run(kRun, step);
  for (auto _ : state) {
    apply_batch_walk(*c.plan, bsv, run.data(), run.size());
    benchmark::DoNotOptimize(bsv.re());
    benchmark::ClobberMemory();
  }
  state.counters["sec_per_row"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kRun) *
          static_cast<double>(bsv.dim()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

int register_lane_span_benches() {
  const LaneSpanCase& c = lane_span_case();
  const FusedPlan* plan = c.plan.get();
  for (int span : {8, 4, 1}) {
    const std::string suffix = "/lanes:8/span:" + std::to_string(span);
    const BatchWalkStep diag =
        BatchWalkStep::op_span_step(plan, c.diag10, 0, span);
    const BatchWalkStep m1 =
        BatchWalkStep::op_span_step(plan, c.m1_q15, 0, span);
    benchmark::RegisterBenchmark(
        ("BM_LaneSpan/diag10" + suffix).c_str(),
        [diag](benchmark::State& s) { bm_lane_span(s, diag); });
    benchmark::RegisterBenchmark(
        ("BM_LaneSpan/matrix1_q15" + suffix).c_str(),
        [m1](benchmark::State& s) { bm_lane_span(s, m1); });
  }
  const BatchWalkStep x = BatchWalkStep::pauli_step(0, Pauli::kX, 15);
  benchmark::RegisterBenchmark(
      "BM_LaneSpan/pauli_x_q15/lanes:8/span:1",
      [x](benchmark::State& s) { bm_lane_span(s, x); });
  return 0;
}

const int kLaneSpanBenchesRegistered = register_lane_span_benches();

}  // namespace
